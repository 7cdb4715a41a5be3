"""Command-line driver: verify single fields or a discriminant range."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional

from .number_field import RATIONAL_FIELD, DiscriminantError, \
    QuadraticFieldInvariants, fundamental_discriminants, prime_discriminants
from .weil_cohomology import VerificationReport, validate_tolerance, \
    verify_field
from .zeta import ZetaStarValue

__all__ = ["RunConfig", "ErrorReport", "run", "main", "report_to_dict",
           "report_from_dict"]

USAGE_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """What to verify and how; built only valid, and frozen, so a config
    is checked once, when it is made."""

    targets: tuple = ()  # ints and/or RATIONAL_FIELD
    range_bound: Optional[int] = None
    tolerance: float = 1e-9
    json_path: Optional[str] = None
    table: bool = True
    jobs: int = 1
    show_profile: bool = False

    def __post_init__(self):
        # a tuple, so that the checked targets cannot change either
        object.__setattr__(self, "targets", tuple(self.targets))
        self.validate()

    def validate(self):
        if not self.targets and self.range_bound is None:
            raise ValueError("no targets: give --field and/or --range")
        validate_tolerance(self.tolerance)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs!r}")
        if self.range_bound is not None and self.range_bound < 3:
            raise ValueError("range bound must be at least 3")
        if self.json_path is not None:
            # checked now, not after the sweep that it would end
            if not self.json_path:
                raise ValueError("the JSON path is empty")
            target = os.path.realpath(self.json_path)
            if os.path.isdir(target):
                raise ValueError(f"{self.json_path} is a directory")
            # the write renames a new file onto the target, which would
            # replace a device node or a FIFO rather than write into it
            if os.path.exists(target) and not os.path.isfile(target):
                raise ValueError(f"{self.json_path} is not a regular file")
            parent = os.path.dirname(target)
            if not os.path.isdir(parent):
                raise ValueError(f"{parent} is not an existing directory")
        for t in self.targets:
            if t == RATIONAL_FIELD:
                continue
            try:
                prime_discriminants(t)
            except DiscriminantError as exc:
                raise ValueError(
                    f"{t} is not a fundamental discriminant: {exc}") from None

    def resolved_targets(self):
        """Explicit targets plus the range sweep, ordered by |d| then sign,
        with the rational field first; duplicates dropped."""
        ds = list(self.targets)
        if self.range_bound is not None:
            ds.extend(fundamental_discriminants(self.range_bound))
        key = lambda d: (0, 0) if d == RATIONAL_FIELD else (abs(d), d)
        return sorted(set(ds), key=key)


@dataclass(frozen=True)
class ErrorReport:
    """A field whose verification raised: the stage that raised
    ("invariants", "chi" or "oracle") and the exception as text."""

    field: object
    stage: str
    message: str
    verdict: ClassVar[str] = "error"


def _verify(d, tol):
    """The field's report, or its `ErrorReport` if verifying it raised, so
    that one bad field does not end the sweep.  Module level, so that the
    pool can pickle it."""
    try:
        return verify_field(d, tol=tol)
    except Exception as exc:
        return ErrorReport(d, exc.stage, f"{type(exc).__name__}: {exc}")


def _group_to_dict(g):
    return {"rank": g.free_rank, "factors": list(g.invariant_factors)}


def report_to_dict(r):
    if r.verdict == "error":
        return {"field": r.field, "verdict": r.verdict,
                "error": {"stage": r.stage, "message": r.message}}
    inv = r.invariants
    profile = r.profile
    return {
        "field": inv.d,
        "r1": inv.r1,
        "r2": inv.r2,
        "h": inv.h,
        "w": inv.w,
        "regulator": inv.regulator,
        "unit": list(inv.fundamental_unit) if inv.fundamental_unit else None,
        "unit_norm": inv.unit_norm,
        "cohomology": {
            "compact": [_group_to_dict(g) for g in profile.compact],
            "open": [_group_to_dict(g) for g in profile.open],
        },
        "metadata": profile.metadata,
        "chi": r.chi,
        "chi_exact": str(r.chi_exact) if r.chi_exact is not None else None,
        "zeta_star": {
            "order": r.zeta_star.order,
            "leading": r.zeta_star.leading,
            "exact": str(r.zeta_star.exact) if r.zeta_star.exact is not None else None,
        },
        "ratio": r.ratio,
        "tolerance": r.tolerance,
        "convention": r.convention,
        "verdict": r.verdict,
        "elapsed_ms": r.elapsed_ms,
    }


def report_from_dict(obj):
    """Rebuild an emitted report from its stored facts; the profile, its
    metadata and the convention follow from them (round-trip aid).  An
    `error` line gives back its `ErrorReport`."""
    if obj["verdict"] == "error":
        return ErrorReport(obj["field"], **obj["error"])
    inv = QuadraticFieldInvariants(
        d=obj["field"], h=obj["h"],
        fundamental_unit=tuple(obj["unit"]) if obj["unit"] else None,
        unit_norm=obj["unit_norm"], regulator=obj["regulator"],
    )
    zs = obj["zeta_star"]
    return VerificationReport(
        invariants=inv,
        chi=obj["chi"],
        chi_exact=Fraction(obj["chi_exact"]) if obj["chi_exact"] else None,
        zeta_star=ZetaStarValue(
            order=zs["order"], leading=zs["leading"],
            exact=Fraction(zs["exact"]) if zs["exact"] else None,
        ),
        ratio=obj["ratio"],
        tolerance=obj["tolerance"],
        verdict=obj["verdict"],
        elapsed_ms=obj["elapsed_ms"],
    )


def _print_table(reports, out):
    header = f"{'d':>6} {'h':>4} {'R':>14} {'w':>3} {'|chi|':>14} " \
             f"{'|zeta*(0)|':>14} {'rel err':>10} verdict"
    print(header, file=out)
    for r in reports:
        if r.verdict == "error":
            # blank columns, then the verdict under its header
            print(f"{r.field:>6} {'':64} error in {r.stage}: {r.message}",
                  file=out)
            continue
        inv = r.invariants
        print(
            f"{inv.d:>6} {inv.h:>4} {inv.regulator:>14.10f} "
            f"{inv.w:>3} {abs(r.chi):>14.10f} {abs(r.zeta_star.leading):>14.10f} "
            f"{abs(r.ratio - 1):>10.2e} {r.verdict}",
            file=out,
        )


def _print_profile(r, out):
    inv = r.invariants
    print(f"-- field {inv.d}: cohomology profile", file=out)
    for q in range(4):
        print(f"   compact H^{q} = {r.profile.compact[q]}    "
              f"open H^{q} = {r.profile.open[q]}", file=out)
    print(f"   note: {r.profile.metadata}", file=out)


# reports are trees, so the encoder need not look for cycles
_encode_json = json.JSONEncoder(check_circular=False).encode


def _write_json(path, reports):
    """Write the reports as a JSON array, one report per line.  A symlink
    is followed, so the link stays and its target gets the reports.  The
    file is written under a temporary name in the target's directory and
    moved into place only when complete, so a failure leaves any earlier
    file as it was.  The name is random, not the pid, so that a file left
    behind by a killed run cannot block the write."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write("[\n")
            f.write(",\n".join(_encode_json(report_to_dict(r)) for r in reports))
            f.write("\n]\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(config: RunConfig, out=None):
    """Verify every configured field.  Returns (exit_status, reports); a
    field whose verification raised gets an `ErrorReport`, and the sweep
    goes on."""
    out = out if out is not None else sys.stdout
    targets = config.resolved_targets()
    verify = functools.partial(_verify, tol=config.tolerance)
    # the pool forks all its workers at once: no more than fields or cores
    workers = min(config.jobs, len(targets), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost a serial run its start-up
        from concurrent.futures import ProcessPoolExecutor
        # about four batches a worker: few round trips, and still some
        # balancing, since a field's cost grows with |d|
        chunksize = max(1, len(targets) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(verify, targets, chunksize=chunksize))
    else:
        reports = list(map(verify, targets))
    if config.table:
        _print_table(reports, out)
    verified = [r for r in reports if r.verdict != "error"]
    if config.show_profile:
        for r in verified:
            _print_profile(r, out)
    if config.json_path is not None:
        _write_json(config.json_path, reports)
    n_pass = sum(r.passed for r in verified)
    n_fail = len(verified) - n_pass
    n_error = len(reports) - len(verified)
    max_err = max((abs(r.ratio - 1) for r in verified), default=float("nan"))
    print(f"{n_pass} passed, {n_fail} failed, {n_error} raised, "
          f"max relative error {max_err:.3e}", file=out)
    return (0 if n_pass == len(reports) else 1), reports


def _parse_field(text):
    if text.strip().upper() == "Q":
        return RATIONAL_FIELD
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not 'Q' or an integer")


def build_parser():
    p = argparse.ArgumentParser(
        prog="zetachi",
        description="Verify the special-value identity |chi| = |zeta*(0)| "
                    "for the rational field and quadratic fields.",
    )
    p.add_argument("--field", action="append", type=_parse_field, default=[],
                   metavar="d|Q", help="verify one field (repeatable)")
    p.add_argument("--range", type=int, default=None, metavar="N",
                   help="verify all fundamental discriminants |d| <= N")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative tolerance for the verdict (default 1e-9)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write machine-readable reports to PATH")
    p.add_argument("--table", action="store_true",
                   help="print the per-field table (default unless --json only)")
    p.add_argument("--jobs", type=int, default=1,
                   help="verify fields in parallel with this many workers")
    p.add_argument("--show-profile", action="store_true",
                   help="print the cohomology groups and Weil-group metadata")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            targets=args.field,
            range_bound=args.range,
            tolerance=args.tol,
            json_path=args.json,
            table=args.table or args.json is None,
            jobs=args.jobs,
            show_profile=args.show_profile,
        )
    except ValueError as exc:
        parser.exit(USAGE_ERROR, f"{parser.prog}: error: {exc}\n")
    # a ValueError out of the sweep itself is a fault, not a usage error
    status, _ = run(config)
    return status

"""Benchmark workloads: fixed inputs, one timed pass, output checks.

A workload builds the list of inputs the program receives, runs one pass
over all of them through a public entry point, and checks every
output outside the timed region.  Each pass returns the start and end of
its timed region, the number of operations attempted and a list of
failures; an exception, a wrong output or a failed verdict is a failure,
and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from time import perf_counter

from zetachi import cli, group_cohomology as gc
from zetachi.abelian import FgAbGroup
from zetachi.group_cohomology import GModuleAction

TOLERANCE = 1e-9

# Values from standard tables, checked against the reports when the field
# is among the inputs: d -> class number, and d -> regulator log(unit).
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -23: 3, -47: 5, -71: 7, -84: 4, -163: 1, -167: 11,
    -191: 13, -239: 15, 5: 1, 229: 3, 257: 3,
}
KNOWN_REGULATORS = {
    5: math.log((1 + math.sqrt(5)) / 2),
    229: math.log((15 + math.sqrt(229)) / 2),
    257: math.log(16 + math.sqrt(257)),
}


def _squarefree(n):
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental(d):
    """Fundamental discriminant test, kept apart from the program's own."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(abs(d))
    return d % 16 in (8, 12) and _squarefree(abs(d) // 4)


def digest(items):
    blob = json.dumps(items, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# sweeps through cli.run


class Sweep:
    """Fields verified serially by `cli.run`, table to a null sink, JSON
    to a file."""

    def __init__(self, fields, workdir):
        self.fields = fields
        self.workdir = workdir
        self.digest = digest(fields)

    def warm_up(self):
        self._run(["Q", -3, 5])

    def run_pass(self):
        return self._run(self.fields)

    def _run(self, fields):
        json_path = os.path.join(self.workdir, "report.json")
        config = cli.RunConfig(targets=list(fields), tolerance=TOLERANCE,
                               json_path=json_path, table=True, jobs=1)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            start = perf_counter()
            try:
                _, reports = cli.run(config, out=sink)
            except Exception as exc:  # a crashed sweep fails every field
                end = perf_counter()
                return start, end, len(fields), \
                    [f"{d}: cli.run raised {exc!r}" for d in fields]
            end = perf_counter()
        return start, end, len(fields), check_sweep(fields, reports, json_path)


def check_sweep(fields, reports, json_path):
    """One failure message per field whose output is missing or wrong."""
    bad = {}
    got = {r.invariants.d: r for r in reports}
    for d in fields:
        r = got.get(d)
        if r is None:
            bad[d] = "no report"
            continue
        inv, zs = r.invariants, r.zeta_star
        if r.verdict != "pass":
            bad[d] = f"verdict {r.verdict}"
        elif not abs(r.ratio - 1) <= TOLERANCE:
            bad[d] = f"ratio {r.ratio!r}"
        elif zs.order != inv.unit_rank:
            bad[d] = f"zeta order {zs.order} != unit rank {inv.unit_rank}"
        elif d in KNOWN_CLASS_NUMBERS and inv.h != KNOWN_CLASS_NUMBERS[d]:
            bad[d] = f"h = {inv.h}, expected {KNOWN_CLASS_NUMBERS[d]}"
        elif d in KNOWN_REGULATORS and \
                not math.isclose(inv.regulator, KNOWN_REGULATORS[d], rel_tol=1e-12):
            bad[d] = f"regulator {inv.regulator!r}"
    json_error = None
    try:
        with open(json_path, encoding="utf-8") as f:
            emitted = {o["field"]: o["verdict"] for o in json.load(f)}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        emitted, json_error = {}, f"JSON report unreadable: {exc!r}"
    for d in fields:
        if emitted.get(d) != "pass":
            bad.setdefault(d, json_error or f"JSON verdict {emitted.get(d)!r}")
    return [f"{d}: {msg}" for d, msg in bad.items()]


def corpus_300():
    """Q and every fundamental discriminant with |d| <= 300."""
    ds = [d for a in range(3, 301) for d in (-a, a) if is_fundamental(d)]
    if len(ds) != 184:
        raise RuntimeError(f"corpus has {len(ds)} discriminants, expected 184")
    return ["Q"] + ds


# ---------------------------------------------------------------------------
# the cochain test bed through group_cohomology_q


def _power(M, k):
    r = len(M)
    out = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    for _ in range(k):
        out = tuple(tuple(sum(out[i][t] * M[t][j] for t in range(r))
                          for j in range(r)) for i in range(r))
    return out


def cyclic_action(G, generator_matrix):
    """C_n acting on Z^r with element 1 (the generator) acting by the matrix."""
    mats = [None] * G.order
    x = G.identity
    for k in range(G.order):
        mats[x] = _power(generator_matrix, k)
        x = G.mul(x, 1)
    return GModuleAction(len(generator_matrix), tuple(mats))


def sign_action(G):
    """Z with elements of order 2 acting by -1 (the sign of S_3)."""
    def order(g):
        k, x = 1, g
        while x != G.identity:
            x, k = G.mul(x, g), k + 1
        return k
    return GModuleAction(1, tuple(((-1 if order(g) == 2 else 1,),)
                                  for g in range(G.order)))


def _z(rank=0, *factors):
    return (rank, tuple(factors))


def testbed_cases():
    """Cases (group, action, degree, builder, G, A, expected), where the
    expected group is (free rank, invariant factors).

    Expected values come from theory: H^q(G, Z) is Z, 0, Hom(G, Q/Z) and
    the Schur multiplier for q = 0..3; for cyclic G and a module M,
    H^even = M^G / N M and H^odd = ker N / (g - 1) M; induced modules have
    no higher cohomology; H^q(S_3, Z_sgn) follows from inflation-restriction
    along C_3 < S_3."""
    c2, c3, c4, c6 = (gc.cyclic_group(n) for n in (2, 3, 4, 6))
    s3 = gc.symmetric_group(3)
    v4 = gc.direct_product(c2, c2)
    triv = gc.trivial_action
    groups = {"C2": c2, "C3": c3, "C4": c4, "C6": c6, "S3": s3, "C2xC2": v4}
    actions = {
        "Z": triv,
        "Z_sign": sign_action,
        "Z[i]": lambda G: cyclic_action(G, ((0, -1), (1, 0))),
        "Z[w]": lambda G: cyclic_action(G, ((0, -1), (1, -1))),
        "Z[zeta6]": lambda G: cyclic_action(G, ((0, -1), (1, 1))),
        "Z[C3]": lambda G: cyclic_action(G, ((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    }
    table = [
        ("C2", "Z", 0, _z(1)), ("C2", "Z", 1, _z()), ("C2", "Z", 2, _z(0, 2)),
        ("C2", "Z", 3, _z()),
        ("C3", "Z", 1, _z()), ("C3", "Z", 2, _z(0, 3)), ("C3", "Z", 3, _z()),
        ("C4", "Z", 2, _z(0, 4)), ("C4", "Z", 3, _z()),
        ("C6", "Z", 0, _z(1)), ("C6", "Z", 2, _z(0, 6)),
        ("S3", "Z", 1, _z()), ("S3", "Z", 2, _z(0, 2)),
        ("C2xC2", "Z", 1, _z()), ("C2xC2", "Z", 2, _z(0, 2, 2)),
        ("C2xC2", "Z", 3, _z(0, 2)),
        ("C2", "Z_sign", 0, _z()), ("C2", "Z_sign", 1, _z(0, 2)),
        ("C2", "Z_sign", 2, _z()), ("C2", "Z_sign", 3, _z(0, 2)),
        ("C4", "Z[i]", 1, _z(0, 2)), ("C4", "Z[i]", 2, _z()),
        ("C3", "Z[w]", 1, _z(0, 3)), ("C3", "Z[w]", 2, _z()),
        ("C6", "Z[zeta6]", 1, _z()), ("C6", "Z[zeta6]", 2, _z()),
        ("C3", "Z[C3]", 0, _z(1)), ("C3", "Z[C3]", 1, _z()),
        ("C3", "Z[C3]", 2, _z()),
        ("S3", "Z_sign", 1, _z(0, 2)), ("S3", "Z_sign", 2, _z(0, 3)),
    ]
    cases = []
    built = {}
    for g, a, q, expect in table:
        if (g, a) not in built:
            built[(g, a)] = (groups[g], actions[a](groups[g]))
        G, A = built[(g, a)]
        for builder in ("homogeneous", "inhomogeneous"):
            cases.append((g, a, q, builder, G, A, expect))
    # The two 1296 x 216 coboundaries, homogeneous builder only.
    for g in ("C6", "S3"):
        cases.append((g, "Z", 3, "homogeneous", groups[g], triv(groups[g]), _z()))
    return cases


class Testbed:
    """Cochain cases computed by `group_cohomology_q`.  The list and its
    order are fixed: peak memory depends on the order of the large cases."""

    def __init__(self):
        self.cases = testbed_cases()
        self.digest = digest([c[:4] + (list(c[6]),) for c in self.cases])

    def warm_up(self):
        G = gc.cyclic_group(2)
        try:
            gc.group_cohomology_q(G, gc.trivial_action(G), 2)
        except Exception:  # the timed passes count this failure
            pass

    def run_pass(self):
        results = []
        start = perf_counter()
        for _, _, q, builder, G, A, _ in self.cases:
            build = getattr(gc, f"build_{builder}_complex")
            try:
                results.append(gc.group_cohomology_q(G, A, q, complex_builder=build))
            except Exception as exc:
                results.append(exc)
        end = perf_counter()
        return start, end, len(self.cases), check_testbed(self.cases, results)


def check_testbed(cases, results):
    bad = {}
    by_key = {}
    for case, got in zip(cases, results):
        g, a, q, builder, _, _, (rank, factors) = case
        key = (g, a, q)
        by_key.setdefault(key, []).append((builder, got))
        if isinstance(got, Exception):
            bad[key + (builder,)] = f"raised {got!r}"
        elif got != FgAbGroup(rank, factors):
            bad[key + (builder,)] = f"got {got}, expected {FgAbGroup(rank, factors)}"
    for key, pair in by_key.items():
        if len(pair) == 2 and pair[0][1] != pair[1][1]:
            for builder, got in pair:
                bad.setdefault(key + (builder,), "homogeneous and inhomogeneous differ")
    return [f"H^{k[2]}({k[0]}, {k[1]}) {k[3]}: {msg}" for k, msg in bad.items()]


# ---------------------------------------------------------------------------


def make(name, workdir):
    """Build the named workload's inputs.  Both lists are fixed, so the
    seed, recorded with every result, does not change them."""
    if name == "corpus-300":
        return Sweep(corpus_300(), workdir)
    if name == "cochain-testbed":
        return Testbed()
    raise ValueError(f"unknown workload {name!r}")

"""One measurement of one workload, in a process of its own.

    python3 bench/measure.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/measure.py --workload W --seed N --setup-only

Imports `zetachi` from the `src` directory beside this one, builds the
workload's inputs, warms up, then runs timed passes and prints one JSON
object as its last line.  Untraced (--trace 0), it measures operations per
second and peak memory.  Traced (--trace 1), it spends half the time
untraced and half with every layer wrapped, and reports per-layer metrics
per traced pass and the tracing overhead.  With --setup-only it stops after
building the inputs; run.py times that as the set-up cost.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Never start a pass that would end later than this after the measurement
# began; run.py has to finish within 180 s including set-up.
HARD_BUDGET_S = 140.0

# Traced layers: the span name (the module that defines the function), and
# where its callers look it up (a module of zetachi and an attribute path).
LAYERS = (
    ("cli.run", "cli", "run"),
    ("cli.report_to_dict", "cli", "report_to_dict"),
    ("weil_cohomology.verify_field", "cli", "verify_field"),
    ("number_field.field_invariants", "weil_cohomology", "field_invariants"),
    ("number_field.enumerate_reduced_forms", "number_field",
     "enumerate_reduced_forms"),
    ("number_field.continued_fraction_unit", "number_field",
     "continued_fraction_unit"),
    ("weil_cohomology.cohomology_profile", "weil_cohomology",
     "cohomology_profile"),
    ("weil_cohomology.psi_complex", "weil_cohomology", "psi_complex"),
    ("exact_determinant.check_exact", "weil_cohomology", "check_exact"),
    ("exact_determinant.euler_characteristic", "weil_cohomology",
     "euler_characteristic"),
    ("zeta.zeta_star_at_zero", "weil_cohomology", "zeta_star_at_zero"),
    ("number_field.KroneckerCharacter.from_discriminant", "number_field",
     "KroneckerCharacter.from_discriminant"),
    ("zeta.L_at_zero", "zeta", "L_at_zero"),
    ("zeta.L_prime_at_zero", "zeta", "L_prime_at_zero"),
    ("zeta.log_gamma", "zeta", "log_gamma"),
    ("group_cohomology.group_cohomology_q", "group_cohomology",
     "group_cohomology_q"),
    ("group_cohomology.build_homogeneous_complex", "group_cohomology",
     "build_homogeneous_complex"),
    ("group_cohomology.build_inhomogeneous_complex", "group_cohomology",
     "build_inhomogeneous_complex"),
    ("abelian.complex_cohomology", "group_cohomology", "complex_cohomology"),
    ("abelian.CochainComplex.validate_composition", "abelian",
     "CochainComplex.validate_composition"),
    ("abelian.group_from_presentation", "abelian", "group_from_presentation"),
    ("abelian.smith_normal_form", "abelian", "smith_normal_form"),
)
# Work counted where it happens: counter(args, kwargs, result) -> (name, n).
COUNTERS = {
    "number_field.KroneckerCharacter.from_discriminant":
        lambda args, kwargs, chi: ("number_field.character_entries", chi.modulus),
    "abelian.smith_normal_form":
        lambda args, kwargs, snf: ("abelian.snf_entries",
                                   args[0].rows * args[0].cols),
}
SPAN_STATS = (("calls", "count", "lower"), ("busy_s", "s", "lower"),
              ("self_s", "s", "lower"), ("errors", "count", "lower"))
EXTRA_METRICS = (
    ("weil_cohomology.verify_field.p50_ms", "ms", "lower"),
    ("weil_cohomology.verify_field.p90_ms", "ms", "lower"),
    ("number_field.character_entries", "count", "lower"),
    ("abelian.snf_entries", "count", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
)
# Operation counts per pass, where fewer would mean inputs were dropped.
HIGHER_IS_BETTER = {"weil_cohomology.verify_field.calls",
                    "group_cohomology.group_cohomology_q.calls"}


def layer_metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer, _, _ in LAYERS:
        for stat, unit, better in SPAN_STATS:
            name = f"{layer}.{stat}"
            specs.append((name, unit,
                          "higher" if name in HIGHER_IS_BETTER else better))
    return specs + list(EXTRA_METRICS)


def import_program():
    sys.path.insert(0, SRC)
    import zetachi
    if os.path.dirname(os.path.abspath(zetachi.__file__)) != \
            os.path.join(SRC, "zetachi"):
        raise ImportError(f"zetachi imported from {zetachi.__file__}, not {SRC}")


def layer_targets():
    """Resolve LAYERS in the imported program.  A module or class that no
    longer exists leaves its layer for the tracer to report as missing."""
    from tracer import Target
    targets = []
    for name, module, path in LAYERS:
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(f"zetachi.{module}")
        except ImportError:
            owner = None
        for part in owners:
            owner = getattr(owner, part, None)
        targets.append(Target(name, owner, attr, COUNTERS.get(name)))
    return targets


def environment():
    import mpmath
    import mpmath.libmp
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def timed_passes(wl, seconds, min_passes, began, tracer=None):
    """Run passes until `seconds` have gone by and `min_passes` are done,
    never starting one that would overrun the hard budget."""
    passes = []
    t_first = perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(passes)
        start, end, ops, failures = wl.run_pass()
        passes.append({"start": start, "end": end, "ops": ops,
                       "failures": failures})
        now = perf_counter()
        if now - t_first >= seconds and len(passes) >= min_passes:
            break
        if now - began + (end - start) > HARD_BUDGET_S:
            break
    return passes


def ops_per_s(passes):
    return statistics.median(p["ops"] / (p["end"] - p["start"]) for p in passes)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, passes):
    from tracer import layer_stats, parallel_efficiency, percentile, \
        tail_percentile, unattributed
    n = len(passes)
    stats = layer_stats(tracer.spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
    metrics = {}
    for layer, _, _ in LAYERS:
        st = stats.get(layer, zero)
        for stat, _, _ in SPAN_STATS:
            metrics[f"{layer}.{stat}"] = st[stat] / n
    lat = [(s.end - s.start) * 1000.0 for s in tracer.spans
           if s.name == "weil_cohomology.verify_field"]
    metrics["weil_cohomology.verify_field.p50_ms"] = \
        percentile(lat, 50) if lat else 0.0
    metrics["weil_cohomology.verify_field.p90_ms"] = \
        percentile(lat, 90) if lat else 0.0
    for key in ("number_field.character_entries", "abelian.snf_entries"):
        metrics[key] = tracer.counts.get(key, 0) / n
    run_wall = stats.get("cli.run", zero)["busy_s"]
    verify_busy = stats.get("weil_cohomology.verify_field", zero)["busy_s"]
    metrics["cli.parallel_efficiency"] = \
        parallel_efficiency(verify_busy, 1, run_wall)
    windows = [(p["start"], p["end"]) for p in passes]
    metrics["trace.unattributed_s"] = unattributed(windows, tracer.spans) / n
    tail = tail_percentile(len(lat))
    detail = {
        "verify_field_samples": len(lat),
        "verify_field_tail": {"percentile": tail,
                              "ms": percentile(lat, tail) if tail else None},
        "spans": len(tracer.spans),
        "traced_passes": n,
        "missing_layers": tracer.missing,
    }
    return metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    began = perf_counter()

    import_program()
    import workloads
    from tracer import Tracer

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as work:
        wl = workloads.make(args.workload, work)
        if args.setup_only:
            return 0
        wl.warm_up()
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs_sha256": wl.digest,
            "environment": environment(),
        }
        if args.trace == 0:
            passes = timed_passes(wl, args.seconds, 3, began)
            result["ops_per_s"] = ops_per_s(passes)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            plain = timed_passes(wl, args.seconds / 2, 2, began)
            tracer = Tracer()
            tracer.install(layer_targets())
            try:
                traced = timed_passes(wl, args.seconds / 2, 2, began, tracer)
            finally:
                tracer.uninstall()
            metrics, detail = layer_metrics(tracer, traced)
            metrics["trace.overhead_ratio"] = ops_per_s(plain) / ops_per_s(traced)
            passes = plain + traced
            result["layers"] = metrics
            result["trace_detail"] = detail
        failures = [f for p in passes for f in p["failures"]]
        result["passes"] = len(passes)
        result["pass_ops_per_s"] = [p["ops"] / (p["end"] - p["start"])
                                    for p in passes]
        result["attempted"] = sum(p["ops"] for p in passes)
        result["failed"] = len(failures)
        result["failures"] = sorted(set(failures))[:20]
        if args.trace == 1:
            result["layers"]["fail_ratio"] = result["failed"] / result["attempted"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

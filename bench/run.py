"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  It measures the
workload in a process of its own (see measure.py) and, untraced, times
set-up as the median of fresh processes, run before and after it, that
import `zetachi` and build the workload's inputs.  It prints a summary,
one JSON line of detail (seed, input digest, environment, sample counts,
failures) and, as its last line, the result: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics untraced and the per-layer metrics traced.  It exits with 1 when
any output was wrong and with 2, printing no result, when the program's
sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

from measure import layer_metric_specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
WORKLOADS = ("corpus-300", "cochain-testbed")
# Set-up probes run before and after the measurement, so that their median
# spans more than one phase of a shared machine's varying speed.
SETUP_PROBES_EACH_SIDE = 6
RUN_LIMIT_S = 175.0


def _measure_cmd(args, *extra):
    return [sys.executable, MEASURE, "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def time_setup(args, deadline):
    """Wall time of fresh processes that import zetachi and build inputs."""
    samples = []
    for _ in range(SETUP_PROBES_EACH_SIDE):
        t0 = perf_counter()
        subprocess.run(_measure_cmd(args, "--setup-only"), check=True,
                       cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - monotonic()))
        samples.append(perf_counter() - t0)
    return samples


def main(argv=None):
    p = argparse.ArgumentParser(description="zetachi benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "zetachi", "__init__.py")):
        print(f"error: no zetachi sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    try:
        setup = [] if args.trace else time_setup(args, deadline)
        proc = subprocess.run(
            _measure_cmd(args, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()))
        if setup and deadline - monotonic() > 20.0:
            setup += time_setup(args, deadline)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up process failed with status {exc.returncode}",
              file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"error: measurement failed with status {proc.returncode}",
              file=sys.stderr)
        return 2
    m = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": m["layers"][name], "unit": unit}
                   for name, unit, _ in layer_metric_specs()}
    else:
        metrics = {
            "ops_per_s": {"value": m["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    detail = {k: m[k] for k in ("workload", "seed", "inputs_sha256",
                                "environment", "passes", "pass_ops_per_s",
                                "failures")}
    detail["samples"] = {"ops_per_s": m["passes"], "setup_s": len(setup)}
    detail["setup_s_samples"] = setup
    if args.trace:
        detail["trace"] = m["trace_detail"]

    for name, metric in metrics.items():
        print(f"{args.workload:>18} {name:<58} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(json.dumps({"detail": detail}))
    correct = m["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

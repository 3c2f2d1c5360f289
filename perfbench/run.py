"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stat-opt --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the body once untraced and once with the
layer wrappers and a ``repro.telemetry`` session on, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a JSON record of the run (seed, digest, checks).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Setup timings per run: this process plus children (median reported).
SETUP_CHILDREN = 2
#: Calibration probe: CALIB_REPS timings of copying a CALIB_BYTES buffer.
CALIB_BYTES = 32 << 20
CALIB_REPS = 9


def _calibration_s() -> float:
    """Median time to copy a fixed 32 MiB buffer; never touches ``repro``.

    Recorded before set-up and at the end of the run, so two runs can be
    told apart by host speed rather than by the program.  A fresh-memory
    copy tracks host slow phases better than an arithmetic loop: over 20
    pairs on a 2-vCPU Xeon host it correlated 0.68 with the time of six
    c5315 ``run_ssta`` calls, a loop 0.45.  It stays below every
    workload's peak RSS.
    """
    buf = bytearray(CALIB_BYTES)
    times = []
    for _ in range(CALIB_REPS):
        start = time.perf_counter()
        bytes(buf)
        bytes(buf)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _timed_setup(workload: str):
    """Import the program and build one run's inputs; returns (s, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports repro: part of set-up)

    inputs = workloads.build_inputs(workload)
    return time.perf_counter() - start, inputs


def _child_setup_seconds(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_untraced(args, wl, workloads, inputs, setup_s):
    setups = [setup_s] + [_child_setup_seconds(args)
                          for _ in range(SETUP_CHILDREN)]
    walls, outcomes = [], []
    while not walls or sum(walls) < args.seconds:
        if outcomes:  # every repetition starts from freshly built inputs
            inputs = workloads.build_inputs(args.workload)
        start = time.perf_counter()
        result = wl.body(inputs, args.seed)
        walls.append(time.perf_counter() - start)
        outcomes.append(wl.evaluate(result))
    peak = _peak_rss_mb()
    first = outcomes[0]
    # Repetitions must agree bitwise, so the last one's final design
    # (still in ``inputs``) stands for all of them.
    wl.quality(inputs, first, args.seed)
    failed = 0
    for out in outcomes:
        if out.digest != first.digest:
            out.failures.append("repetition digest differs from the first")
        failed += bool(out.failures)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "hc_leakage_uW": _metric(first.values["hc_leakage_uW"], "uW"),
        "mc_yield": _metric(first.values["mc_yield"], "ratio"),
        "ssta_yield_abs_err": _metric(first.values["ssta_yield_abs_err"],
                                      "ratio"),
    }
    record = {"setup_s_all": setups, "wall_s_all": walls,
              "digest": first.digest,
              "failures": [f for o in outcomes for f in o.failures]}
    return len(outcomes), failed, metrics, record


def _run_traced(args, wl, workloads, inputs):
    import traced

    start = time.perf_counter()
    result = wl.body(inputs, args.seed)
    untraced_wall = time.perf_counter() - start
    reference = wl.evaluate(result)
    inputs = workloads.build_inputs(args.workload)
    # ``flow`` labels the optimizer counters; mc-signoff has none.
    layers = traced.run(wl, inputs, args.seed, getattr(wl, "flow", None))
    out = wl.evaluate(layers.result)
    traced_failures = out.failures + layers.failures
    if out.digest != reference.digest:
        traced_failures.append(
            f"traced digest {out.digest} != untraced {reference.digest}"
        )
    failed = bool(reference.failures) + bool(traced_failures)
    metrics = layers.metrics
    metrics["trace.overhead_pct"] = _metric(
        (layers.wall_s / untraced_wall - 1.0) * 100.0, "%"
    )
    record = {"wall_s_untraced": untraced_wall, "wall_s_traced": layers.wall_s,
              "digest": reference.digest, "bindings": layers.bindings,
              "failures": reference.failures + traced_failures}
    return 2, failed, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stat-opt", "det-opt", "mc-signoff"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": _timed_setup(args.workload)[0]}))
        return 0
    calib_before = _calibration_s()
    setup_s, inputs = _timed_setup(args.workload)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics, record = _run_traced(args, wl, workloads,
                                                         inputs)
    else:
        attempted, failed, metrics, record = _run_untraced(
            args, wl, workloads, inputs, setup_s)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "calib_s": [calib_before, _calibration_s()],
              "circuit": workloads.CIRCUITS[args.workload],
              "gates": inputs.circuit.n_gates, **record}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

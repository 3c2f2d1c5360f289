"""The traced run: per-layer metrics and their cross-checks.

The body runs under the layer wrappers of :mod:`layers` and an
in-memory ``repro.telemetry`` session.  Layer figures come from the
wrappers; the program's own counters (``ssta_runs_total``,
``opt_moves_*_total``, ``opt_candidates_total``, ``mc_shards_total``)
come from the session and must agree with them -- a disagreement means a
binding the wrappers missed or a counter that moved, and fails the run.
The engine's move and candidate counts are taken from the strategy calls
it makes per move (``layers.COUNTED``), not from its own pass records,
so they are an independent tally of what ``opt_*_total`` claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import LayerTracer

#: Layers reported as ``<layer>.calls`` and ``<layer>.s`` (self seconds).
CALLS_AND_SECONDS = (
    "timing.graph.nominal_delays",
    "timing.sta.run_sta",
    "timing.incremental.notify",
    "power.statistical.analyze_statistical_leakage",
    "power.leakage.gate_leakage_currents",
)
#: Layers reported as ``<layer>.s`` (self seconds) only.
SECONDS_ONLY = (
    "timing.ssta.gate_delay_canonicals",
    "core.sizing.minimize_delay",
    "core.metrics.snapshot_metrics",
    "timing.mc.TimingKernel.delays",
    "timing.mc.run_monte_carlo_sta",
    "timing.yield_est.estimate_timing_yield",
)


@dataclass
class TracedRun:
    """What one traced body produced."""

    result: object
    wall_s: float
    metrics: Dict[str, dict] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    bindings: Dict[str, List[str]] = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: object, inputs: object, seed: int,
        flow: Optional[str]) -> TracedRun:
    """Run ``workload``'s body once, traced."""
    from repro.telemetry import telemetry_session

    tracer = LayerTracer()
    tracer.install()
    try:
        with telemetry_session() as tele:
            start = time.perf_counter()
            result = workload.body(inputs, seed)
            wall = time.perf_counter() - start
            snap = tele.snapshot()
        bindings = {attr: tracer.bound_names(attr)
                    for attr in ("run_ssta", "run_sta")}
    finally:
        tracer.uninstall()
    out = TracedRun(result=result, wall_s=wall, bindings=bindings)
    _layer_metrics(tracer, snap, out.metrics)
    _cross_check(tracer, snap, flow, out.failures)
    return out


def _engine_totals(tracer: LayerTracer) -> Dict[str, int]:
    counts = tracer.counts
    return {
        "passes": sum(len(records) for records, _ in tracer.engine_runs),
        # One ``move_cost`` call per scored candidate.
        "candidates": counts["move_cost"],
        # Every applied move gets one hook call; a rolled-back one also
        # gets a revert hook call, so the kept moves are the difference.
        "moves_applied": counts["hook_applied"] - counts["hook_reverted"],
        "moves_reverted": counts["hook_reverted"],
    }


def _layer_metrics(tracer: LayerTracer, snap: object,
                   metrics: Dict[str, dict]) -> None:
    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    ssta = tracer.layer("timing.ssta.run_ssta")
    put("timing.ssta.run_ssta.calls", ssta.calls, "count")
    put("timing.ssta.run_ssta.s", ssta.self_s, "s")
    put("timing.ssta.run_ssta.ms_per_call",
        1e3 * _ratio(ssta.total_s, ssta.calls), "ms")
    for layer in CALLS_AND_SECONDS:
        stats = tracer.layer(layer)
        put(f"{layer}.calls", stats.calls, "count")
        put(f"{layer}.s", stats.self_s, "s")
    for layer in SECONDS_ONLY:
        put(f"{layer}.s", tracer.layer(layer).self_s, "s")
    # The leakage MC is reported whole; its self time (less the die
    # sampling and its one nominal ``gate_leakage_currents`` call) is the
    # propagation.
    leak = tracer.layer("power.mc.run_monte_carlo_leakage")
    put("power.mc.run_monte_carlo_leakage.s", leak.total_s, "s")
    put("power.mc.propagate_s", leak.self_s, "s")

    put("core.engine.self_s", tracer.layer("core.engine.run").self_s, "s")
    totals = _engine_totals(tracer)
    for key, value in totals.items():
        put(f"core.engine.{key}", value, "count")
    applied, reverted = totals["moves_applied"], totals["moves_reverted"]
    put("core.engine.apply_ratio", _ratio(applied, applied + reverted), "ratio")
    put("core.engine.is_feasible.calls",
        tracer.layer("core.engine.is_feasible").calls, "count")
    put("core.engine.ssta_per_applied_move", _ratio(ssta.calls, applied),
        "ratio")

    sample = tracer.layer("variation.model.sample")
    put("variation.model.sample.calls", sample.calls, "count")
    put("variation.model.sample.dies", sample.dies, "count")
    put("variation.model.sample.s", sample.self_s, "s")
    put("parallel.runner.shards", snap.value("mc_shards_total"), "count")


def _cross_check(tracer: LayerTracer, snap: object, flow: Optional[str],
                 failures: List[str]) -> None:
    """Wrapper counts must equal the program's own counters."""
    pairs = [("timing.ssta.run_ssta.calls",
              tracer.layer("timing.ssta.run_ssta").calls,
              "ssta_runs_total", {})]
    if flow is not None:
        totals = _engine_totals(tracer)
        pairs += [
            ("core.engine.moves_applied", totals["moves_applied"],
             "opt_moves_applied_total", {"flow": flow}),
            ("core.engine.moves_reverted", totals["moves_reverted"],
             "opt_moves_reverted_total", {"flow": flow}),
            ("core.engine.candidates", totals["candidates"],
             "opt_candidates_total", {"flow": flow}),
        ]
    for name, ours, counter, labels in pairs:
        # RegistrySnapshot.value() reads 0.0 for a label mismatch; get()
        # tells "absent" apart, so a wrong label cannot pass as zero.
        sample = snap.get(counter, **labels)
        theirs = sample.value if sample is not None else None
        if ours and theirs is None:
            failures.append(f"counter {counter}{labels} absent, {name}={ours}")
        elif theirs is not None and ours != theirs:
            failures.append(f"{name}={ours} but {counter}{labels}={theirs}")

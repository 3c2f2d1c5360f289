"""P2 — profile-guided performance lint (RPR9xx) closing its own loop.

The experiment replays the pass's whole adoption workflow end to end:

1. run a traced Monte-Carlo STA, SSTA and deterministic optimization on
   c432 (the telemetry JSONL trace the ``--profile`` flag consumes; the
   optimizer's ``opt.*`` spans reach the sizing and power-model loops
   that remain on the worklist);
2. run the perf pass over the installed package with that profile and
   assert the worklist ranks by measured seconds, carries at least the
   triage floor of findings, and that the pass's former #1 finding —
   the per-gate arrival loop in ``repro/timing/mc.py`` — no longer
   fires (it was vectorized into the levelized ``LevelSchedule`` pass);
3. time the historical scalar propagation against the vectorized one on
   the same sampled dies, assert bitwise-identical delays, and record
   the measured speedup.

The run record lands as ``results/exp19_perf_lint.txt`` (worklist head
plus the before/after timing) and ``results/exp19_perf_lint.json``
(finding counts by rule, top-ranked findings with weights, propagation
seconds, speedup).
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np
from _harness import bench_jobs, report, report_json, run_once

import repro
from repro.analysis import format_table, prepare
from repro.core import OptimizerConfig, optimize_deterministic
from repro.lint import LintContext, LintOptions, SpanProfile, run_lint
from repro.telemetry import telemetry_session
from repro.timing import run_monte_carlo_sta, run_ssta
from repro.timing.graph import TimingView
from repro.timing.mc import LevelSchedule, _propagate_delays, draw_samples

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BENCH = "c432"
MC_SAMPLES = 2000
TIMING_SAMPLES = 4000
SEED = 19

#: The fixed #1 finding: no RPR9xx may name this function again.
FIXED_SITE = "_propagate_delays"


def scalar_propagate(samples, nominal, sens_l, sens_v, fanin_gates, po):
    """The per-gate loop the pass flagged, kept here as the 'before'."""
    x = sens_l * samples.delta_l + sens_v * samples.delta_vth
    gate_delays = nominal * (1.0 + x + 0.5 * x * x)
    arrivals = np.empty_like(gate_delays)
    for i in range(nominal.shape[0]):
        fanins = fanin_gates[i]
        if fanins.size:
            worst = arrivals[:, fanins].max(axis=1)
            arrivals[:, i] = worst + gate_delays[:, i]
        else:
            arrivals[:, i] = gate_delays[:, i]
    return arrivals[:, po].max(axis=1)


def traced_mc(setup, trace_path):
    # MC populates the mc.* spans and SSTA populates ssta.run — the same
    # workload mix the CI perf-lint job traces.  The deterministic
    # optimizer populates the opt.* spans, through which the sizing and
    # power-model loops still on the worklist are hot.
    with telemetry_session(path=trace_path):
        result = run_monte_carlo_sta(
            setup.circuit, setup.varmodel, n_samples=MC_SAMPLES, seed=SEED,
            n_jobs=bench_jobs(), keep_samples=False,
        )
        run_ssta(setup.circuit, setup.varmodel)
        fresh = prepare(BENCH)  # the optimizer rewrites its circuit
        optimize_deterministic(
            fresh.circuit, fresh.spec, fresh.varmodel,
            config=OptimizerConfig(n_jobs=bench_jobs()),
        )
    return result


def profiled_lint(trace_path):
    return run_lint(
        LintContext(
            source_root=Path(repro.__file__).parent,
            options=LintOptions(profile=SpanProfile.load(trace_path)),
        ),
        passes=("perf",),
    )


def time_propagation(setup):
    view = TimingView(setup.circuit)
    samples = draw_samples(
        setup.varmodel, TIMING_SAMPLES, seed=SEED,
        relative_area=view.rdf_relative_area(),
    )
    nominal = view.nominal_delays()
    vths = view.vths()
    sens_l = np.array(
        [view.library.drive_model(v).d_lnr_d_deltal for v in vths]
    )
    sens_v = np.array(
        [view.library.drive_model(v).d_lnr_d_deltavth for v in vths]
    )
    fanin_gates = tuple(view.fanin_gates)
    po = view.primary_output_indices()
    schedule = LevelSchedule.build(fanin_gates)

    t0 = time.perf_counter()
    slow = scalar_propagate(samples, nominal, sens_l, sens_v, fanin_gates, po)
    t1 = time.perf_counter()
    fast = _propagate_delays(samples, nominal, sens_l, sens_v, schedule, po)
    t2 = time.perf_counter()
    assert np.array_equal(slow, fast), "vectorized propagation drifted"
    return {
        "scalar_seconds": t1 - t0,
        "vectorized_seconds": t2 - t1,
        "speedup": (t1 - t0) / max(t2 - t1, 1e-12),
        "bitwise_identical": True,
    }


def run_experiment():
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = RESULTS_DIR / "exp19_trace.jsonl"
    setup = prepare(BENCH)
    mc = traced_mc(setup, trace_path)
    rep = profiled_lint(trace_path)
    timing = time_propagation(setup)
    return {"mc": mc, "report": rep, "timing": timing}


def bench_exp19_perf_lint(benchmark):
    out = run_once(benchmark, run_experiment)
    rep, timing = out["report"], out["timing"]
    findings = list(rep.findings)

    # The pass still earns its keep: a real worklist on the hot paths...
    assert len(findings) >= 8, "perf pass lost its self-lint worklist"
    # ... and its fixed #1 finding stays fixed.
    refired = [f for f in findings if FIXED_SITE in f.message]
    assert not refired, f"vectorized site fired again: {refired}"

    # Active (unsuppressed) findings rank by measured seconds within
    # severity — the profile turned the report into a worklist.
    active = [f for f in findings if not f.suppressed]
    weights = [f.weight for f in active if f.severity.value == "warning"]
    assert weights == sorted(weights, reverse=True)
    assert any(w > 0.0 for w in weights), "trace attributed no seconds"

    # The vectorized pass beats the loop it replaced, bit for bit.
    assert timing["bitwise_identical"]
    assert timing["speedup"] > 1.0

    by_code = Counter(f.code for f in findings)
    head = [
        [f.code, f"{f.weight:.3f}", (f.location or "")[:40]]
        for f in active[:8]
    ]
    table = format_table(
        ["code", "seconds", "location"], head,
        title=f"perf-lint worklist head ({BENCH} trace, {MC_SAMPLES} dies)",
    )
    timing_text = (
        f"propagation ({BENCH}, {TIMING_SAMPLES} dies): "
        f"scalar {timing['scalar_seconds']:.3f}s -> "
        f"vectorized {timing['vectorized_seconds']:.3f}s "
        f"({timing['speedup']:.1f}x, bitwise identical)"
    )
    report("exp19_perf_lint", table + "\n\n" + timing_text)
    report_json("exp19_perf_lint", {
        "benchmark": BENCH,
        "mc_samples": MC_SAMPLES,
        "timing_samples": TIMING_SAMPLES,
        "mc_mean_delay": out["mc"].mean,
        "findings_total": len(findings),
        "findings_by_code": dict(sorted(by_code.items())),
        "fixed_site": FIXED_SITE,
        "fixed_site_refired": False,
        "worklist_head": [
            {"code": f.code, "weight": f.weight, "location": f.location}
            for f in active[:8]
        ],
        "propagation": timing,
    })

"""Pipeline-yield workload: K sequential stages, one clock.

A pipelined design runs every stage against the same clock period, so
the period-limiting quantity is the *max over stages* of the per-stage
combinational delays — and process variation correlates the stages:
inter-die factors (the first :data:`SHARED_GLOBALS` columns of every
stage's variation model — inter-die L and Vth by the documented layout)
shift all stages together, while spatial PCs and gate-local randomness
are stage-private.  The stage max therefore sits between the fully-
correlated bound (max of means) and the independent bound (product of
CDFs), and the gap between those bounds is exactly what makes pipeline
yield imbalance-aware: a balanced pipeline loses more yield to the max
than its worst stage alone predicts.

Each registered engine supplies its native machinery for the stage
combination: ``clark`` embeds the per-stage canonicals into a union
factor space (shared inter-die dims first, then each stage's local
block) and folds them through Clark max; ``histogram`` re-runs every
stage on one shared lattice and folds the remainder pmfs through the
exact lattice max with the same union-space sensitivity blending;
``mc`` samples all stages with common inter-die random numbers and
takes the elementwise max.  Stage criticality — P(stage k limits the
period) — falls out of each fold's tightness shares (or the argmax
counts for MC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import EngineError
from ..telemetry import get_telemetry
from ..timing.canonical import Canonical
from ..timing.graph import TimingConfig, TimingView
from ..timing.mc import TimingKernel
from ..timing.ssta import run_ssta
from ..variation.model import VariationModel
from .base import (
    DelayDistribution,
    EmpiricalDelay,
    GaussianDelay,
)
from .histogram import (
    DEFAULT_BINS,
    SIGMA_SPAN,
    _gaussian_lattice_pmf,
    _max_state,
    finish_state,
    lattice_upper_bound,
    propagate_lattice,
    validate_bins,
)

#: Leading variation-model columns shared by every stage of one die
#: (inter-die L and inter-die Vth, per the documented loading layout).
SHARED_GLOBALS = 2


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a combinational block plus its variation."""

    name: str
    circuit: Circuit
    varmodel: VariationModel


@dataclass(frozen=True)
class StageSummary:
    """Per-stage delay statistics under the chosen engine."""

    name: str
    mean: float
    sigma: float


@dataclass(frozen=True)
class PipelineResult:
    """Clock-period distribution of a K-stage pipeline."""

    engine: str
    stages: Tuple[StageSummary, ...]
    #: P(stage k attains the period-limiting max).
    stage_criticality: Tuple[float, ...]
    period: DelayDistribution

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_imbalance(self) -> float:
        """Worst stage mean over average stage mean (1.0 = balanced)."""
        means = [s.mean for s in self.stages]
        avg = sum(means) / len(means)
        if avg == 0.0:  # lint: ignore[RPR402] exact zero guards the all-zero-mean degenerate ratio
            return 1.0
        return max(means) / avg

    def yield_at(self, period: float) -> float:
        """P(every stage meets the clock period)."""
        if period <= 0:
            raise EngineError(f"clock period must be positive, got {period}")
        return self.period.cdf(period)

    def period_at_yield(self, eta: float) -> float:
        """The clock period met with probability ``eta``."""
        if not 0.0 < eta < 1.0:
            raise EngineError(f"yield must be in (0,1), got {eta}")
        return self.period.quantile(eta)


def _check_stages(stages: Sequence[PipelineStage]) -> None:
    if not stages:
        raise EngineError("pipeline needs at least one stage")
    for stage in stages:
        if stage.varmodel.n_globals < SHARED_GLOBALS:
            raise EngineError(
                f"stage {stage.name!r} variation model has "
                f"{stage.varmodel.n_globals} global factors; pipeline "
                f"correlation needs at least {SHARED_GLOBALS}"
            )


def _union_offsets(stages: Sequence[PipelineStage]) -> Tuple[List[int], int]:
    """Start offset of each stage's local block in the union space."""
    offsets: List[int] = []
    cursor = SHARED_GLOBALS
    for stage in stages:
        offsets.append(cursor)
        cursor += stage.varmodel.n_globals - SHARED_GLOBALS
    return offsets, cursor


def _embed_sens(
    sens: np.ndarray, offset: int, total: int
) -> np.ndarray:
    """Lift a stage sensitivity vector into the union factor space."""
    out = np.zeros(total)
    out[:SHARED_GLOBALS] = sens[:SHARED_GLOBALS]
    n_local = sens.size - SHARED_GLOBALS
    out[offset : offset + n_local] = sens[SHARED_GLOBALS:]
    return out


def _fold_shares(n: int) -> np.ndarray:
    return np.ones(n)


def _clark_pipeline(
    stages: Sequence[PipelineStage],
    config: Optional[TimingConfig],
) -> Tuple[Tuple[StageSummary, ...], Tuple[float, ...], DelayDistribution]:
    offsets, total = _union_offsets(stages)
    embedded: List[Canonical] = []
    summaries: List[StageSummary] = []
    for stage, offset in zip(stages, offsets):
        delay = run_ssta(stage.circuit, stage.varmodel, config).circuit_delay
        embedded.append(
            Canonical(
                delay.mean,
                _embed_sens(delay.sens, offset, total),
                delay.indep,
            )
        )
        summaries.append(
            StageSummary(name=stage.name, mean=delay.mean, sigma=delay.sigma)
        )
    shares = _fold_shares(len(embedded))
    acc = embedded[0]
    for k in range(1, len(embedded)):
        acc, tightness = acc.maximum_with_tightness(embedded[k])
        shares[:k] *= tightness
        shares[k] = 1.0 - tightness
    return tuple(summaries), tuple(float(s) for s in shares), GaussianDelay(acc)


def _histogram_pipeline(
    stages: Sequence[PipelineStage],
    config: Optional[TimingConfig],
    bins: int,
) -> Tuple[Tuple[StageSummary, ...], Tuple[float, ...], DelayDistribution]:
    # Stage-local randomness (spatial PCs beyond the shared inter-die
    # columns) is independent across stages, so it must participate in
    # the stage max: fold each stage's local-sensitivity Gaussian into
    # its remainder pmf first, keep only the shared inter-die part
    # analytic, and max the widened remainders on one common extended
    # lattice.  Treating the locals as max-transparent (the single-
    # circuit shortcut, where node sensitivities are nearly collinear)
    # would overestimate pipeline yield.
    views = [TimingView(s.circuit, config) for s in stages]
    grid_ub = max(
        lattice_upper_bound(view, stage.varmodel)
        for view, stage in zip(views, stages)
    )
    widened: List[Tuple[np.ndarray, np.ndarray, int]] = []
    summaries: List[StageSummary] = []
    w = 1.0
    for stage, view in zip(stages, views):
        lattice = propagate_lattice(
            view, stage.varmodel, bins, grid_ub=grid_ub
        )
        w = lattice.bin_width
        sens, pmf = lattice.circuit_state
        shared = sens[:SHARED_GLOBALS]
        g_local = float(np.sqrt(sens[SHARED_GLOBALS:] @ sens[SHARED_GLOBALS:]))
        if g_local == 0.0:  # lint: ignore[RPR402] exact zero means no local part to widen with
            widened.append((shared, pmf, 0))
        else:
            half = int(math.ceil(SIGMA_SPAN * g_local / w)) + 1
            gauss = _gaussian_lattice_pmf(
                0.0, g_local, w, 2 * half + 1, k0=-half
            )
            wpmf = np.convolve(pmf, gauss)
            widened.append((shared, wpmf / wpmf.sum(), half))
        dist = finish_state(lattice.circuit_state, w)
        summaries.append(
            StageSummary(name=stage.name, mean=dist.mean, sigma=dist.sigma)
        )
    # Align every widened remainder on one extended lattice with offset
    # -half_max so the pairwise max sees commensurate grids.
    half_max = max(half for _, _, half in widened)
    length = max(pmf.size + (half_max - half) for _, pmf, half in widened)
    states: List[Tuple[np.ndarray, np.ndarray]] = []
    for shared, pmf, half in widened:
        ext = np.zeros(length)
        ext[half_max - half : half_max - half + pmf.size] = pmf
        states.append((shared, ext))
    shares = _fold_shares(len(states))
    acc = states[0]
    for k in range(1, len(states)):
        acc, tightness = _max_state(acc, states[k])
        shares[:k] *= tightness
        shares[k] = 1.0 - tightness
    return (
        tuple(summaries),
        tuple(float(s) for s in shares),
        finish_state(acc, w, k0=-half_max),
    )


def _stage_normals(
    stage: PipelineStage,
    n_samples: int,
    shared: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assemble one stage's normal block with the shared inter-die draws."""
    model = stage.varmodel
    normals = np.empty((n_samples, model.n_normals))
    normals[:, :SHARED_GLOBALS] = shared
    normals[:, SHARED_GLOBALS:] = rng.standard_normal(
        (n_samples, model.n_normals - SHARED_GLOBALS)
    )
    return normals


def _mc_pipeline(
    stages: Sequence[PipelineStage],
    config: Optional[TimingConfig],
    n_samples: int,
    seed: int,
) -> Tuple[Tuple[StageSummary, ...], Tuple[float, ...], DelayDistribution]:
    # One SeedSequence child per stage plus one for the shared inter-die
    # factors: every stage sees the same die-level shift (common random
    # numbers), stage-local randomness stays independent, and the whole
    # draw is deterministic per seed.
    roots = np.random.SeedSequence(seed).spawn(len(stages) + 1)
    shared = np.random.default_rng(roots[0]).standard_normal(
        (n_samples, SHARED_GLOBALS)
    )
    stage_delays = np.empty((len(stages), n_samples))
    summaries: List[StageSummary] = []
    for k, stage in enumerate(stages):
        view = TimingView(stage.circuit, config)
        kernel = TimingKernel.from_view(view)
        rng = np.random.default_rng(roots[k + 1])
        normals = _stage_normals(stage, n_samples, shared, rng)
        delays = kernel.delays(
            stage.varmodel.sample_from_normals(normals, kernel.relative_area)
        )
        stage_delays[k] = delays
        summaries.append(
            StageSummary(
                name=stage.name,
                mean=float(delays.mean()),
                sigma=(
                    float(delays.std(ddof=1)) if n_samples > 1 else 0.0
                ),
            )
        )
    limiting = np.argmax(stage_delays, axis=0)  # first-wins on ties
    shares = tuple(
        float(np.count_nonzero(limiting == k) / n_samples)
        for k in range(len(stages))
    )
    period = EmpiricalDelay.from_samples(stage_delays.max(axis=0))
    return tuple(summaries), shares, period


def analyze_pipeline(
    stages: Sequence[PipelineStage],
    engine: str = "clark",
    config: Optional[TimingConfig] = None,
    **params: object,
) -> PipelineResult:
    """Clock-period distribution of a K-stage pipeline under one engine.

    ``engine`` picks the backend machinery (``clark``, ``histogram``,
    ``mc``); backend knobs pass through ``params`` — ``bins`` for the
    histogram fold, ``n_samples``/``seed`` for the MC fold.  Unknown
    engines and unknown params raise :class:`~repro.errors.EngineError`.
    """
    _check_stages(stages)
    stages = tuple(stages)
    tele = get_telemetry()
    with tele.span("engine.pipeline.run", stages=len(stages), engine=engine):
        if engine == "clark":
            _reject_params(engine, params, ())
            summaries, shares, period = _clark_pipeline(stages, config)
        elif engine == "histogram":
            _reject_params(engine, params, ("bins",))
            bins = validate_bins(params.get("bins", DEFAULT_BINS))
            summaries, shares, period = _histogram_pipeline(
                stages, config, bins
            )
        elif engine == "mc":
            _reject_params(engine, params, ("n_samples", "seed"))
            n_samples = params.get("n_samples", 4000)
            seed = params.get("seed", 0)
            if isinstance(n_samples, bool) or not isinstance(n_samples, int) \
                    or n_samples < 1:
                raise EngineError(
                    f"n_samples must be a positive integer, got {n_samples!r}"
                )
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise EngineError(
                    f"seed must be a non-negative integer, got {seed!r}"
                )
            summaries, shares, period = _mc_pipeline(
                stages, config, n_samples, seed
            )
        else:
            from . import ENGINE_NAMES

            raise EngineError(
                f"unknown engine {engine!r}; choose from "
                f"{', '.join(ENGINE_NAMES)}"
            )
    # Guard against tightness-share drift: the shares are probabilities
    # of mutually-exclusive "stage k wins" events and must stay a
    # near-partition; renormalization here would hide a backend bug.
    total = sum(shares)
    if not math.isfinite(total) or not 0.5 <= total <= 1.5:
        raise EngineError(
            f"stage criticalities sum to {total}; backend fold is broken"
        )
    return PipelineResult(
        engine=engine,
        stages=summaries,
        stage_criticality=shares,
        period=period,
    )


def _reject_params(
    engine: str, params: object, accepted: Tuple[str, ...]
) -> None:
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise EngineError(
            f"pipeline engine {engine!r} does not accept "
            f"{', '.join(repr(p) for p in unknown)}; accepted: "
            f"{', '.join(repr(p) for p in accepted) or 'none'}"
        )

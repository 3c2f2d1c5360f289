"""Timing-yield utilities.

Thin, well-named wrappers around the SSTA canonical form and MC samples so
experiment code reads like the paper: "yield at T", "T for 95% yield",
"yield curve".  :func:`mc_timing_yield` is the sampled golden reference:
it runs the sharded Monte-Carlo engine (bitwise deterministic for any
``n_jobs``) and reports the empirical yield with its binomial confidence
interval, so analytic estimates can be checked against sampling noise
rather than against a bare point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..errors import TimingError
from .canonical import Canonical

if TYPE_CHECKING:
    from ..circuit.netlist import Circuit
    from ..mcstat import YieldEstimate
    from ..variation.model import VariationModel
    from .graph import TimingConfig, TimingView


def timing_yield(circuit_delay: Canonical, target_delay: float) -> float:
    """P(delay <= target) under the canonical (Gaussian) delay model."""
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    return circuit_delay.cdf(target_delay)


def target_for_yield(circuit_delay: Canonical, eta: float) -> float:
    """The tightest target delay still met with probability ``eta``."""
    if not 0.0 < eta < 1.0:
        raise TimingError(f"yield must be in (0,1), got {eta}")
    return circuit_delay.percentile(eta)


def yield_curve(
    circuit_delay: Canonical, targets: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Yield at each target — the CDF series for the validation figure."""
    targets_arr = np.asarray(list(targets), dtype=float)
    if targets_arr.size == 0:
        raise TimingError("empty target list")
    yields = np.array([circuit_delay.cdf(float(t)) for t in targets_arr])
    return targets_arr, yields


@dataclass(frozen=True)
class MCYieldEstimate:
    """Empirical timing yield with its binomial sampling uncertainty."""

    timing_yield: float
    n_samples: int
    target_delay: float

    @property
    def std_error(self) -> float:
        """Binomial standard error ``sqrt(y(1-y)/N)`` of the estimate.

        A degenerate estimate over zero dies has no sampling noise to
        report; returning 0.0 keeps the confidence interval collapsed
        on the point value instead of propagating a division by zero.
        """
        y = self.timing_yield
        if self.n_samples < 1:
            return 0.0
        return math.sqrt(max(y * (1.0 - y), 0.0) / self.n_samples)

    def confidence_interval(self, z: float = 3.0) -> Tuple[float, float]:
        """``z``-sigma binomial interval, clamped to [0, 1]."""
        half = z * self.std_error
        return (
            max(0.0, self.timing_yield - half),
            min(1.0, self.timing_yield + half),
        )

    def agrees_with(self, analytic_yield: float, z: float = 3.0) -> bool:
        """Does an analytic estimate fall inside the ``z``-sigma interval?

        Degenerate empirical yields (exactly 0 or 1) have zero binomial
        width; a tiny one-count floor keeps the check meaningful there.
        """
        half = z * max(self.std_error, 1.0 / max(self.n_samples, 1))
        return abs(analytic_yield - self.timing_yield) <= half


def degenerate_cdf(point: float, target: float) -> float:
    """CDF of a zero-variance (point-mass) delay: a unit step.

    The histogram backend collapses to a single lattice bin when a
    distribution carries no variance (empty sensitivity, one support
    point); the yield at any target is then exactly 0 or 1 — never the
    NaN a ``0/0`` sigma normalization would produce.
    """
    return 1.0 if target >= point else 0.0


def degenerate_quantile(point: float, q: float) -> float:
    """Quantile of a point-mass delay: the point itself for any ``q``."""
    if not 0.0 < q < 1.0:
        raise TimingError(f"quantile must be in (0,1), got {q}")
    return point


def mc_timing_yield(
    circuit_or_view: "Circuit | TimingView",
    varmodel: "VariationModel",
    target_delay: float,
    n_samples: int = 4000,
    seed: int = 0,
    n_jobs: int = 1,
    config: "Optional[TimingConfig]" = None,
) -> MCYieldEstimate:
    """Monte-Carlo timing yield on the sharded execution layer.

    Runs in the cheap ``keep_samples=False`` mode — only per-die scalar
    delays and streaming moments cross worker boundaries — and is bitwise
    deterministic for any ``n_jobs`` at a fixed seed.
    """
    from .mc import run_monte_carlo_sta

    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    mc = run_monte_carlo_sta(
        circuit_or_view,
        varmodel,
        n_samples=n_samples,
        seed=seed,
        config=config,
        n_jobs=n_jobs,
        keep_samples=False,
    )
    return MCYieldEstimate(
        timing_yield=mc.timing_yield(target_delay),
        n_samples=n_samples,
        target_delay=target_delay,
    )


def estimate_timing_yield(
    circuit_or_view: "Circuit | TimingView",
    varmodel: "VariationModel",
    target_delay: float,
    n_samples: int = 4000,
    seed: int = 0,
    n_jobs: int = 1,
    estimator: str = "plain",
    config: "Optional[TimingConfig]" = None,
    shard_size: Optional[int] = None,
) -> "YieldEstimate":
    """Timing yield through a pluggable variance-reduced estimator.

    The generalization of :func:`mc_timing_yield`: ``estimator`` picks
    one of the registered strategies (``plain``, ``isle``, ``sobol``,
    ``cv`` — see :mod:`repro.mcstat`), the moment-hungry ones get the
    SSTA canonical circuit delay automatically, and every strategy runs
    on the sharded layer, bitwise deterministic for any ``n_jobs``.
    ``estimator="plain"`` reproduces :func:`mc_timing_yield`'s yield
    exactly (same dies, same counts).  ``shard_size`` overrides the
    adaptive plan — mostly for tests and for controlling the Sobol
    replicate count (one replicate per shard).
    """
    from ..mcstat import DelayMoments, EstimatorContext, get_estimator
    from ..parallel import SampleShardPlan, run_sharded
    from .graph import TimingView
    from .mc import TimingKernel
    from .ssta import run_ssta

    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    est = get_estimator(estimator)
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    if varmodel.n_gates != view.n_gates:
        raise TimingError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {view.n_gates}"
        )
    moments = None
    if est.needs_moments:
        delay = run_ssta(view, varmodel).circuit_delay
        moments = DelayMoments(
            mean=delay.mean,
            global_sens=np.asarray(delay.sens, dtype=float),
            indep_sigma=delay.indep,
        )
    ctx = EstimatorContext(
        varmodel=varmodel,
        kernel=TimingKernel.from_view(view),
        target_delay=target_delay,
        n_samples=n_samples,
        moments=moments,
    )
    size = shard_size if shard_size is not None else est.plan_shard_size(n_samples)
    plan = SampleShardPlan.build(n_samples, seed, shard_size=size)
    states = run_sharded(
        est.make_shard_task(ctx), plan, n_jobs=n_jobs, workload="yield"
    )
    return est.finalize(states, ctx)


def empirical_yield_curve(
    delays: np.ndarray, targets: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of Monte-Carlo circuit delays at each target."""
    targets_arr = np.asarray(list(targets), dtype=float)
    if targets_arr.size == 0:
        raise TimingError("empty target list")
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise TimingError("empty delay sample set")
    yields = np.array([(delays <= t).mean() for t in targets_arr])
    return targets_arr, yields

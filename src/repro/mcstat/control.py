"""Control-variate yield estimator built on the SSTA analytic moments.

The SSTA canonical form hands us a correlated quantity whose expectation
we know *exactly*: the conditional pass probability given the global
factors, ``g(z) = Phi((T - mean - gs . z) / indep_sigma)``, with
``E[g] = Phi((T - mean) / sigma_total)`` — the analytic SSTA yield.
Regressing the MC pass indicator ``f`` on ``g`` over the same dies and
subtracting ``beta * (g_bar - E[g])`` removes the variance ``f`` shares
with the global factors; what remains is only the part of the yield
SSTA's linear-Gaussian picture *cannot* explain (Clark-max curvature,
reconvergence).  On circuits where global variation dominates, ``f`` and
``g`` are nearly collinear and the variance reduction is dramatic.

The estimator samples the exact plain-MC dies (same draw path, same
streams) and its shard state is five mergeable sums, so the regression
coefficient is computed once, in shard-index order, from globally pooled
moments — identical on any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .base import (
    DelayMoments,
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    binomial_equivalent_n,
    require_states,
)


@dataclass(frozen=True)
class ControlVariateShardState:
    """One shard's joint (f, g) moment sums (all merge by addition)."""

    n: int
    sum_f: float
    sum_g: float
    sum_fg: float
    sum_gg: float


@dataclass(frozen=True)
class _ControlVariateShardTask:
    """Picklable per-shard control-variate kernel."""

    varmodel: VariationModel
    kernel: Any
    target_delay: float
    moments: DelayMoments

    def __call__(self, shard: SampleShard) -> ControlVariateShardState:
        samples = self.varmodel.sample(
            shard.n_samples, shard.rng(), self.kernel.relative_area
        )
        delays = self.kernel.delays(samples)
        f = (delays <= self.target_delay).astype(float)
        g = self.moments.conditional_yield(samples.z, self.target_delay)
        return ControlVariateShardState(
            n=shard.n_samples,
            sum_f=float(f.sum()),
            sum_g=float(g.sum()),
            sum_fg=float((f * g).sum()),
            sum_gg=float((g * g).sum()),
        )


class ControlVariateEstimator(YieldEstimator):
    """Regression-adjusted MC with the SSTA conditional yield as control."""

    name = "cv"
    needs_moments = True

    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], ControlVariateShardState]:
        return _ControlVariateShardTask(
            varmodel=ctx.varmodel,
            kernel=ctx.kernel,
            target_delay=ctx.target_delay,
            moments=self.require_moments(ctx),
        )

    def finalize(
        self, states: Sequence[ControlVariateShardState], ctx: EstimatorContext
    ) -> YieldEstimate:
        require_states(states, self.name)
        moments = self.require_moments(ctx)
        n = sum(s.n for s in states)
        sum_f = sum(s.sum_f for s in states)
        sum_g = sum(s.sum_g for s in states)
        sum_fg = sum(s.sum_fg for s in states)
        sum_gg = sum(s.sum_gg for s in states)
        f_bar = sum_f / n
        g_bar = sum_g / n
        # Pooled centered second moments (f is binary, so Sff uses sum_f).
        s_fg = sum_fg - n * f_bar * g_bar
        s_gg = sum_gg - n * g_bar * g_bar
        s_ff = sum_f - n * f_bar * f_bar
        if n >= 2 and s_gg > 0.0:
            beta = s_fg / s_gg
            y = f_bar - beta * (g_bar - moments.analytic_yield(ctx.target_delay))
            residual_ss = max(s_ff - beta * s_fg, 0.0)
            std_error = math.sqrt(residual_ss / ((n - 1) * n))
        else:
            # Degenerate control (constant g, or a single die): fall back
            # to the unadjusted frequency with its binomial error.
            y = f_bar
            std_error = math.sqrt(max(f_bar * (1.0 - f_bar), 0.0) / n)
        y = min(1.0, max(0.0, y))
        return YieldEstimate(
            estimator=self.name,
            timing_yield=y,
            std_error=std_error,
            n_samples=n,
            n_effective=binomial_equivalent_n(y, std_error, n),
            target_delay=ctx.target_delay,
        )

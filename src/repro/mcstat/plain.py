"""Plain Monte-Carlo yield estimator: the crude pass frequency.

Each shard draws its dies through
:meth:`~repro.variation.model.VariationModel.sample` on its own
``SeedSequence`` child stream and reduces to an integer pass count.
Integer counts sum exactly, in any order, on any worker count, so the
merged yield is the same fraction
:meth:`repro.timing.mc.MCTimingResult.timing_yield` reads off the same
dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .base import (
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    require_states,
)


@dataclass(frozen=True)
class PlainShardState:
    """One shard's reduction: die count and pass count."""

    n: int
    n_pass: int


@dataclass(frozen=True)
class _PlainShardTask:
    """Picklable per-shard plain-MC kernel."""

    varmodel: VariationModel
    kernel: Any
    target_delay: float

    def __call__(self, shard: SampleShard) -> PlainShardState:
        delays = self.kernel.delays(
            self.varmodel.sample(
                shard.n_samples, shard.rng(), self.kernel.relative_area
            )
        )
        return PlainShardState(
            n=shard.n_samples,
            n_pass=int((delays <= self.target_delay).sum()),
        )


class PlainEstimator(YieldEstimator):
    """Crude frequency estimate with the exact binomial standard error."""

    name = "plain"
    needs_moments = False

    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], PlainShardState]:
        return _PlainShardTask(
            varmodel=ctx.varmodel,
            kernel=ctx.kernel,
            target_delay=ctx.target_delay,
        )

    def finalize(
        self, states: Sequence[PlainShardState], ctx: EstimatorContext
    ) -> YieldEstimate:
        require_states(states, self.name)
        n = sum(s.n for s in states)
        n_pass = sum(s.n_pass for s in states)
        return YieldEstimate.binomial(n_pass / n, n, ctx.target_delay)

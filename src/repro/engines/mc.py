"""Monte-Carlo engine: sampled timing as a first-class backend.

Promotes the sharded MC machinery of :mod:`repro.timing.mc` from a
validation side path to a peer of the analytic engines: the same
``analyze`` call, but the answer is an :class:`EmpiricalDelay` whose
every quantile and CDF query can carry its sampling confidence interval
(binomial for yields, order-statistic for quantiles).  Endpoint
distributions come from the per-output arrival matrix the propagation
kernel already computes — the circuit delays are its exact column max,
so this engine's yields are bitwise identical to
:func:`~repro.timing.mc.run_monte_carlo_sta` at the same seed and
sample count, for any ``n_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import EngineError
from ..parallel import SampleShardPlan, adaptive_shard_size, run_sharded
from ..parallel.plan import SampleShard
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.mc import TimingKernel
from ..variation.model import VariationModel
from .base import (
    EmpiricalDelay,
    TimingEngine,
    TimingResult,
    summarize_endpoint,
)


def _validate_count(name: str, value: object, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EngineError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise EngineError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class _EndpointShardTask:
    """Picklable per-shard task: draw dies, keep the endpoint matrix."""

    varmodel: VariationModel
    kernel: TimingKernel

    def __call__(self, shard: SampleShard) -> np.ndarray:
        samples = self.varmodel.sample(
            shard.n_samples, shard.rng(), self.kernel.relative_area
        )
        return self.kernel.endpoint_delays(samples)


class MCEngine(TimingEngine):
    """Sharded Monte-Carlo timing with CI-carrying empirical answers."""

    name = "mc"
    accepted_params = ("n_samples", "seed", "n_jobs")

    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Sample dies and report empirical max-delay + endpoint stats.

        ``n_samples`` (default 4000) and ``seed`` (default 0) pin the
        die population; ``n_jobs`` shards the draw over workers with the
        usual bitwise ``n_jobs``-invariance (per-shard ``SeedSequence``
        streams, shard-order concatenation).
        """
        self._check_params(params)
        n_samples = _validate_count(
            "n_samples", params.get("n_samples", 4000), 1
        )
        seed = _validate_count("seed", params.get("seed", 0), 0)
        n_jobs = _validate_count("n_jobs", params.get("n_jobs", 1), 0)
        view = self._view_of(circuit_or_view, config)
        if varmodel.n_gates != view.n_gates:
            raise EngineError(
                f"variation model covers {varmodel.n_gates} gates, "
                f"circuit has {view.n_gates}"
            )
        tele = get_telemetry()
        with tele.span(
            "engine.mc.run", gates=view.n_gates, samples=n_samples
        ):
            kernel = TimingKernel.from_view(view)
            plan = SampleShardPlan.build(
                n_samples, seed, shard_size=adaptive_shard_size(n_samples)
            )
            task = _EndpointShardTask(varmodel=varmodel, kernel=kernel)
            matrices = run_sharded(task, plan, n_jobs=n_jobs, workload="endpoints")
            endpoint_delays = np.concatenate(matrices, axis=1)
            circuit_delays = endpoint_delays.max(axis=0)
            endpoints = tuple(
                summarize_endpoint(
                    int(gate), EmpiricalDelay.from_samples(row)
                )
                for gate, row in zip(kernel.po, endpoint_delays)
            )
        return TimingResult(
            engine=self.name,
            max_delay=EmpiricalDelay.from_samples(circuit_delays),
            endpoints=endpoints,
            n_gates=view.n_gates,
            params={"n_samples": n_samples, "seed": seed},
            raw=endpoint_delays,
        )

"""Clark-max engine: adapter over the analytic SSTA.

:func:`~repro.timing.ssta.run_ssta` does all the work and the adapter
only repackages its output.  The max-delay distribution *is* the SSTA
canonical circuit delay (``GaussianDelay`` delegates every query to
:class:`~repro.timing.canonical.Canonical`), so yields, quantiles, and
moments through this engine are bitwise identical to calling
``run_ssta`` directly; the regression tests assert that equality.  On
top of that it builds per-endpoint quantile summaries, which is why the
optimizer's in-loop Clark check calls ``run_ssta`` itself.
"""

from __future__ import annotations

from typing import Optional

from ..circuit.netlist import Circuit
from ..timing.graph import TimingConfig, TimingView
from ..timing.ssta import run_ssta
from ..variation.model import VariationModel
from .base import (
    GaussianDelay,
    TimingEngine,
    TimingResult,
    summarize_endpoint,
)


class ClarkEngine(TimingEngine):
    """First-order canonical SSTA with Clark's two-moment Gaussian max."""

    name = "clark"
    accepted_params = ("n_jobs",)

    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Run SSTA and wrap its result.

        ``n_jobs`` is accepted for interface uniformity and ignored —
        the analytic propagation is single-pass and already cheap.
        """
        self._check_params(params)
        view = self._view_of(circuit_or_view, config)
        ssta = run_ssta(view, varmodel, config)
        endpoints = tuple(
            summarize_endpoint(int(i), GaussianDelay(ssta.arrivals[int(i)]))
            for i in view.primary_output_indices()
        )
        return TimingResult(
            engine=self.name,
            max_delay=GaussianDelay(ssta.circuit_delay),
            endpoints=endpoints,
            n_gates=view.n_gates,
            params={},
            raw=ssta,
        )

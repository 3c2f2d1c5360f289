"""Common interface of the pluggable statistical-timing engines.

Every backend — Clark's analytic max, the histogram propagation, first-
class Monte Carlo — answers the same questions through one result type:
what is the max-delay distribution, what do the individual endpoints
look like, and what yield does a clock target buy.  The distribution
itself is polymorphic (:class:`GaussianDelay` / :class:`HistogramDelay`
/ :class:`EmpiricalDelay`) so each backend reports in its native
representation without forcing a lossy conversion, while callers that
only need ``cdf``/``quantile`` stay backend-agnostic.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import EngineError
from ..mcstat import YieldEstimate
from ..timing.canonical import Canonical
from ..timing.graph import TimingConfig, TimingView
from ..timing.yield_est import degenerate_cdf, degenerate_quantile
from ..variation.model import VariationModel

#: Endpoint quantiles every backend reports.
ENDPOINT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class DelayDistribution(abc.ABC):
    """A max-delay (or endpoint-delay) distribution, backend-native."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Distribution mean [s]."""

    @property
    @abc.abstractmethod
    def sigma(self) -> float:
        """Distribution standard deviation [s]."""

    @abc.abstractmethod
    def cdf(self, t: float) -> float:
        """P(delay <= t)."""

    @abc.abstractmethod
    def quantile(self, q: float) -> float:
        """Inverse CDF at ``q`` in (0, 1)."""


@dataclass(frozen=True)
class GaussianDelay(DelayDistribution):
    """Canonical (Gaussian) delay — the Clark backend's native form.

    Pure delegation to :class:`~repro.timing.canonical.Canonical`, so
    the adapter stays bitwise-identical to :func:`~repro.timing.run_ssta`.
    """

    canonical: Canonical

    @property
    def mean(self) -> float:
        return self.canonical.mean

    @property
    def sigma(self) -> float:
        return self.canonical.sigma

    def cdf(self, t: float) -> float:
        return self.canonical.cdf(t)

    def quantile(self, q: float) -> float:
        return self.canonical.percentile(q)


@dataclass(frozen=True)
class HistogramDelay(DelayDistribution):
    """Piecewise-constant delay density on a fixed lattice.

    ``pmf[k]`` is the probability mass at lattice point ``values[k]``;
    the density interpretation spreads each bin's mass uniformly over
    ``[v_k - w/2, v_k + w/2)``, making the CDF piecewise linear with
    knots at the bin edges.  A single-point (zero-width) distribution
    degrades to an exact unit step via the degenerate helpers in
    :mod:`repro.timing.yield_est` — yield is then 0 or 1, never NaN.
    """

    values: np.ndarray
    pmf: np.ndarray

    def __post_init__(self) -> None:
        if self.values.size == 0 or self.values.size != self.pmf.size:
            raise EngineError(
                "histogram needs matching, non-empty values/pmf arrays; "
                f"got {self.values.size} values, {self.pmf.size} masses"
            )

    @property
    def bin_width(self) -> float:
        """Lattice spacing (0.0 for a single-point distribution)."""
        if self.values.size < 2:
            return 0.0
        return float(self.values[1] - self.values[0])

    @property
    def mean(self) -> float:
        return float(self.values @ self.pmf)

    @property
    def sigma(self) -> float:
        centered = self.values - self.mean
        return math.sqrt(max(float(self.pmf @ (centered * centered)), 0.0))

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bin edges and the CDF at each edge (piecewise-linear knots)."""
        w = self.bin_width
        edges = np.concatenate(
            [self.values - 0.5 * w, [self.values[-1] + 0.5 * w]]
        )
        cdf = np.concatenate([[0.0], np.cumsum(self.pmf)])
        cdf[-1] = 1.0
        return edges, cdf

    def cdf(self, t: float) -> float:
        if self.values.size == 1 or self.bin_width == 0.0:  # lint: ignore[RPR402] exact zero marks the point-mass edge, not a tolerance test
            return degenerate_cdf(float(self.values[0]), t)
        edges, cdf = self._edges()
        return float(np.interp(t, edges, cdf))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise EngineError(f"quantile must be in (0,1), got {q}")
        if self.values.size == 1 or self.bin_width == 0.0:  # lint: ignore[RPR402] exact zero marks the point-mass edge, not a tolerance test
            return degenerate_quantile(float(self.values[0]), q)
        edges, cdf = self._edges()
        # Invert the piecewise-linear CDF inside the first bin whose
        # cumulative mass reaches q (flat zero-mass stretches collapse
        # to their left edge, keeping the inverse single-valued).
        k = int(np.searchsorted(cdf, q, side="left"))
        k = min(max(k, 1), cdf.size - 1)
        lo, hi = cdf[k - 1], cdf[k]
        if hi == lo:
            return float(edges[k - 1])
        frac = (q - lo) / (hi - lo)
        return float(edges[k - 1] + frac * (edges[k] - edges[k - 1]))


@dataclass(frozen=True)
class EmpiricalDelay(DelayDistribution):
    """Sampled delay distribution with CI-carrying queries.

    Built from per-die Monte-Carlo delays (kept sorted); every point
    estimate can be paired with its sampling uncertainty — binomial
    intervals for CDF queries, order-statistic intervals for quantiles.
    """

    sorted_samples: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalDelay":
        values = np.sort(np.asarray(samples, dtype=float))
        if values.size == 0:
            raise EngineError("empirical delay needs at least one sample")
        return cls(sorted_samples=values)

    @property
    def n_samples(self) -> int:
        return int(self.sorted_samples.size)

    @property
    def mean(self) -> float:
        return float(self.sorted_samples.mean())

    @property
    def sigma(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return float(self.sorted_samples.std(ddof=1))

    def cdf(self, t: float) -> float:
        return float(
            np.searchsorted(self.sorted_samples, t, side="right")
            / self.n_samples
        )

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise EngineError(f"quantile must be in (0,1), got {q}")
        return float(np.quantile(self.sorted_samples, q))

    def cdf_ci(self, t: float, z: float = 3.0) -> Tuple[float, float]:
        """``z``-sigma binomial interval on ``cdf(t)``, clamped to [0,1]."""
        return YieldEstimate.binomial(
            self.cdf(t), self.n_samples, t
        ).confidence_interval(z)

    def quantile_ci(self, q: float, z: float = 3.0) -> Tuple[float, float]:
        """Order-statistic ``z``-sigma interval on the ``q``-quantile."""
        if not 0.0 < q < 1.0:
            raise EngineError(f"quantile must be in (0,1), got {q}")
        n = self.n_samples
        half = z * math.sqrt(n * q * (1.0 - q))
        lo = int(np.clip(math.floor(q * n - half), 0, n - 1))
        hi = int(np.clip(math.ceil(q * n + half), 0, n - 1))
        return (
            float(self.sorted_samples[lo]),
            float(self.sorted_samples[hi]),
        )


@dataclass(frozen=True)
class EndpointSummary:
    """Per-endpoint (primary-output) arrival statistics."""

    gate_index: int
    mean: float
    sigma: float
    quantiles: Tuple[Tuple[float, float], ...]

    def quantile(self, q: float) -> float:
        """Look up one of the pre-computed endpoint quantiles."""
        for level, value in self.quantiles:
            if level == q:
                return value
        raise EngineError(
            f"endpoint quantile {q} not reported; available: "
            f"{', '.join(str(level) for level, _ in self.quantiles)}"
        )


def summarize_endpoint(
    gate_index: int, dist: DelayDistribution
) -> EndpointSummary:
    """Standard endpoint record: moments plus the shared quantile set."""
    return EndpointSummary(
        gate_index=gate_index,
        mean=dist.mean,
        sigma=dist.sigma,
        quantiles=tuple(
            (q, dist.quantile(q)) for q in ENDPOINT_QUANTILES
        ),
    )


@dataclass(frozen=True)
class TimingResult:
    """One engine's answer: max-delay distribution + endpoint summaries."""

    engine: str
    max_delay: DelayDistribution
    endpoints: Tuple[EndpointSummary, ...]
    n_gates: int
    params: Mapping[str, object] = field(default_factory=dict)
    raw: object = None

    def yield_at(self, target_delay: float) -> float:
        """P(circuit delay <= target)."""
        if target_delay <= 0:
            raise EngineError(
                f"target delay must be positive, got {target_delay}"
            )
        return self.max_delay.cdf(target_delay)

    def delay_at_yield(self, eta: float) -> float:
        """The clock target met with probability ``eta``."""
        if not 0.0 < eta < 1.0:
            raise EngineError(f"yield must be in (0,1), got {eta}")
        return self.max_delay.quantile(eta)


class TimingEngine(abc.ABC):
    """A pluggable statistical-timing backend.

    Engines are stateless: construction is free, all work happens in
    :meth:`analyze`.  Backend-specific knobs arrive as keyword params;
    every engine rejects parameters it does not understand with a typed
    :class:`~repro.errors.EngineError` so a CLI typo cannot silently
    fall through to defaults.
    """

    name: str = "abstract"

    #: Parameters this engine accepts (beyond the common ones).
    accepted_params: Tuple[str, ...] = ()

    @abc.abstractmethod
    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Analyze one circuit under one variation model."""

    def _check_params(self, params: Mapping[str, object]) -> None:
        unknown = sorted(set(params) - set(self.accepted_params))
        if unknown:
            raise EngineError(
                f"engine {self.name!r} does not accept "
                f"{', '.join(repr(p) for p in unknown)}; accepted: "
                f"{', '.join(repr(p) for p in self.accepted_params) or 'none'}"
            )

    @staticmethod
    def _view_of(
        circuit_or_view: Circuit | TimingView,
        config: Optional[TimingConfig],
    ) -> TimingView:
        if isinstance(circuit_or_view, TimingView):
            return circuit_or_view
        return TimingView(circuit_or_view, config)

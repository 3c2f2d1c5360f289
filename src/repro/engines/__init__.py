"""Pluggable statistical-timing engines (substrate S8, generalized).

One interface — :class:`TimingEngine.analyze` — over three backends:

``clark``
    The first-order canonical SSTA (Clark's two-moment Gaussian max).
    Bitwise identical to calling :func:`repro.timing.ssta.run_ssta`
    directly.
``histogram``
    Distribution-shape-free lattice propagation: exact convolution sums
    and exact independent-max on a pinned bin grid, with the global
    (correlated) sensitivities carried analytically.  Deterministic per
    bin count, across reruns and worker counts.
``mc``
    The sharded Monte-Carlo sampler as a first-class engine, reporting
    empirical distributions whose yields and quantiles carry sampling
    confidence intervals.

Engines resolve by name through :func:`get_engine` / the
:data:`ENGINE_NAMES` registry (mirroring :mod:`repro.mcstat`'s
estimator registry); unknown names raise the typed
:class:`~repro.errors.EngineError`.  The pipeline workload
(:func:`analyze_pipeline`) composes any backend over K sequential
stages with shared inter-die variation.
"""

from ..errors import EngineError
from .base import (
    ENDPOINT_QUANTILES,
    DelayDistribution,
    EmpiricalDelay,
    EndpointSummary,
    GaussianDelay,
    HistogramDelay,
    TimingEngine,
    TimingResult,
)
from .clark import ClarkEngine
from .histogram import DEFAULT_BINS, HistogramEngine, validate_bins
from .mc import MCEngine
from .pipeline import (
    PipelineResult,
    PipelineStage,
    StageSummary,
    analyze_pipeline,
)

#: Registered engine names, in documentation order.
ENGINE_NAMES = ("clark", "histogram", "mc")

_ENGINES = {
    "clark": ClarkEngine,
    "histogram": HistogramEngine,
    "mc": MCEngine,
}


def get_engine(name: str) -> TimingEngine:
    """Resolve an engine by registry name.

    Raises :class:`~repro.errors.EngineError` for unknown names, listing
    the available registry so CLI typos fail with the full menu.
    """
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; choose from {', '.join(ENGINE_NAMES)}"
        ) from None
    return cls()


__all__ = [
    "DEFAULT_BINS",
    "ENDPOINT_QUANTILES",
    "ENGINE_NAMES",
    "ClarkEngine",
    "DelayDistribution",
    "EmpiricalDelay",
    "EndpointSummary",
    "EngineError",
    "GaussianDelay",
    "HistogramDelay",
    "HistogramEngine",
    "MCEngine",
    "PipelineResult",
    "PipelineStage",
    "StageSummary",
    "TimingEngine",
    "TimingResult",
    "analyze_pipeline",
    "get_engine",
    "validate_bins",
]

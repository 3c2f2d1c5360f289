"""Statistical static timing analysis (substrate S8).

First-order canonical SSTA: every gate delay becomes a
:class:`~repro.timing.canonical.Canonical` whose global sensitivities come
from the gate's variation-model loadings and whose independent part
carries the gate-private (RDF/local-Leff) randomness.  Arrival times
propagate topologically — sums exact, merges via Clark's max — yielding a
canonical circuit-delay distribution, per-gate **criticalities** (the
probability a gate lies on the critical path), and the **timing yield**
``P(delay <= T)`` that the statistical optimizer constrains.

The kernel is array-form: canonicals live as rows of ``mean (n,)``,
``sens (n, k)`` and ``indep (n,)``, and propagation walks the view's
:class:`~repro.timing.graph.LevelSchedule` rank by rank — one vectorized
Clark step per (rank, fanin column), which folds every gate's fanins in
fanin order exactly as a per-gate left fold would.

Criticality uses the standard tightness-propagation: each Clark merge
records the probability each operand won; a rank-wise backward pass
multiplies and accumulates these shares from the (virtual) sink to every
gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..telemetry import get_telemetry
from ..variation.model import VariationModel
from .canonical import Canonical
from .clark import max_moments_batch
from .graph import LevelSchedule, TimingConfig, TimingView


@dataclass(frozen=True)
class SSTAResult:
    """Output of one SSTA run.

    Attributes
    ----------
    arrival_mean, arrival_sens, arrival_indep:
        Canonical arrival time at each gate's output (dense order), as
        ``(n,)``, ``(n, k)`` and ``(n,)`` arrays.
    gate_delay_means:
        Mean (nominal) delay of each gate [s].
    circuit_delay:
        Canonical distribution of the circuit delay.
    criticality:
        Per-gate probability of lying on the critical path.  Sums to ~1
        per structurally-independent sink cone (it is a path measure, not
        a partition of unity over gates).
    """

    arrival_mean: np.ndarray
    arrival_sens: np.ndarray
    arrival_indep: np.ndarray
    gate_delay_means: np.ndarray
    circuit_delay: Canonical
    criticality: np.ndarray

    @cached_property
    def arrivals(self) -> List[Canonical]:
        """Canonical arrival time at each gate's output (built on first use)."""
        return _canonicals(self.arrival_mean, self.arrival_sens, self.arrival_indep)

    def timing_yield(self, target_delay: float) -> float:
        """P(circuit delay <= target)."""
        if target_delay <= 0:
            raise TimingError(f"target delay must be positive, got {target_delay}")
        return self.circuit_delay.cdf(target_delay)

    def delay_at_yield(self, eta: float) -> float:
        """The delay target that would be met with probability ``eta``."""
        return self.circuit_delay.percentile(eta)


def _canonicals(
    mean: np.ndarray, sens: np.ndarray, indep: np.ndarray
) -> List[Canonical]:
    return [
        Canonical(m, s, r) for m, s, r in zip(mean.tolist(), sens, indep.tolist())
    ]


def gate_delay_arrays(
    view: TimingView, varmodel: VariationModel
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical delay of every gate as ``(mean, sens, indep)`` arrays.

    ``d = d_nom * (1 + s_R·ΔlnR)`` first-order: the global sensitivity
    vector is ``d_nom * (dlnR/dL * L_loadings + dlnR/dVth * V_loadings)``
    and the independent sigma combines the local-Leff and (size-de-rated)
    RDF components in quadrature.
    """
    if varmodel.n_gates != view.n_gates:
        raise TimingError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {view.n_gates}"
        )
    mean = view.nominal_delays()
    d_l, d_vth = view.drive_sensitivities()
    vth_indep = varmodel.vth_indep_for(view.rdf_relative_area())
    sens = mean[:, None] * (
        d_l[:, None] * varmodel.l_loadings + d_vth[:, None] * varmodel.vth_loadings
    )
    indep = mean * np.hypot(d_l * varmodel.l_indep, d_vth * vth_indep)
    return mean, sens, indep


def gate_delay_canonicals(
    view: TimingView, varmodel: VariationModel
) -> List[Canonical]:
    """Canonical delay of every gate at the current implementation state.

    The per-gate form of :func:`gate_delay_arrays`, for consumers that
    fold canonicals one by one (statistical slack, the histogram engine).
    """
    return _canonicals(*gate_delay_arrays(view, varmodel))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _clark_max(
    mean_a: np.ndarray,
    sens_a: np.ndarray,
    indep_a: np.ndarray,
    mean_b: np.ndarray,
    sens_b: np.ndarray,
    indep_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :meth:`Canonical.maximum_with_tightness`."""
    mean, variance, tightness = max_moments_batch(
        mean_a,
        _rowdot(sens_a, sens_a) + indep_a * indep_a,
        mean_b,
        _rowdot(sens_b, sens_b) + indep_b * indep_b,
        _rowdot(sens_a, sens_b),
    )
    sens = tightness[:, None] * sens_a + (1.0 - tightness)[:, None] * sens_b
    indep = np.sqrt(np.maximum(variance - _rowdot(sens, sens), 0.0))
    return mean, sens, indep, tightness


def _propagate(
    schedule: LevelSchedule,
    mean: np.ndarray,
    sens: np.ndarray,
    indep: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
    """Forward pass: arrival arrays plus per-rank fanin tightness shares.

    ``shares[rank][row, j]`` is the probability that fanin column ``j``
    of that rank's ``row`` gate is its latest input (zero on padding).
    """
    arr_mean = np.empty_like(mean)
    arr_sens = np.empty_like(sens)
    arr_indep = np.empty_like(indep)
    shares_by_rank: List[np.ndarray] = []
    for (gates, fanins), active in zip(schedule.levels, schedule.active):
        shares = np.zeros(fanins.shape)
        shares_by_rank.append(shares)
        if not active:
            arr_mean[gates] = mean[gates]
            arr_sens[gates] = sens[gates]
            arr_indep[gates] = indep[gates]
            continue
        first = fanins[:, 0]
        acc_mean = arr_mean[first]
        acc_sens = arr_sens[first]
        acc_indep = arr_indep[first]
        shares[:, 0] = 1.0
        for j in range(1, len(active)):
            rows = active[j]
            other = fanins[:rows, j]
            (acc_mean[:rows], acc_sens[:rows], acc_indep[:rows],
             tightness) = _clark_max(
                acc_mean[:rows], acc_sens[:rows], acc_indep[:rows],
                arr_mean[other], arr_sens[other], arr_indep[other],
            )
            shares[:rows, :j] *= tightness[:, None]
            shares[:rows, j] = 1.0 - tightness
        arr_mean[gates] = acc_mean + mean[gates]
        arr_sens[gates] = acc_sens + sens[gates]
        arr_indep[gates] = np.hypot(acc_indep, indep[gates])
    return arr_mean, arr_sens, arr_indep, shares_by_rank


def run_ssta(
    circuit_or_view: Circuit | TimingView,
    varmodel: VariationModel,
    config: Optional[TimingConfig] = None,
) -> SSTAResult:
    """Run canonical SSTA at the circuit's current implementation state."""
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    tele = get_telemetry()
    tele.counter("ssta_runs_total").inc()
    with tele.span("ssta.run", gates=view.n_gates):
        mean, sens, indep = gate_delay_arrays(view, varmodel)
        schedule = view.schedule
        arr_mean, arr_sens, arr_indep, shares_by_rank = _propagate(
            schedule, mean, sens, indep
        )

        # The output fold is one sequential chain of Clark merges.
        po = view.primary_output_indices()
        po_shares = np.ones(po.size)
        endpoints = _canonicals(arr_mean[po], arr_sens[po], arr_indep[po])
        sink = endpoints[0]
        for k in range(1, po.size):
            sink, tightness = sink.maximum_with_tightness(endpoints[k])
            po_shares[:k] *= tightness
            po_shares[k] = 1.0 - tightness

        # Consumers sit in later ranks: walking ranks backward, a gate's
        # criticality is complete before its own shares are handed down.
        n = view.n_gates
        criticality = np.zeros(n)
        criticality[po] += po_shares
        for (gates, fanins), shares in zip(
            reversed(schedule.levels), reversed(shares_by_rank)
        ):
            if shares.size:
                weights = criticality[gates][:, None] * shares
                criticality += np.bincount(
                    fanins.ravel(), weights=weights.ravel(), minlength=n + 1
                )[:n]

        return SSTAResult(
            arrival_mean=arr_mean,
            arrival_sens=arr_sens,
            arrival_indep=arr_indep,
            gate_delay_means=mean,
            circuit_delay=sink,
            criticality=criticality,
        )

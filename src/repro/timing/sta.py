"""Deterministic static timing analysis (substrate S7).

Classic topological STA over the :class:`~repro.timing.graph.TimingView`:
arrival times forward, required times backward, slacks, and the critical
path.  Optionally evaluated at a :class:`~repro.tech.corners.ProcessCorner`
— which is precisely how the deterministic baseline optimizer sees timing,
and the pessimism the statistical flow removes.

Both passes run rank by rank over the view's
:class:`~repro.timing.graph.LevelSchedule`, one NumPy operation per
(rank, fanin column).  ``max``/``min`` are exact, so the results are
bitwise equal to a per-gate topological loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..tech.corners import ProcessCorner
from .graph import TimingConfig, TimingView


@dataclass(frozen=True)
class STAResult:
    """Output of one deterministic STA run (all times in seconds).

    Arrays are indexed by dense gate index (topological order).
    """

    arrivals: np.ndarray
    required: np.ndarray
    gate_delays: np.ndarray
    circuit_delay: float
    target_delay: float
    critical_path: tuple[str, ...]

    @cached_property
    def slacks(self) -> np.ndarray:
        """Per-gate slack (required - arrival), computed once per result.

        Read-only: the optimizers read it per scored candidate.
        """
        slacks = self.required - self.arrivals
        slacks.flags.writeable = False
        return slacks

    @property
    def worst_slack(self) -> float:
        """Minimum slack over all gates."""
        return float(self.slacks.min())

    @property
    def meets_target(self) -> bool:
        """Whether the circuit meets the target delay (tiny tolerance)."""
        return self.circuit_delay <= self.target_delay * (1.0 + 1e-12)


def corner_delay_factor(view: TimingView, corner: ProcessCorner) -> dict:
    """Per-Vth-class multiplicative delay factor at a process corner.

    The drive model's resistance shift is uniform within a Vth class
    (sensitivities are size-independent), so a corner scales every gate of
    a class by one factor — computed once per STA run.
    """
    factors = {}
    for vth_class, model in (
        (v, view.library.drive_model(v)) for v in set(view.vths())
    ):
        shift = (
            model.d_lnr_d_deltal * corner.delta_l
            + model.d_lnr_d_deltavth * corner.delta_vth0
        )
        factors[vth_class] = 1.0 + shift + 0.5 * shift * shift
    return factors


def gate_delays(view: TimingView, corner: Optional[ProcessCorner] = None) -> np.ndarray:
    """Every gate's delay at the current state, optionally at a corner [s].

    The corner factor is built elementwise from the view's cached
    ``dlnR/dL`` and ``dlnR/dVth0`` columns with the expression
    :func:`corner_delay_factor` evaluates per Vth class, so the two agree
    bitwise.
    """
    coeffs = view._coefficients()
    delays = view._nominal_delays(coeffs)
    if corner is not None:
        shift = coeffs[:, 3] * corner.delta_l + coeffs[:, 4] * corner.delta_vth0
        delays = delays * (1.0 + shift + 0.5 * shift * shift)
    return delays


def arrival_times(view: TimingView, delays: np.ndarray) -> np.ndarray:
    """Latest arrival at every gate output: a levelized max-plus pass.

    Primary-input fanins arrive at t=0; a gate with only such fanins has
    no gate fanin and sits in rank 0, where its arrival is its delay.
    """
    arrivals = np.empty(view.n_gates)
    schedule = view.schedule
    for (gates, fanins), active in zip(schedule.levels, schedule.active):
        if not active:
            arrivals[gates] = delays[gates]
            continue
        worst = arrivals[fanins[:, 0]]
        for j in range(1, len(active)):
            rows = active[j]
            np.maximum(worst[:rows], arrivals[fanins[:rows, j]], out=worst[:rows])
        arrivals[gates] = worst + delays[gates]
    return arrivals


def run_sta(
    circuit_or_view: Circuit | TimingView,
    target_delay: Optional[float] = None,
    corner: Optional[ProcessCorner] = None,
    config: Optional[TimingConfig] = None,
) -> STAResult:
    """Run deterministic STA.

    Parameters
    ----------
    circuit_or_view:
        A circuit (a view is built ad hoc) or a prebuilt
        :class:`TimingView` (preferred inside optimization loops).
    target_delay:
        Required time at every primary output; defaults to the computed
        circuit delay (zero worst slack).
    corner:
        Optional process corner; omitted means nominal.
    """
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    delays = gate_delays(view, corner)
    arrivals = arrival_times(view, delays)

    po = view.primary_output_indices()
    circuit_delay = float(arrivals[po].max())
    if target_delay is None:
        target_delay = circuit_delay
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")

    required = np.full(view.n_gates, math.inf)
    required[po] = target_delay
    schedule = view.schedule
    for (gates, fanins), active in zip(
        reversed(schedule.levels), reversed(schedule.active)
    ):
        # Consumers sit in later ranks, so each required time is final
        # before its gate's rank is reached.  +inf (no path to an output)
        # stays +inf through the subtraction and never wins the min.
        latest_input_arrival = required[gates] - delays[gates]
        for j, rows in enumerate(active):
            np.minimum.at(required, fanins[:rows, j], latest_input_arrival[:rows])
    # Gates with no path to any primary output keep +inf required time;
    # clamp them to the target so slack stays finite (they are timing-
    # irrelevant, and lint flags them separately).
    required[np.isinf(required)] = target_delay

    critical = _trace_critical_path(view, arrivals)
    return STAResult(
        arrivals=arrivals,
        required=required,
        gate_delays=delays,
        circuit_delay=circuit_delay,
        target_delay=float(target_delay),
        critical_path=tuple(critical),
    )


def _trace_critical_path(view: TimingView, arrivals: np.ndarray) -> List[str]:
    po = view.primary_output_indices()
    current = int(po[np.argmax(arrivals[po])])
    path = [view.gates[current].name]
    while True:
        fanins = view.fanin_gates[current]
        if fanins.size == 0:
            break
        current = int(fanins[np.argmax(arrivals[fanins])])
        path.append(view.gates[current].name)
    path.reverse()
    return path

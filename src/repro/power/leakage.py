"""Deterministic (nominal / corner) leakage analysis (substrate S10).

Per-gate leakage is the cell's state-probability-weighted subthreshold
current at the gate's current size and Vth flavour; the chip total is a
sum.  A :class:`~repro.tech.corners.ProcessCorner` shifts every gate by the
shared lognormal factor — this is the "nominal leakage" a deterministic
flow optimizes, and what experiment T2 reports.  Optimization loops read
it through one :class:`GateLeakageMemo` per run, which re-evaluates only
the gates a move changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import PowerError
from ..tech.corners import ProcessCorner
from ..tech.technology import VthClass
from .probability import gate_input_probabilities, signal_probabilities


@dataclass(frozen=True)
class LeakageBreakdown:
    """Per-gate and total leakage at one process point.

    ``currents`` is indexed by dense gate index; ``power = current * vdd``.
    """

    currents: np.ndarray  # [A] per gate
    vdd: float

    @property
    def total_current(self) -> float:
        """Total leakage current [A]."""
        return float(self.currents.sum())

    @property
    def total_power(self) -> float:
        """Total leakage power [W]."""
        return self.total_current * self.vdd

    def power_of(self, index: int) -> float:
        """Leakage power of one gate [W]."""
        return float(self.currents[index]) * self.vdd


#: The implementation state a gate's leakage depends on.
_STATE = attrgetter("size", "vth", "length_bias")


class GateLeakageMemo:
    """Every gate's mean leakage current [A] under changing implementation.

    Built once per optimization run from ``(circuit, probs)``: signal
    probabilities do not change during a run, so a gate's current depends
    only on its ``(size, vth, length_bias)``.  :meth:`current` evaluates
    each (gate, state) once; :meth:`currents` re-reads only the gates
    whose state changed since its last read.  The memo is a per-run
    object on purpose -- :class:`~repro.tech.library.Cell` and
    ``Library`` are shared across circuits and concurrent jobs.
    """

    def __init__(
        self,
        circuit: Circuit,
        probs: Optional[Mapping[str, float]] = None,
        corner: Optional[ProcessCorner] = None,
    ) -> None:
        circuit.freeze()
        if probs is None:
            probs = signal_probabilities(circuit)
        self.circuit = circuit
        self._gates = circuit.indexed_gates()
        self._cells = [circuit.cell_of(g) for g in self._gates]
        by_name = gate_input_probabilities(circuit, probs)
        self._input_probs = [by_name[g.name] for g in self._gates]
        self._delta_l = corner.delta_l if corner is not None else 0.0
        self._delta_v = corner.delta_vth0 if corner is not None else 0.0
        self._by_state: Dict[Tuple[int, float, VthClass, float], float] = {}
        self._currents = np.empty(len(self._gates))
        self._state: List[object] = [None] * len(self._gates)

    def current(
        self, index: int, size: float, vth: VthClass, length_bias: float
    ) -> float:
        """Mean leakage current of gate ``index`` at the given state [A]."""
        key = (index, size, vth, length_bias)
        value = self._by_state.get(key)
        if value is None:
            # A deliberate length bias enters exactly like a process Leff
            # shift: exponentially less leakage for a slightly longer channel.
            value = self._cells[index].leakage(
                size, vth, self._input_probs[index],
                delta_l=self._delta_l + length_bias, delta_vth0=self._delta_v,
            )
            self._by_state[key] = value
        return value

    def currents(self) -> np.ndarray:
        """Every gate's current at its present state [A], dense order."""
        state = list(map(_STATE, self._gates))
        if state != self._state:
            stale = [
                i for i, (now, then) in enumerate(zip(state, self._state))
                if now != then
            ]
            self._currents[stale] = [self.current(i, *state[i]) for i in stale]
            self._state = state
        return self._currents.copy()


def gate_leakage_currents(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> np.ndarray:
    """Mean leakage current of every gate [A], dense (topological) order.

    ``probs`` are net signal probabilities (computed if omitted); the
    corner applies the shared exponential process factor.  One read of a
    fresh :class:`GateLeakageMemo`, so both share one per-gate formula.
    """
    return GateLeakageMemo(circuit, probs, corner).currents()


def analyze_leakage(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> LeakageBreakdown:
    """Nominal/corner leakage of the whole circuit."""
    currents = gate_leakage_currents(circuit, probs, corner)
    return LeakageBreakdown(currents=currents, vdd=circuit.library.tech.vdd)


def leakage_by_vth_class(circuit: Circuit, breakdown: LeakageBreakdown) -> Dict[str, float]:
    """Split total leakage power by Vth flavour — composition figure F5."""
    if breakdown.currents.shape[0] != circuit.n_gates:
        raise PowerError("breakdown does not match circuit")
    totals: Dict[str, float] = {}
    for gate in circuit.indexed_gates():
        idx = circuit.gate_index(gate.name)
        key = gate.vth.value
        totals[key] = totals.get(key, 0.0) + breakdown.power_of(idx)
    return totals

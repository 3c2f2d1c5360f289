"""Timing view of a circuit: the one array-form timing core.

:class:`TimingView` extracts, once per circuit *structure*, the index
arrays every timing engine needs — topological gate order, gate-fanin
indices, consumer pin lists, primary-output membership and the
:class:`LevelSchedule` rank batches that STA, SSTA and Monte-Carlo timing
all propagate over — while reading the mutable implementation state
(sizes, Vth flavours, length biases) live on each query, so one view
serves an entire optimization run even as the optimizer rewrites sizes
and thresholds.

Loads follow the standard lumped model: a gate's output drives the input
capacitance of every consumer pin, one wire-capacitance lump per fanout
pin, and (for primary outputs) a configurable external load.  The
vectorized delay model (:meth:`TimingView.nominal_delays`) evaluates
``intrinsic + slope * load`` for every gate at once and is bitwise equal
to the per-gate :meth:`TimingView.nominal_delay_of`: load sums add the
consumer pins column by column in pin order, exactly as the scalar sum
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..tech.library import Cell
from ..tech.technology import VthClass

#: The implementation state a gate's delay coefficients depend on.
_STATE = attrgetter("cell_name", "size", "vth", "length_bias")


@dataclass(frozen=True)
class TimingConfig:
    """Knobs shared by all timing engines.

    Attributes
    ----------
    primary_output_load:
        External load on each primary output, in multiples of a unit
        inverter's input capacitance (4.0 = an FO4-ish environment).
    derate_rdf_with_size:
        Scale each gate's independent Vth sigma by ``1/sqrt(size)``
        (random dopant fluctuation averages down in wider devices).
    """

    primary_output_load: float = 4.0
    derate_rdf_with_size: bool = True


def _pad_rows(rows: Sequence[np.ndarray], counts: np.ndarray, fill: int) -> np.ndarray:
    """Ragged index rows as one ``(len(rows), max count)`` matrix.

    Row ``r`` holds ``rows[r]`` left-aligned, in order, and ``fill`` after.
    """
    width = int(counts.max(initial=0))
    out = np.full((len(rows), width), fill, dtype=np.intp)
    if width:
        row_of = np.repeat(np.arange(len(rows)), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        out[row_of, np.arange(row_of.size) - starts] = np.concatenate(rows)
    return out


def _prefix_lengths(counts: np.ndarray, width: int) -> Tuple[int, ...]:
    """For rows sorted by descending ``counts``: rows with a column ``j``."""
    return tuple(
        int(n) for n in (counts[:, None] > np.arange(width)).sum(axis=0)
    )


@dataclass(frozen=True)
class LevelSchedule:
    """Levelized batch schedule shared by every array-form propagator.

    ``levels`` lists, rank by rank, that rank's gate indices plus a dense
    fanin matrix padded with the sentinel value ``n_gates`` — Monte-Carlo
    timing pins a virtual ``-inf`` arrival there, the identity of
    ``max``, so ragged fanin counts batch into one exact reduction.
    Within a rank, gates are ordered by descending fanin count (ties by
    index), so the rows holding a real fanin in column ``j`` are always a
    prefix of length ``active[rank][j]``: the STA max and the SSTA Clark
    fold walk ``matrix[:active[rank][j], j]`` and never touch padding.
    Rank 0 is the fanin-free gates and carries an empty matrix.  Built
    once per :class:`TimingView` (plain arrays, pickles cheaply).
    """

    n_gates: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    active: Tuple[Tuple[int, ...], ...]

    @classmethod
    def build(cls, fanin_gates: Sequence[np.ndarray]) -> "LevelSchedule":
        """Rank every gate and pack per-rank index/fanin arrays.

        The rank recurrence (one past the deepest fanin) is sequential
        by construction — fanins precede their gate in topological
        order — and runs once per view, not per analysis.
        """
        n = len(fanin_gates)
        if n == 0:
            return cls(n_gates=0, levels=(), active=())
        counts = np.array([f.size for f in fanin_gates], dtype=np.intp)
        rank = np.zeros(n, dtype=np.intp)
        for i in range(n):
            fanins = fanin_gates[i]
            if fanins.size:
                rank[i] = rank[fanins].max() + 1
        padded = _pad_rows(fanin_gates, counts, fill=n)
        order = np.lexsort((-counts, rank))
        bounds = np.searchsorted(rank[order], np.arange(int(rank.max()) + 2))
        levels = []
        active = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            members = order[lo:hi]
            width = int(counts[members[0]])
            levels.append((members, padded[members, :width]))
            active.append(_prefix_lengths(counts[members], width))
        return cls(n_gates=n, levels=tuple(levels), active=tuple(active))


class TimingView:
    """Structure-frozen, state-live view of a circuit for timing engines."""

    def __init__(self, circuit: Circuit, config: TimingConfig | None = None) -> None:
        circuit.freeze()
        self.circuit = circuit
        self.config = config or TimingConfig()
        self.library = circuit.library
        self.gates = circuit.indexed_gates()
        self.n_gates = len(self.gates)

        #: Per gate: indices of fanins that are gates, unique, in first-pin
        #: order (primary-input fanins contribute arrival 0 and are
        #: omitted; a net on two pins is one timing arc, not two).
        self.fanin_gates: List[np.ndarray] = []
        #: Per gate: True if at least one fanin is a primary input.
        self.has_input_fanin = np.zeros(self.n_gates, dtype=bool)
        for gate in self.gates:
            idxs = dict.fromkeys(
                circuit.gate_index(f) for f in gate.fanins if not circuit.is_input(f)
            )
            self.fanin_gates.append(np.array(list(idxs), dtype=int))
            self.has_input_fanin[circuit.gate_index(gate.name)] = any(
                circuit.is_input(f) for f in gate.fanins
            )

        #: Per gate: consumer gate indices, one entry per driven pin.
        self.consumer_pins: List[np.ndarray] = []
        for gate in self.gates:
            pins = [circuit.gate_index(c) for c in circuit.fanout_of(gate.name)]
            self.consumer_pins.append(np.array(pins, dtype=int))

        output_nets = set(circuit.outputs)
        #: Per gate: True if the gate drives a primary output.
        self.is_primary_output = np.array(
            [g.name in output_nets for g in self.gates], dtype=bool
        )
        if not self.is_primary_output.any():
            raise TimingError(
                f"{circuit.name}: no gate drives a primary output "
                "(all outputs are primary inputs?)"
            )

        #: Rank batches every array-form propagator walks.
        self.schedule = LevelSchedule.build(self.fanin_gates)

        self.cells: List[Cell] = [circuit.cell_of(g) for g in self.gates]
        self._po_load = self.config.primary_output_load * self.library.c_in_unit
        self._wire_cap = self.library.tech.wire_cap_per_fanout
        # Load sums: consumer pins padded into one matrix whose rows are
        # sorted by descending fanout, so column j's real pins are a prefix.
        fanout = np.array([p.size for p in self.consumer_pins], dtype=np.intp)
        self._load_order = np.argsort(-fanout, kind="stable")
        self._load_pins = _pad_rows(self.consumer_pins, fanout, fill=self.n_gates)[
            self._load_order
        ]
        self._load_active = _prefix_lengths(
            fanout[self._load_order], self._load_pins.shape[1]
        )
        self._wire_loads = self._wire_cap * fanout
        self._po_loads = np.where(self.is_primary_output, self._po_load, 0.0)
        # (cell_name, size, vth, length bias) -> (intrinsic, slope, input
        # cap, dlnR/dL, dlnR/dVth0); the discrete grids keep this small
        # across a whole run.
        self._coeff_cache: Dict[
            Tuple[str, float, VthClass, float], Tuple[float, ...]
        ] = {}
        # Per-gate rows of the cache at the state last read, so a query
        # re-looks-up only the gates whose state changed since.
        self._rows = np.empty((self.n_gates, 5))
        self._rows_state: List[object] = [None] * self.n_gates

    # -- state-live queries ---------------------------------------------------

    def sizes(self) -> np.ndarray:
        """Current gate sizes, dense order."""
        return np.array([g.size for g in self.gates])

    def vths(self) -> List[VthClass]:
        """Current Vth flavours, dense order."""
        return [g.vth for g in self.gates]

    def drive_sensitivities(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-gate ``(dlnR/dL, dlnR/dVth0)`` at the current Vth flavours."""
        coeffs = self._coefficients()
        return coeffs[:, 3].copy(), coeffs[:, 4].copy()

    def load_caps(self) -> np.ndarray:
        """Current load capacitance of every gate's output net [F]."""
        return self._load_caps(self._coefficients()[:, 2])

    def _load_caps(self, input_caps: np.ndarray) -> np.ndarray:
        """Load caps given every gate's per-pin input capacitance.

        Pins add column by column in pin order, then the wire lumps, then
        the output load — the order :meth:`load_cap_of` adds them in, so
        the two agree bitwise (padding never enters a sum).
        """
        pin_sum = np.zeros(self.n_gates)
        for j, rows in enumerate(self._load_active):
            pin_sum[:rows] += input_caps[self._load_pins[:rows, j]]
        total = np.empty(self.n_gates)
        total[self._load_order] = pin_sum
        total += self._wire_loads
        total += self._po_loads
        return total

    def load_cap_of(self, index: int) -> float:
        """Current load capacitance of one gate's output net [F]."""
        total = 0.0
        for pin in self.consumer_pins[index]:
            consumer = self.gates[pin]
            total += self.cells[pin].input_cap(consumer.size)
        total += self._wire_cap * len(self.consumer_pins[index])
        if self.is_primary_output[index]:
            total += self._po_load
        return total

    def _row_for(
        self, index: int, key: Tuple[str, float, VthClass, float]
    ) -> Tuple[float, ...]:
        """Gate ``index``'s delay-model row at state ``key``, through the cache."""
        coeffs = self._coeff_cache.get(key)
        if coeffs is None:
            _, size, vth, length_bias = key
            cell = self.cells[index]
            model = self.library.drive_model(vth)
            intrinsic, slope = cell.nominal_delay_coefficients(size, vth)
            if length_bias:
                x = model.d_lnr_d_deltal * length_bias
                factor = 1.0 + x + 0.5 * x * x
                intrinsic, slope = intrinsic * factor, slope * factor
            coeffs = (
                intrinsic, slope, cell.input_cap(size),
                model.d_lnr_d_deltal, model.d_lnr_d_deltavth,
            )
            self._coeff_cache[key] = coeffs
        return coeffs

    def _coefficients(self) -> np.ndarray:
        """``(n_gates, 5)`` delay-model rows at the current state.

        Columns: intrinsic delay, slope, per-pin input capacitance, and
        the drive model's ``dlnR/dL`` and ``dlnR/dVth0``.  The returned
        array is the view's own buffer: read it, never keep it.
        """
        state = list(map(_STATE, self.gates))
        if state != self._rows_state:
            stale = [
                i for i, (now, then) in enumerate(zip(state, self._rows_state))
                if now != then
            ]
            self._rows[stale] = [self._row_for(i, state[i]) for i in stale]
            self._rows_state = state
        return self._rows

    def delay_coefficients(self, index: int) -> Tuple[float, float]:
        """``(intrinsic, slope)`` of gate ``index`` at its current state.

        Nominal delay is ``intrinsic + slope * load``; both depend only on
        (cell, size, vth, length bias), so they cache across the discrete
        grids.  A gate-length bias multiplies both terms by the drive
        model's resistance factor at ``delta_l = bias`` — biasing slows
        the gate exactly as a longer channel would.
        """
        intrinsic, slope = self._row_for(index, _STATE(self.gates[index]))[:2]
        return intrinsic, slope

    def nominal_delay_of(self, index: int) -> float:
        """Nominal propagation delay of one gate at its current state [s]."""
        intrinsic, slope = self.delay_coefficients(index)
        return intrinsic + slope * self.load_cap_of(index)

    def nominal_delays(self) -> np.ndarray:
        """Nominal propagation delays of all gates [s].

        One vectorized ``intrinsic + slope * load`` over the whole view,
        bitwise equal to :meth:`nominal_delay_of` gate by gate.
        """
        return self._nominal_delays(self._coefficients())

    def _nominal_delays(self, coeffs: np.ndarray) -> np.ndarray:
        """:meth:`nominal_delays` from rows :meth:`_coefficients` returned."""
        return coeffs[:, 0] + coeffs[:, 1] * self._load_caps(coeffs[:, 2])

    def primary_output_indices(self) -> np.ndarray:
        """Dense indices of gates driving primary outputs."""
        return np.flatnonzero(self.is_primary_output)

    def rdf_relative_area(self) -> np.ndarray:
        """Per-gate relative device area for RDF de-rating (= size, or 1s)."""
        if self.config.derate_rdf_with_size:
            return self.sizes()
        return np.ones(self.n_gates)

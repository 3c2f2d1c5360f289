"""Incremental static timing analysis.

Optimization loops change one gate at a time; re-running full STA after
every change costs O(V+E) when only the changed gate's fanout cone (plus,
for size changes, its fanin drivers' loads) can possibly move.
:class:`IncrementalSTA` maintains arrival times under point changes and
updates exactly the affected cone, in topological order, stopping as soon
as arrivals stop changing — the standard event-driven STA trick.

Results are bit-identical to :func:`repro.timing.sta.run_sta`: a refresh
runs the same array passes, and each point update evaluates the per-gate
delay formula the vectorized delay model is bitwise equal to; the tests
assert exact equality over randomized move sequences.  The event queue
itself stays scalar — it touches only the changed cone.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..errors import TimingError
from ..tech.corners import ProcessCorner
from .graph import TimingView
from .sta import arrival_times, gate_delays


class IncrementalSTA:
    """Arrival-time tracker under per-gate implementation changes.

    Parameters
    ----------
    view:
        The timing view (shared with the optimizer so implementation
        state is read live).
    corner:
        Optional process corner; delays scale by the per-Vth-class corner
        factor exactly as in full STA.

    Usage::

        inc = IncrementalSTA(view, corner)
        gate.vth = VthClass.HIGH
        inc.notify(index, size_changed=False)
        if inc.circuit_delay() > tmax: ...
    """

    def __init__(self, view: TimingView, corner: Optional[ProcessCorner] = None) -> None:
        self.view = view
        self._corner = corner
        self.delays = np.empty(view.n_gates)
        self.arrivals = np.empty(view.n_gates)
        self._po = view.primary_output_indices()
        self.refresh()

    # -- queries ---------------------------------------------------------------

    def circuit_delay(self) -> float:
        """Current circuit delay (max primary-output arrival) [s]."""
        return float(self.arrivals[self._po].max())

    # -- maintenance ---------------------------------------------------------------

    def refresh(self) -> None:
        """Full recompute (initialization or after bulk changes)."""
        self.delays[:] = gate_delays(self.view, self._corner)
        self.arrivals[:] = arrival_times(self.view, self.delays)

    def notify(self, index: int, size_changed: bool) -> None:
        """Propagate the consequences of one gate's state change.

        ``size_changed`` must be True for resize moves: they also alter
        the *fanin drivers'* loads (and therefore delays).  Vth swaps
        change only the gate's own delay.
        """
        if not 0 <= index < self.view.n_gates:
            raise TimingError(f"gate index {index} out of range")
        dirty = [index]
        if size_changed:
            dirty.extend(int(f) for f in self.view.fanin_gates[index])
        heap: list[int] = []
        queued = set()
        for i in dirty:
            self.delays[i] = self._gate_delay(i)
            if i not in queued:
                heapq.heappush(heap, i)
                queued.add(i)
        while heap:
            i = heapq.heappop(heap)
            queued.discard(i)
            fanins = self.view.fanin_gates[i]
            worst = float(self.arrivals[fanins].max()) if fanins.size else 0.0
            new_arrival = worst + self.delays[i]
            if new_arrival == self.arrivals[i]:
                continue
            self.arrivals[i] = new_arrival
            for consumer in self.view.consumer_pins[i]:
                c = int(consumer)
                if c not in queued:
                    heapq.heappush(heap, c)
                    queued.add(c)

    # -- internals ---------------------------------------------------------------

    def _gate_delay(self, index: int) -> float:
        delay = self.view.nominal_delay_of(index)
        if self._corner is not None:
            model = self.view.library.drive_model(self.view.gates[index].vth)
            shift = (
                model.d_lnr_d_deltal * self._corner.delta_l
                + model.d_lnr_d_deltavth * self._corner.delta_vth0
            )
            delay *= 1.0 + shift + 0.5 * shift * shift
        return delay

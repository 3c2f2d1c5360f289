"""Arrival-time tracking under per-gate changes, re-timed only on demand.

Optimization loops change one gate at a time but ask about timing far
less often: the greedy engine applies and reverts thousands of moves and
checks the constraint once per validation step.  :class:`IncrementalSTA`
therefore makes a move cost nothing but a stale mark, and a *query*
(:attr:`~IncrementalSTA.delays`, :attr:`~IncrementalSTA.arrivals`,
:meth:`~IncrementalSTA.circuit_delay`) cost at most one full array pass
-- the same :func:`~repro.timing.sta.gate_delays` and
:func:`~repro.timing.sta.arrival_times` passes :func:`run_sta` runs, so
results are bitwise equal to full STA by construction.  On the largest
ISCAS85 circuit one such pass is a few milliseconds; a scalar walk of the
changed cone per move cost more than that over the moves between two
queries.
"""

from __future__ import annotations

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
        Optional process corner; delays scale by the per-gate corner
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
        self._po = view.primary_output_indices()
        self.refresh()

    # -- queries ---------------------------------------------------------------

    @property
    def delays(self) -> np.ndarray:
        """Every gate's delay at the current state [s]."""
        self._update()
        return self._delays

    @property
    def arrivals(self) -> np.ndarray:
        """Latest arrival at every gate output at the current state [s]."""
        self._update()
        return self._arrivals

    def circuit_delay(self) -> float:
        """Current circuit delay (max primary-output arrival) [s]."""
        return float(self.arrivals[self._po].max())

    # -- maintenance ---------------------------------------------------------------

    def refresh(self) -> None:
        """Full recompute at the current state."""
        self._delays = gate_delays(self.view, self._corner)
        self._arrivals = arrival_times(self.view, self._delays)
        self._stale = False

    def notify(self, index: int, size_changed: bool) -> None:
        """Record that gate ``index``'s state changed; the next query re-times.

        ``size_changed`` says whether the move also altered the fanin
        drivers' loads (resize moves do, Vth swaps and length biases do
        not).  The full pass a query runs covers both cases, so it only
        documents the call site.
        """
        if not 0 <= index < self.view.n_gates:
            raise TimingError(f"gate index {index} out of range")
        self._stale = True

    def _update(self) -> None:
        if self._stale:
            self.refresh()

"""Delay-driven gate sizing (TILOS-flavoured).

Used to establish the minimum-delay reference ``Dmin`` every constraint is
expressed against (the paper's "Tmax = 1.1x minimum delay"), and as the
initial, delay-feasible implementation both optimizers start from.

The algorithm is the classic sensitivity greedy: run STA, walk the gates
on (or near) the critical path, estimate each one-step upsize's effect on
the path delay *locally* (own-delay reduction minus the slowdown it causes
its fanin drivers through added load), apply the batch of clearly-helpful
upsizes, re-run STA, repeat.  If a batch overshoots (load interactions),
the pass is rolled back and only the single best move is kept; convergence
is declared when not even that helps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import OptimizationError
from ..tech.corners import ProcessCorner
from ..timing.graph import TimingView
from ..timing.sta import run_sta

#: Slack window (as a fraction of circuit delay) around the critical path
#: inside which gates are considered for upsizing.
_NEAR_CRITICAL_WINDOW = 0.02

#: Convergence: a pass must improve circuit delay by at least this
#: fraction to keep iterating.
_MIN_IMPROVEMENT = 1e-4


def upsize_effect(view: TimingView, index: int, new_size: float) -> float:
    """Local estimate of the circuit-delay change from resizing one gate.

    Negative is better.  Sum of (a) the gate's own delay change (slope
    shrinks with size; intrinsic is size-independent in this library) and
    (b) the fanin drivers' delay change from the input-capacitance delta.
    Both terms assume loads and the rest of the circuit stay put — the
    standard TILOS locality approximation, checked globally by the STA
    re-run each pass.
    """
    gate = view.gates[index]
    old_size = gate.size
    cell = view.cells[index]
    load = view.load_cap_of(index)
    intrinsic_old, slope_old = view.delay_coefficients(index)
    try:
        gate.size = new_size
        intrinsic_new, slope_new = view.delay_coefficients(index)
    finally:
        gate.size = old_size
    own = (intrinsic_new - intrinsic_old) + (slope_new - slope_old) * load
    delta_cap = cell.input_cap(new_size) - cell.input_cap(old_size)
    fanin_effect = 0.0
    for f in view.fanin_gates[index]:
        _, slope_f = view.delay_coefficients(int(f))
        # A driver feeding several pins of this gate sees each pin's delta.
        pins = int(np.count_nonzero(view.consumer_pins[int(f)] == index))
        fanin_effect += slope_f * delta_cap * pins
    return own + fanin_effect


def _helpful_upsizes(view: TimingView, sta) -> List[Tuple[float, int, float]]:
    """(effect, gate index, new size) for near-critical helpful upsizes."""
    window = sta.circuit_delay * _NEAR_CRITICAL_WINDOW
    out: List[Tuple[float, int, float]] = []
    for index in np.flatnonzero(sta.slacks <= window):
        gate = view.gates[int(index)]
        bigger = view.library.next_size_up(gate.size)
        if bigger is None:
            continue
        effect = upsize_effect(view, int(index), bigger)
        if effect < 0.0:
            out.append((effect, int(index), bigger))
    out.sort()
    return out


def minimize_delay(
    view: TimingView,
    corner: Optional[ProcessCorner] = None,
    max_passes: int = 200,
) -> float:
    """Size the circuit for (near-)minimum delay; returns the delay reached.

    Sizes are mutated in place (Vth flavours untouched).  The delay is
    measured at ``corner`` when given (the deterministic flow's reference)
    or at nominal otherwise.
    """
    if max_passes < 1:
        raise OptimizationError(f"max_passes must be >= 1, got {max_passes}")
    best = run_sta(view, corner=corner)
    for _ in range(max_passes):
        moves = _helpful_upsizes(view, best)
        if not moves:
            break
        snapshot = [(idx, view.gates[idx].size) for _, idx, _ in moves]
        for _, idx, new_size in moves:
            view.gates[idx].size = new_size
        current = run_sta(view, corner=corner)
        if current.circuit_delay <= best.circuit_delay * (1.0 - _MIN_IMPROVEMENT):
            best = current
            continue
        # Batch overshot or plateaued: roll back, keep only the best move.
        for idx, old_size in snapshot:
            view.gates[idx].size = old_size
        _, idx, new_size = moves[0]
        view.gates[idx].size = new_size
        current = run_sta(view, corner=corner)
        if current.circuit_delay <= best.circuit_delay * (1.0 - _MIN_IMPROVEMENT):
            best = current
            continue
        view.gates[idx].size = snapshot[0][1]  # moves[0] pairs with snapshot[0]
        break
    return float(best.circuit_delay)

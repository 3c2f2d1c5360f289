"""Incremental STA and the leakage memo: exact equivalence with a full
recompute under point changes."""

import numpy as np
import pytest

from repro.core.moves import (
    Move,
    apply_move,
    candidate_moves,
    leakage_gain,
    revert_move,
)
from repro.errors import TimingError
from repro.power import GateLeakageMemo, gate_leakage_currents
from repro.tech import VthClass, slow_corner
from repro.timing import TimingView, run_sta
from repro.timing import incremental
from repro.timing.incremental import IncrementalSTA


@pytest.fixture
def view(c432):
    return TimingView(c432)


def assert_matches_full(inc, view, corner=None):
    full = run_sta(view, corner=corner)
    assert inc.circuit_delay() == full.circuit_delay
    assert np.array_equal(inc.arrivals, full.arrivals)
    assert np.array_equal(inc.delays, full.gate_delays)


class TestInitialization:
    def test_matches_full_sta(self, view):
        inc = IncrementalSTA(view)
        assert_matches_full(inc, view)

    def test_matches_full_sta_at_corner(self, view, spec):
        corner = slow_corner(spec)
        inc = IncrementalSTA(view, corner)
        assert_matches_full(inc, view, corner)

    def test_index_range_checked(self, view):
        inc = IncrementalSTA(view)
        with pytest.raises(TimingError):
            inc.notify(view.n_gates, size_changed=False)


class TestPointUpdates:
    def test_single_vth_swap(self, view):
        inc = IncrementalSTA(view)
        view.gates[10].vth = VthClass.HIGH
        inc.notify(10, size_changed=False)
        assert_matches_full(inc, view)

    def test_single_resize(self, view):
        inc = IncrementalSTA(view)
        view.gates[20].size = 4.0
        inc.notify(20, size_changed=True)
        assert_matches_full(inc, view)

    def test_revert_restores(self, view):
        inc = IncrementalSTA(view)
        before = inc.circuit_delay()
        view.gates[5].vth = VthClass.HIGH
        inc.notify(5, size_changed=False)
        view.gates[5].vth = VthClass.LOW
        inc.notify(5, size_changed=False)
        assert inc.circuit_delay() == before

    def test_randomized_move_sequence(self, view, spec):
        corner = slow_corner(spec)
        inc = IncrementalSTA(view, corner)
        rng = np.random.default_rng(7)
        sizes = view.library.sizes
        for _ in range(120):
            idx = int(rng.integers(view.n_gates))
            gate = view.gates[idx]
            if rng.random() < 0.5:
                gate.vth = gate.vth.other()
                inc.notify(idx, size_changed=False)
            else:
                gate.size = float(sizes[int(rng.integers(len(sizes)))])
                inc.notify(idx, size_changed=True)
        assert_matches_full(inc, view, corner)

    def test_refresh_after_bulk_change(self, view):
        inc = IncrementalSTA(view)
        view.circuit.set_uniform(size=2.0, vth=VthClass.HIGH)
        inc.refresh()
        assert_matches_full(inc, view)


def fanout_cone(view, index):
    """Gate indices transitively driven by ``index`` (inclusive)."""
    cone = {index}
    stack = [index]
    while stack:
        for consumer in view.consumer_pins[stack.pop()]:
            c = int(consumer)
            if c not in cone:
                cone.add(c)
                stack.append(c)
    return cone


class TestDirtyCone:
    """A move changes exactly the values in its dirty cone."""

    def test_vth_swap_leaves_off_cone_arrivals_untouched(self, view):
        inc = IncrementalSTA(view)
        before = inc.arrivals.copy()
        idx = 30
        view.gates[idx].vth = VthClass.HIGH
        inc.notify(idx, size_changed=False)
        cone = fanout_cone(view, idx)
        outside = np.array(sorted(set(range(view.n_gates)) - cone))
        assert np.array_equal(inc.arrivals[outside], before[outside])
        assert inc.arrivals[idx] != before[idx]

    def test_vth_swap_recomputes_only_the_swapped_delay(self, view):
        inc = IncrementalSTA(view)
        before = inc.delays.copy()
        view.gates[30].vth = VthClass.HIGH
        inc.notify(30, size_changed=False)
        changed = np.flatnonzero(inc.delays != before)
        assert changed.tolist() == [30]

    def test_resize_recomputes_fanin_driver_delays(self, view):
        # A downsize shrinks the gate's input capacitance: every fanin
        # driver sees a lighter load and must get a fresh delay.
        inc = IncrementalSTA(view)
        idx = next(
            i for i in range(view.n_gates) if view.fanin_gates[i].size >= 2
        )
        fanins = {int(f) for f in view.fanin_gates[idx]}
        before = inc.delays.copy()
        view.gates[idx].size = 4.0
        inc.notify(idx, size_changed=True)
        changed = set(np.flatnonzero(inc.delays != before).tolist())
        assert changed & fanins
        assert changed <= fanins | {idx}

    def test_noop_notify_changes_nothing(self, view):
        inc = IncrementalSTA(view)
        arrivals = inc.arrivals.copy()
        delays = inc.delays.copy()
        inc.notify(12, size_changed=False)  # state did not actually change
        assert np.array_equal(inc.arrivals, arrivals)
        assert np.array_equal(inc.delays, delays)

    def test_point_update_bitwise_matches_full_recompute(self, view):
        # Not approx: a query after a move runs the same array passes as
        # refresh(), so it must land on bit-identical arrivals.
        inc = IncrementalSTA(view)
        view.gates[40].vth = VthClass.HIGH
        inc.notify(40, size_changed=False)
        full = IncrementalSTA(view)
        assert np.array_equal(inc.delays, full.delays)
        assert np.array_equal(inc.arrivals, full.arrivals)

    def test_randomized_sequence_bitwise_matches_full_recompute(self, view, spec):
        corner = slow_corner(spec)
        inc = IncrementalSTA(view, corner)
        rng = np.random.default_rng(23)
        sizes = view.library.sizes
        for _ in range(60):
            idx = int(rng.integers(view.n_gates))
            gate = view.gates[idx]
            roll = rng.random()
            if roll < 0.4:
                gate.vth = gate.vth.other()
                inc.notify(idx, size_changed=False)
            elif roll < 0.7:
                gate.length_bias = float(rng.choice([0.0, 2e-9, 6e-9]))
                inc.notify(idx, size_changed=False)
            else:
                gate.size = float(sizes[int(rng.integers(len(sizes)))])
                inc.notify(idx, size_changed=True)
        full = IncrementalSTA(view, corner)
        assert np.array_equal(inc.delays, full.delays)
        assert np.array_equal(inc.arrivals, full.arrivals)
        assert inc.circuit_delay() == full.circuit_delay()


class TestLazyUpdates:
    """Moves only mark the tracker stale; a query pays one full pass."""

    def test_notify_defers_work_to_the_next_query(self, view, monkeypatch):
        inc = IncrementalSTA(view)
        passes = []
        original = incremental.gate_delays

        def counted(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(incremental, "gate_delays", counted)
        for index in range(50):
            view.gates[index].vth = VthClass.HIGH
            inc.notify(index, size_changed=False)
        assert passes == []
        inc.circuit_delay()
        inc.arrivals
        inc.delays
        assert passes == [1]
        assert_matches_full(inc, view)

    def test_query_without_moves_reruns_nothing(self, view, monkeypatch):
        inc = IncrementalSTA(view)
        monkeypatch.setattr(incremental, "gate_delays", None)
        assert_matches_full(inc, view)


class TestLeakageMemo:
    def test_randomized_moves_and_reverts_stay_bitwise(self, c432):
        view = TimingView(c432)
        memo = GateLeakageMemo(c432)
        rng = np.random.default_rng(31)
        sizes = view.library.sizes
        start = c432.assignment()
        probe = list(candidate_moves(view, True, True, True))
        gains = [leakage_gain(view, m, memo) for m in probe]
        assert np.array_equal(memo.currents(), gate_leakage_currents(c432))
        for _ in range(60):
            index = int(rng.integers(view.n_gates))
            gate = view.gates[index]
            roll = rng.random()
            if roll < 0.4:
                move = Move(index, "vth", new_vth=gate.vth.other())
            elif roll < 0.7:
                bias = float(rng.choice([0.0, 2e-9, 6e-9]))
                move = Move(index, "lbias", new_lbias=bias)
            else:
                size = float(sizes[rng.integers(len(sizes))])
                move = Move(index, "size", new_size=size)
            old = apply_move(view, move)
            assert np.array_equal(memo.currents(), gate_leakage_currents(c432))
            if rng.random() < 0.5:
                revert_move(view, move, old)
                assert np.array_equal(memo.currents(), gate_leakage_currents(c432))
        c432.apply_assignment(start)
        assert np.array_equal(memo.currents(), gate_leakage_currents(c432))
        assert [leakage_gain(view, m, memo) for m in probe] == gains
        fresh = GateLeakageMemo(c432)
        assert [leakage_gain(view, m, fresh) for m in probe] == gains

    def test_currents_are_a_copy(self, c432):
        memo = GateLeakageMemo(c432)
        memo.currents()[:] = 0.0
        assert np.array_equal(memo.currents(), gate_leakage_currents(c432))


class TestEngineIntegration:
    def test_deterministic_flow_unaffected(self, spec):
        # The incremental tracker must not change the deterministic flow's
        # outcome, only its cost: re-validate the final corner delay with
        # full STA.
        from repro.analysis import prepare
        from repro.core import OptimizerConfig, optimize_deterministic

        setup = prepare("c432")
        det = optimize_deterministic(
            setup.circuit, setup.spec, setup.varmodel, config=OptimizerConfig()
        )
        corner = slow_corner(setup.spec, 3.0)
        full = run_sta(setup.circuit, corner=corner)
        assert full.circuit_delay <= det.target_delay * (1.0 + 1e-12)


class TestLengthBiasUpdates:
    def test_lbias_change_propagates(self, view):
        inc = IncrementalSTA(view)
        view.gates[7].length_bias = 6e-9
        inc.notify(7, size_changed=False)
        assert_matches_full(inc, view)

    def test_mixed_move_kinds_randomized(self, view, spec):
        corner = slow_corner(spec)
        inc = IncrementalSTA(view, corner)
        rng = np.random.default_rng(11)
        for _ in range(90):
            idx = int(rng.integers(view.n_gates))
            gate = view.gates[idx]
            roll = rng.random()
            if roll < 0.4:
                gate.vth = gate.vth.other()
                inc.notify(idx, size_changed=False)
            elif roll < 0.7:
                gate.length_bias = float(rng.choice([0.0, 2e-9, 4e-9, 8e-9]))
                inc.notify(idx, size_changed=False)
            else:
                sizes = view.library.sizes
                gate.size = float(sizes[int(rng.integers(len(sizes)))])
                inc.notify(idx, size_changed=True)
        assert_matches_full(inc, view, corner)

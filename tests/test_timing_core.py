"""The array-form timing core against the scalar implementations it replaced.

The ``reference_*`` functions below are the per-gate topological loops
STA and SSTA used to run, kept verbatim as oracles: nominal delays
through ``load_cap_of`` one gate at a time, STA with a per-gate max/min,
and SSTA as a per-gate left fold of :class:`Canonical` Clark merges with
the scalar criticality back-propagation.  The deterministic flow's two
per-move paths are kept the same way: :class:`ReferenceIncrementalSTA`
is the event-driven tracker that walked the changed cone on every
``notify``, and :class:`ReferenceGateLeakage` reads every gate's leakage
straight from ``Cell.leakage`` with no memo.

Equivalence contract checked here, over c17, c432, c880 and generated
DAGs under randomized size / Vth / length-bias states:

* nominal delays, load caps, ``gate_delay_means`` and the gate delay
  canonicals are bitwise equal;
* STA arrivals, required times, circuit delay and critical path are
  bitwise equal (``max``/``min`` are exact);
* SSTA circuit and arrival mean/sigma agree to 1e-12 relative (vector
  ``erf``/``hypot``/dot products differ from the scalar ones by ulps);
* criticality agrees to 1e-9 absolute (the ``(m_a - m_b)/theta``
  cancellation amplifies that ulp drift);
* the lazy incremental tracker, the gate-leakage memo and both
  optimizer flows are bitwise equal to their references;
* the statistical flow makes the same moves as a strategy that runs the
  full lognormal double sum every pass and a fresh SSTA in every
  analysis, with pass objectives within 1e-12 relative and fewer SSTAs.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from repro.circuit import Circuit, build_variation_model, make_benchmark
from repro.circuit.generators import random_logic
from repro.core import optimize_deterministic, optimize_statistical
from repro.core.sizing import upsize_effect
from repro.errors import TimingError
from repro.power import gate_leakage_currents, signal_probabilities
from repro.tech import VthClass, fast_corner, slow_corner
from repro.timing import (
    Canonical,
    TimingView,
    gate_delay_canonicals,
    run_ssta,
    run_sta,
)
from repro.timing.graph import LevelSchedule
from repro.timing.incremental import IncrementalSTA
from repro.variation import VariationSpec

SSTA_REL = 1e-12
CRIT_ABS = 1e-9
LENGTH_BIASES = (0.0, 2e-9, 4e-9)


# -- scalar references ---------------------------------------------------------


def reference_nominal_delays(view):
    return np.array([view.nominal_delay_of(i) for i in range(view.n_gates)])


def reference_gate_canonicals(view, varmodel):
    delays = reference_nominal_delays(view)
    vths = view.vths()
    vth_indep = varmodel.vth_indep_for(view.rdf_relative_area())
    drive = {v: view.library.drive_model(v) for v in set(vths)}
    out = []
    for i in range(view.n_gates):
        model = drive[vths[i]]
        d = float(delays[i])
        sens = d * (
            model.d_lnr_d_deltal * varmodel.l_loadings[i]
            + model.d_lnr_d_deltavth * varmodel.vth_loadings[i]
        )
        indep = d * float(
            np.hypot(
                model.d_lnr_d_deltal * varmodel.l_indep,
                model.d_lnr_d_deltavth * vth_indep[i],
            )
        )
        out.append(Canonical(d, sens, indep))
    return out


def reference_sta(view, corner=None, target_delay=None):
    n = view.n_gates
    delays = reference_nominal_delays(view)
    if corner is not None:
        for i, gate in enumerate(view.gates):
            model = view.library.drive_model(gate.vth)
            shift = (
                model.d_lnr_d_deltal * corner.delta_l
                + model.d_lnr_d_deltavth * corner.delta_vth0
            )
            delays[i] *= 1.0 + shift + 0.5 * shift * shift
    arrivals = np.empty(n)
    for i in range(n):
        fanins = view.fanin_gates[i]
        worst_in = float(arrivals[fanins].max()) if fanins.size else 0.0
        arrivals[i] = worst_in + delays[i]
    po = view.primary_output_indices()
    circuit_delay = float(arrivals[po].max())
    if target_delay is None:
        target_delay = circuit_delay
    required = np.full(n, math.inf)
    required[po] = target_delay
    for i in range(n - 1, -1, -1):
        req_i = required[i]
        if math.isinf(req_i):
            continue
        latest_input_arrival = req_i - delays[i]
        for f in view.fanin_gates[i]:
            if latest_input_arrival < required[f]:
                required[f] = latest_input_arrival
    required[np.isinf(required)] = target_delay
    return delays, arrivals, required, circuit_delay


def reference_ssta(view, varmodel):
    """The historical per-gate SSTA fold: (arrivals, sink, criticality)."""
    delays = reference_gate_canonicals(view, varmodel)
    n = view.n_gates
    arrivals = [None] * n
    merge_shares = [np.empty(0)] * n
    for i in range(n):
        fanins = view.fanin_gates[i]
        if fanins.size == 0:
            arrivals[i] = delays[i]
            continue
        shares = np.ones(fanins.size)
        acc = arrivals[int(fanins[0])]
        for k in range(1, fanins.size):
            acc, tightness = acc.maximum_with_tightness(arrivals[int(fanins[k])])
            shares[:k] *= tightness
            shares[k] = 1.0 - tightness
        arrivals[i] = acc.plus(delays[i])
        merge_shares[i] = shares

    po = view.primary_output_indices()
    po_shares = np.ones(po.size)
    sink = arrivals[int(po[0])]
    for k in range(1, po.size):
        sink, tightness = sink.maximum_with_tightness(arrivals[int(po[k])])
        po_shares[:k] *= tightness
        po_shares[k] = 1.0 - tightness

    criticality = np.zeros(n)
    criticality[po] += po_shares
    for i in range(n - 1, -1, -1):
        c = criticality[i]
        if c == 0.0:
            continue
        fanins = view.fanin_gates[i]
        for k in range(fanins.size):
            criticality[int(fanins[k])] += c * merge_shares[i][k]
    return arrivals, sink, criticality


class ReferenceIncrementalSTA:
    """The event-driven tracker: a heap walk of the changed cone per move."""

    def __init__(self, view, corner=None):
        self.view = view
        self._corner = corner
        self.delays = np.empty(view.n_gates)
        self.arrivals = np.empty(view.n_gates)
        self._po = view.primary_output_indices()
        self.refresh()

    def circuit_delay(self):
        return float(self.arrivals[self._po].max())

    def refresh(self):
        delays, arrivals, _, _ = reference_sta(self.view, self._corner)
        self.delays[:] = delays
        self.arrivals[:] = arrivals

    def notify(self, index, size_changed):
        if not 0 <= index < self.view.n_gates:
            raise TimingError(f"gate index {index} out of range")
        dirty = [index]
        if size_changed:
            dirty.extend(int(f) for f in self.view.fanin_gates[index])
        heap = []
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

    def _gate_delay(self, index):
        delay = self.view.nominal_delay_of(index)
        if self._corner is not None:
            model = self.view.library.drive_model(self.view.gates[index].vth)
            shift = (
                model.d_lnr_d_deltal * self._corner.delta_l
                + model.d_lnr_d_deltavth * self._corner.delta_vth0
            )
            delay *= 1.0 + shift + 0.5 * shift * shift
        return delay


def reference_gate_leakage_currents(circuit, probs=None, corner=None):
    """The per-gate ``Cell.leakage`` loop, one fresh evaluation per gate."""
    circuit.freeze()
    if probs is None:
        probs = signal_probabilities(circuit)
    delta_l = corner.delta_l if corner is not None else 0.0
    delta_v = corner.delta_vth0 if corner is not None else 0.0
    currents = np.empty(circuit.n_gates)
    for gate in circuit.indexed_gates():
        cell = circuit.cell_of(gate)
        input_probs = [probs[f] for f in gate.fanins]
        currents[circuit.gate_index(gate.name)] = cell.leakage(
            gate.size, gate.vth, input_probs,
            delta_l=delta_l + gate.length_bias, delta_vth0=delta_v,
        )
    return currents


class ReferenceGateLeakage:
    """:class:`repro.power.GateLeakageMemo`'s interface with no memo."""

    def __init__(self, circuit, probs=None):
        self.circuit = circuit
        self.probs = signal_probabilities(circuit) if probs is None else probs

    def currents(self):
        return reference_gate_leakage_currents(self.circuit, self.probs)

    def current(self, index, size, vth, length_bias):
        gate = self.circuit.indexed_gates()[index]
        input_probs = tuple(self.probs[f] for f in gate.fanins)
        return self.circuit.cell_of(gate).leakage(
            size, vth, input_probs, delta_l=length_bias
        )


# -- circuits and states -------------------------------------------------------


def randomize(circuit, rng):
    """Random size / Vth / length-bias state on every gate."""
    sizes = circuit.library.sizes
    for gate in circuit.gates():
        gate.size = float(sizes[rng.integers(len(sizes))])
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = LENGTH_BIASES[rng.integers(len(LENGTH_BIASES))]


def build(lib, name, seed):
    if name.startswith("dag"):
        circuit = random_logic(
            lib, name, n_inputs=16, n_outputs=8, n_gates=220, depth=14, seed=seed
        )
    else:
        circuit = make_benchmark(name, lib)
    randomize(circuit, np.random.default_rng(seed))
    return circuit


CASES = [("c17", 1), ("c432", 2), ("c880", 3), ("dag-a", 4), ("dag-b", 5)]
CASE_IDS = [name for name, _ in CASES]


@pytest.fixture(params=CASES, ids=CASE_IDS)
def case(request, lib, spec):
    name, seed = request.param
    circuit = build(lib, name, seed)
    return TimingView(circuit), build_variation_model(circuit, spec)


def assert_ssta_matches(view, varmodel):
    result = run_ssta(view, varmodel)
    arrivals, sink, criticality = reference_ssta(view, varmodel)
    assert result.circuit_delay.mean == pytest.approx(sink.mean, rel=SSTA_REL)
    assert result.circuit_delay.sigma == pytest.approx(sink.sigma, rel=SSTA_REL)
    np.testing.assert_allclose(
        result.arrival_mean, [a.mean for a in arrivals], rtol=SSTA_REL, atol=0
    )
    np.testing.assert_allclose(
        [a.sigma for a in result.arrivals], [a.sigma for a in arrivals],
        rtol=SSTA_REL, atol=0,
    )
    np.testing.assert_allclose(result.criticality, criticality, rtol=0, atol=CRIT_ABS)
    return result


# -- delay model ---------------------------------------------------------------


class TestDelayModel:
    def test_nominal_delays_bitwise(self, case):
        view, _ = case
        assert np.array_equal(view.nominal_delays(), reference_nominal_delays(view))

    def test_load_caps_bitwise(self, case):
        view, _ = case
        expected = [view.load_cap_of(i) for i in range(view.n_gates)]
        assert np.array_equal(view.load_caps(), expected)

    def test_state_changes_are_seen(self, case):
        view, _ = case
        view.nominal_delays()
        randomize(view.circuit, np.random.default_rng(99))
        assert np.array_equal(view.nominal_delays(), reference_nominal_delays(view))

    def test_drive_sensitivities_follow_vth(self, case):
        view, _ = case
        d_l, d_vth = view.drive_sensitivities()
        for i, gate in enumerate(view.gates):
            model = view.library.drive_model(gate.vth)
            assert d_l[i] == model.d_lnr_d_deltal
            assert d_vth[i] == model.d_lnr_d_deltavth

    def test_gate_delay_canonicals_bitwise(self, case):
        view, varmodel = case
        got = gate_delay_canonicals(view, varmodel)
        for new, old in zip(got, reference_gate_canonicals(view, varmodel)):
            assert new.mean == old.mean and new.indep == old.indep
            assert np.array_equal(new.sens, old.sens)

    def test_gate_delay_means_bitwise(self, case):
        view, varmodel = case
        means = run_ssta(view, varmodel).gate_delay_means
        assert np.array_equal(means, reference_nominal_delays(view))


# -- STA -----------------------------------------------------------------------


class TestSTA:
    @pytest.mark.parametrize("corner_kind", ["nominal", "slow", "fast"])
    def test_bitwise_equal_to_reference(self, case, spec, corner_kind):
        view, _ = case
        corner = {"nominal": None, "slow": slow_corner(spec),
                  "fast": fast_corner(spec)}[corner_kind]
        result = run_sta(view, corner=corner)
        delays, arrivals, required, circuit_delay = reference_sta(view, corner)
        assert np.array_equal(result.gate_delays, delays)
        assert np.array_equal(result.arrivals, arrivals)
        assert np.array_equal(result.required, required)
        assert result.circuit_delay == circuit_delay

    def test_bitwise_with_explicit_target(self, case):
        view, _ = case
        target = 1.2 * run_sta(view).circuit_delay
        result = run_sta(view, target_delay=target)
        _, _, required, _ = reference_sta(view, target_delay=target)
        assert np.array_equal(result.required, required)

    def test_critical_path_follows_latest_fanins(self, case):
        view, _ = case
        result = run_sta(view)
        path = [view.circuit.gate_index(name) for name in result.critical_path]
        assert result.arrivals[path[-1]] == result.circuit_delay
        for prev, cur in zip(path, path[1:]):
            assert result.arrivals[prev] == result.arrivals[view.fanin_gates[cur]].max()


# -- SSTA ----------------------------------------------------------------------


class TestSSTA:
    def test_matches_reference(self, case):
        view, varmodel = case
        assert_ssta_matches(view, varmodel)

    def test_matches_reference_after_state_change(self, case):
        view, varmodel = case
        run_ssta(view, varmodel)
        randomize(view.circuit, np.random.default_rng(7))
        assert_ssta_matches(view, varmodel)

    def test_arrivals_view_is_built_from_the_arrays(self, case):
        view, varmodel = case
        result = run_ssta(view, varmodel)
        arrivals = result.arrivals
        assert arrivals is result.arrivals  # built once
        assert len(arrivals) == view.n_gates
        for i in (0, view.n_gates // 2, view.n_gates - 1):
            assert arrivals[i].mean == result.arrival_mean[i]
            assert arrivals[i].indep == result.arrival_indep[i]
            assert np.array_equal(arrivals[i].sens, result.arrival_sens[i])

    def test_schedule_is_built_once_per_view(self, case):
        view, varmodel = case
        schedule = view.schedule
        run_ssta(view, varmodel)
        run_sta(view)
        assert view.schedule is schedule


class TestEdgeCases:
    def test_degenerate_theta_identical_fanins(self, lib, tech):
        # Inter-die-only variation: no private randomness, so two
        # identical gates have identical canonicals and Clark's theta is
        # exactly zero.
        spec = VariationSpec(
            sigma_l_total=0.05 * tech.lnom, sigma_vth_total=0.018,
            inter_fraction_l=1.0, spatial_fraction_l=0.0,
            inter_fraction_vth=1.0, spatial_fraction_vth=0.0,
        )
        c = Circuit("twins", lib)
        for net in ("a", "b"):
            c.add_input(net)
        c.add_gate("u", "NAND2", ["a", "b"])
        c.add_gate("v", "NAND2", ["a", "b"])
        c.add_gate("y", "NAND2", ["u", "v"])
        c.add_output("y")
        view = TimingView(c)
        varmodel = build_variation_model(c, spec)
        result = assert_ssta_matches(view, varmodel)
        u, v = c.gate_index("u"), c.gate_index("v")
        assert result.criticality[u] == 1.0
        assert result.criticality[v] == 0.0

    def test_fanin_free_gates_only(self, lib, spec):
        c = Circuit("flat", lib)
        for net in ("a", "b", "c"):
            c.add_input(net)
        c.add_gate("g1", "NAND2", ["a", "b"])
        c.add_gate("g2", "NOR2", ["b", "c"])
        c.add_output("g1")
        c.add_output("g2")
        view = TimingView(c)
        result = assert_ssta_matches(view, build_variation_model(c, spec))
        assert len(view.schedule.levels) == 1
        assert result.criticality.sum() == pytest.approx(1.0, abs=1e-12)

    def test_output_that_also_feeds_gates(self, lib, spec):
        c = Circuit("tap", lib)
        for net in ("a", "b"):
            c.add_input(net)
        c.add_gate("g1", "NAND2", ["a", "b"])
        c.add_gate("g2", "INV", ["g1"])
        c.add_gate("g3", "NAND2", ["g2", "a"])
        c.add_output("g1")
        c.add_output("g3")
        view = TimingView(c)
        result = assert_ssta_matches(view, build_variation_model(c, spec))
        # g1 is critical as an endpoint and through g3's cone.
        assert result.criticality[c.gate_index("g1")] == pytest.approx(1.0, abs=1e-12)
        _, arrivals, required, _ = reference_sta(view)
        sta = run_sta(view)
        assert np.array_equal(sta.arrivals, arrivals)
        assert np.array_equal(sta.required, required)

    def test_single_gate_circuit(self, lib, spec):
        c = Circuit("one", lib)
        c.add_input("a")
        c.add_gate("g", "INV", ["a"])
        c.add_output("g")
        view = TimingView(c)
        varmodel = build_variation_model(c, spec)
        result = assert_ssta_matches(view, varmodel)
        delay = gate_delay_canonicals(view, varmodel)[0]
        assert result.circuit_delay.mean == delay.mean
        assert result.criticality.tolist() == [1.0]
        assert run_sta(view).circuit_delay == reference_sta(view)[3]


class TestInterfaces:
    def test_circuit_input_builds_its_own_view(self, lib, spec):
        circuit = build(lib, "c17", 1)
        varmodel = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        by_circuit = run_ssta(circuit, varmodel)
        by_view = run_ssta(view, varmodel)
        assert by_circuit.circuit_delay.mean == by_view.circuit_delay.mean
        assert np.array_equal(run_sta(circuit).arrivals, run_sta(view).arrivals)

    def test_result_queries(self, case):
        view, varmodel = case
        result = run_ssta(view, varmodel)
        d = result.circuit_delay
        assert result.delay_at_yield(0.5) == pytest.approx(d.mean, rel=1e-12)
        assert result.timing_yield(d.mean) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(TimingError):
            result.timing_yield(0.0)
        sta = run_sta(view, target_delay=1.05 * run_sta(view).circuit_delay)
        assert sta.meets_target and sta.worst_slack > 0
        with pytest.raises(TimingError):
            run_sta(view, target_delay=-1.0)

    def test_model_size_mismatch(self, lib, spec, case):
        view, _ = case
        other = build(lib, "c17", 1) if view.n_gates != 6 else build(lib, "c432", 1)
        with pytest.raises(TimingError, match="variation model covers"):
            run_ssta(view, build_variation_model(other, spec))

    def test_empty_schedule(self):
        schedule = LevelSchedule.build(())
        assert (schedule.n_gates, schedule.levels, schedule.active) == (0, (), ())

    def test_schedule_prefixes(self, case):
        view, _ = case
        counts = [len(f) for f in view.fanin_gates]
        for (gates, fanins), active in zip(view.schedule.levels, view.schedule.active):
            assert fanins.shape == (gates.size, len(active))
            for j, rows in enumerate(active):
                assert all(counts[g] > j for g in gates[:rows])
                assert all(counts[g] <= j for g in gates[rows:])


class TestDuplicatePins:
    """A net on two pins of one gate is one timing arc."""

    @pytest.fixture
    def doubled(self, lib, spec):
        c = Circuit("doubled", lib)
        for net in ("a", "b"):
            c.add_input(net)
        c.add_gate("x", "NAND2", ["a", "b"])
        c.add_gate("y", "NAND2", ["x", "x"])
        c.add_output("y")
        return c, build_variation_model(c, spec)

    def test_fanins_unique_but_pins_load_twice(self, doubled):
        c, _ = doubled
        view = TimingView(c)
        x, y = c.gate_index("x"), c.gate_index("y")
        assert view.fanin_gates[y].tolist() == [x]
        assert view.consumer_pins[x].tolist() == [y, y]
        assert np.array_equal(view.load_caps(), [view.load_cap_of(i) for i in (0, 1)])

    def test_ssta_does_not_max_a_net_with_itself(self, doubled):
        c, varmodel = doubled
        view = TimingView(c)
        result = run_ssta(view, varmodel)
        x, y = c.gate_index("x"), c.gate_index("y")
        delays = gate_delay_canonicals(view, varmodel)
        assert result.circuit_delay.mean == result.arrival_mean[x] + delays[y].mean
        assert result.arrival_mean[x] == delays[x].mean
        assert result.criticality.tolist() == [1.0, 1.0]

    def test_upsize_effect_counts_both_pins(self, doubled):
        c, _ = doubled
        view = TimingView(c)
        x, y = c.gate_index("x"), c.gate_index("y")
        cell, load = view.cells[y], view.load_cap_of(y)
        bigger = view.library.next_size_up(view.gates[y].size)
        i_old, s_old = view.delay_coefficients(y)
        view.gates[y].size, old_size = bigger, view.gates[y].size
        i_new, s_new = view.delay_coefficients(y)
        view.gates[y].size = old_size
        own = (i_new - i_old) + (s_new - s_old) * load
        delta_cap = cell.input_cap(bigger) - cell.input_cap(old_size)
        _, slope_x = view.delay_coefficients(x)
        assert upsize_effect(view, y, bigger) == own + slope_x * delta_cap * 2

    def test_sta_unchanged(self, doubled):
        c, _ = doubled
        view = TimingView(c)
        sta = run_sta(view)
        delays = view.nominal_delays()
        assert sta.circuit_delay == delays[0] + delays[1]


# -- incremental STA and the optimizer -----------------------------------------


class TestIncrementalAgainstFullSTA:
    @pytest.mark.parametrize("corner_kind", ["nominal", "slow"])
    def test_random_moves_stay_bitwise(self, case, spec, corner_kind):
        view, _ = case
        corner = slow_corner(spec) if corner_kind == "slow" else None
        inc = IncrementalSTA(view, corner)
        rng = np.random.default_rng(11)
        sizes = view.library.sizes
        for _ in range(40):
            index = int(rng.integers(view.n_gates))
            gate = view.gates[index]
            kind = rng.integers(3)
            if kind == 0:
                gate.vth = gate.vth.other()
            elif kind == 1:
                gate.size = float(sizes[rng.integers(len(sizes))])
            else:
                gate.length_bias = LENGTH_BIASES[rng.integers(len(LENGTH_BIASES))]
            inc.notify(index, size_changed=kind == 1)
            full = run_sta(view, corner=corner)
            assert np.array_equal(inc.arrivals, full.arrivals)
            assert inc.circuit_delay() == full.circuit_delay
        inc.refresh()
        assert np.array_equal(inc.arrivals, run_sta(view, corner=corner).arrivals)


    @pytest.mark.parametrize("corner_kind", ["nominal", "slow"])
    def test_lazy_tracker_matches_the_event_driven_reference(
        self, case, spec, corner_kind
    ):
        view, _ = case
        corner = slow_corner(spec) if corner_kind == "slow" else None
        inc = IncrementalSTA(view, corner)
        ref = ReferenceIncrementalSTA(view, corner)
        rng = np.random.default_rng(5)
        sizes = view.library.sizes
        for _ in range(40):
            index = int(rng.integers(view.n_gates))
            gate = view.gates[index]
            kind = rng.integers(3)
            if kind == 0:
                gate.vth = gate.vth.other()
            elif kind == 1:
                gate.size = float(sizes[rng.integers(len(sizes))])
            else:
                gate.length_bias = LENGTH_BIASES[rng.integers(len(LENGTH_BIASES))]
            inc.notify(index, size_changed=kind == 1)
            ref.notify(index, size_changed=kind == 1)
            assert np.array_equal(inc.delays, ref.delays)
            assert np.array_equal(inc.arrivals, ref.arrivals)
            assert inc.circuit_delay() == ref.circuit_delay()


class TestLeakageAgainstReference:
    @pytest.mark.parametrize("corner_kind", ["nominal", "slow"])
    def test_gate_leakage_currents_bitwise(self, case, spec, corner_kind):
        view, _ = case
        corner = slow_corner(spec) if corner_kind == "slow" else None
        assert np.array_equal(
            gate_leakage_currents(view.circuit, corner=corner),
            reference_gate_leakage_currents(view.circuit, corner=corner),
        )


class _ReferenceSSTAResult:
    """Just the fields the statistical optimizer reads."""

    def __init__(self, view, varmodel):
        arrivals, sink, criticality = reference_ssta(view, varmodel)
        self.arrivals = arrivals
        self.circuit_delay = sink
        self.criticality = criticality
        self.gate_delay_means = reference_nominal_delays(view)

    def timing_yield(self, target_delay):
        return self.circuit_delay.cdf(target_delay)


@pytest.mark.parametrize("name", ["c432", "c880"])
def test_statistical_flow_reaches_the_reference_assignment(
    name, lib, spec, monkeypatch
):
    def optimize():
        circuit = make_benchmark(name, lib)
        return optimize_statistical(circuit, spec, build_variation_model(circuit, spec))

    fast = optimize()
    calls = []

    def reference_run_ssta(circuit_or_view, varmodel, config=None):
        view = (
            circuit_or_view if isinstance(circuit_or_view, TimingView)
            else TimingView(circuit_or_view, config)
        )
        calls.append(view.n_gates)
        return _ReferenceSSTAResult(view, varmodel)

    from repro.core import metrics, statistical

    monkeypatch.setattr(statistical, "run_ssta", reference_run_ssta)
    monkeypatch.setattr(metrics, "run_ssta", reference_run_ssta)
    reference = optimize()
    assert calls, "the reference SSTA was never consulted"
    assert fast.final_assignment == reference.final_assignment
    assert fast.moves_applied == reference.moves_applied
    assert fast.after.hc_leakage == reference.after.hc_leakage


@pytest.mark.parametrize("name", ["c432", "c880"])
def test_statistical_flow_matches_the_full_objective_reference(
    name, lib, spec, monkeypatch
):
    # The reference strategy recomputes what the fast one carries from
    # pass to pass: the full lognormal double sum as each pass's
    # objective, and a fresh SSTA in every analysis.
    from repro.core import statistical
    from repro.power.statistical import analyze_statistical_leakage

    ssta_calls = []

    def counted_run_ssta(*args, **kwargs):
        ssta_calls.append(1)
        return run_ssta(*args, **kwargs)

    class ReferenceStrategy(statistical.StatisticalStrategy):
        def analyze(self):
            self._ssta = None
            return super().analyze()

        def objective(self):
            return analyze_statistical_leakage(
                self.view.circuit,
                self.varmodel,
                derate_rdf_with_size=self.config.derate_rdf_with_size,
                leakage=self.leakage,
            ).high_confidence_power(self.config.confidence_k)

    def optimize():
        circuit = make_benchmark(name, lib)
        ssta_calls.clear()
        result = optimize_statistical(
            circuit, spec, build_variation_model(circuit, spec)
        )
        return result, len(ssta_calls)

    monkeypatch.setattr(statistical, "run_ssta", counted_run_ssta)
    fast, fast_ssta = optimize()
    monkeypatch.setattr(statistical, "StatisticalStrategy", ReferenceStrategy)
    reference, reference_ssta = optimize()
    assert fast.final_assignment == reference.final_assignment
    assert fast.moves_applied == reference.moves_applied
    assert fast.after.hc_leakage == reference.after.hc_leakage
    assert len(fast.passes) == len(reference.passes)
    for got, want in zip(fast.passes, reference.passes):
        assert (got.candidates, got.applied, got.reverted) == (
            want.candidates, want.applied, want.reverted
        )
        assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)
    assert fast_ssta < reference_ssta


@pytest.mark.parametrize("name", ["c432", "c880"])
def test_deterministic_flow_reaches_the_reference_assignment(
    name, lib, spec, monkeypatch
):
    def optimize():
        circuit = make_benchmark(name, lib)
        return optimize_deterministic(
            circuit, spec, build_variation_model(circuit, spec)
        )

    fast = optimize()
    trackers, leakage_reads = [], []

    class Tracker(ReferenceIncrementalSTA):
        def __init__(self, view, corner=None):
            trackers.append(view.n_gates)
            super().__init__(view, corner)

    def reference_currents(circuit, probs=None, corner=None):
        leakage_reads.append(circuit.n_gates)
        return reference_gate_leakage_currents(circuit, probs, corner)

    from repro.core import deterministic
    from repro.power import leakage, statistical

    monkeypatch.setattr(deterministic, "IncrementalSTA", Tracker)
    monkeypatch.setattr(deterministic, "GateLeakageMemo", ReferenceGateLeakage)
    monkeypatch.setattr(leakage, "gate_leakage_currents", reference_currents)
    monkeypatch.setattr(statistical, "gate_leakage_currents", reference_currents)
    reference = optimize()
    assert trackers, "the reference tracker was never consulted"
    assert leakage_reads, "the reference leakage loop was never consulted"
    assert fast.final_assignment == reference.final_assignment
    assert fast.moves_applied == reference.moves_applied
    assert fast.after.hc_leakage == reference.after.hc_leakage
    assert fast.passes == reference.passes  # per-pass objectives included

"""Analytic statistical leakage vs Monte Carlo and its structure."""

import numpy as np
import pytest

from repro.circuit import build_variation_model
from repro.errors import PowerError
from repro.power import (
    analyze_leakage,
    analyze_statistical_leakage,
    gate_log_leakage_terms,
    run_monte_carlo_leakage,
)
from repro.core.moves import Move, apply_move, revert_move
from repro.power import GateLeakageMemo
from repro.tech import VthClass
from repro.timing import TimingView
from repro.variation.lognormal import LognormalSum, sum_of_lognormals

#: Tracker-vs-full-sum tolerance on the second moment (the mean is bitwise).
TRACKER_REL = 1e-12


class TestStructure:
    def test_terms_shapes(self, c432, varmodel_c432):
        log_means, loadings, indep = gate_log_leakage_terms(c432, varmodel_c432)
        n = c432.n_gates
        assert log_means.shape == (n,)
        assert loadings.shape == (n, varmodel_c432.n_globals)
        assert indep.shape == (n,)
        assert np.all(indep > 0)

    def test_log_means_match_nominal(self, c432, varmodel_c432):
        log_means, _, _ = gate_log_leakage_terms(c432, varmodel_c432)
        from repro.power import gate_leakage_currents

        assert np.allclose(np.exp(log_means), gate_leakage_currents(c432))

    def test_model_mismatch_rejected(self, c432, rca8, spec):
        vm = build_variation_model(rca8, spec)
        with pytest.raises(PowerError, match="variation model covers"):
            analyze_statistical_leakage(c432, vm)


class TestDistribution:
    def test_mean_exceeds_nominal(self, c432, varmodel_c432):
        stat = analyze_statistical_leakage(c432, varmodel_c432)
        nominal = analyze_leakage(c432).total_power
        assert stat.mean_power > nominal
        assert stat.nominal_power == pytest.approx(nominal, rel=1e-9)
        assert stat.mean_inflation > 1.05

    def test_percentiles_ordered(self, c432, varmodel_c432):
        stat = analyze_statistical_leakage(c432, varmodel_c432)
        p50 = stat.percentile_power(0.5)
        p95 = stat.percentile_power(0.95)
        p99 = stat.percentile_power(0.99)
        assert p50 < stat.mean_power < p95 < p99

    def test_high_confidence_point(self, c432, varmodel_c432):
        stat = analyze_statistical_leakage(c432, varmodel_c432)
        hc = stat.high_confidence_power(1.645)
        assert hc == pytest.approx(
            stat.mean_power + 1.645 * stat.std_current * stat.vdd
        )

    def test_matches_monte_carlo(self, c432, varmodel_c432):
        stat = analyze_statistical_leakage(c432, varmodel_c432)
        mc = run_monte_carlo_leakage(c432, varmodel_c432, n_samples=6000, seed=21)
        assert stat.mean_power == pytest.approx(mc.mean_power, rel=0.03)
        assert stat.std_current * stat.vdd == pytest.approx(mc.std_power, rel=0.10)
        assert stat.percentile_power(0.95) == pytest.approx(
            mc.percentile_power(0.95), rel=0.05
        )

    def test_correlation_fattens_the_tail(self, c432, spec):
        # Same total sigma; correlated variation cannot average out across
        # gates, so the full-chip distribution is much wider.
        vm_corr = build_variation_model(c432, spec)
        vm_flat = build_variation_model(c432, spec.without_correlation())
        corr = analyze_statistical_leakage(c432, vm_corr)
        flat = analyze_statistical_leakage(c432, vm_flat)
        assert corr.std_current > 2 * flat.std_current

    def test_high_vth_shrinks_everything(self, c432, varmodel_c432):
        before = analyze_statistical_leakage(c432, varmodel_c432)
        c432.set_uniform(vth=VthClass.HIGH)
        after = analyze_statistical_leakage(c432, varmodel_c432)
        assert after.mean_power < before.mean_power / 10
        assert after.percentile_power(0.95) < before.percentile_power(0.95) / 10

    def test_rdf_derating_narrows_spread(self, c432, varmodel_c432):
        c432.set_uniform(size=4.0)
        derated = analyze_statistical_leakage(
            c432, varmodel_c432, derate_rdf_with_size=True
        )
        flat = analyze_statistical_leakage(
            c432, varmodel_c432, derate_rdf_with_size=False
        )
        assert derated.std_current < flat.std_current
        # RDF averaging also trims the lognormal mean inflation.
        assert derated.mean_power < flat.mean_power


class TestMonteCarloLeakage:
    def test_deterministic_per_seed(self, c432, varmodel_c432):
        a = run_monte_carlo_leakage(c432, varmodel_c432, n_samples=100, seed=5)
        b = run_monte_carlo_leakage(c432, varmodel_c432, n_samples=100, seed=5)
        assert np.allclose(a.currents, b.currents)

    def test_positive_and_skewed(self, c432, varmodel_c432):
        mc = run_monte_carlo_leakage(c432, varmodel_c432, n_samples=4000, seed=6)
        assert np.all(mc.currents > 0)
        # Lognormal-ish: mean above median.
        assert mc.currents.mean() > np.median(mc.currents)

    def test_percentile_bounds(self, c432, varmodel_c432):
        mc = run_monte_carlo_leakage(c432, varmodel_c432, n_samples=100, seed=7)
        with pytest.raises(PowerError):
            mc.percentile_power(0.0)

    def test_shared_samples_with_timing(self, c432, varmodel_c432):
        from repro.timing import run_monte_carlo_sta

        timing = run_monte_carlo_sta(c432, varmodel_c432, n_samples=1500, seed=8)
        leak = run_monte_carlo_leakage(c432, varmodel_c432, samples=timing.samples)
        rho = np.corrcoef(timing.circuit_delays, leak.currents)[0, 1]
        # Fast dies leak most: strong negative correlation.
        assert rho < -0.5


class TestLognormalSumTracker:
    """:class:`LognormalSum` against a fresh full sum after every step."""

    @staticmethod
    def assert_agrees(got, want, k=1.645):
        assert got.mean == want.mean
        assert got.std == pytest.approx(want.std, rel=TRACKER_REL, abs=0.0)
        assert got.mean_plus_k_sigma(k) == pytest.approx(
            want.mean_plus_k_sigma(k), rel=TRACKER_REL, abs=0.0
        )

    @pytest.mark.parametrize("derate", [True, False])
    def test_random_moves_and_reverts(self, c432, varmodel_c432, derate):
        view = TimingView(c432)
        memo = GateLeakageMemo(c432)
        sizes = view.library.sizes

        def terms():
            return gate_log_leakage_terms(
                c432, varmodel_c432,
                relative_area=None if derate else 1.0, leakage=memo,
            )

        log_means, loadings, indep = terms()
        tracker = LognormalSum(loadings)
        self.assert_agrees(
            tracker.update(log_means, indep),
            sum_of_lognormals(log_means, loadings, indep),
        )
        rng = np.random.default_rng(23)
        applied = []
        for _ in range(60):
            if applied and rng.random() < 0.3:
                revert_move(view, *applied.pop())
            else:
                index = int(rng.integers(view.n_gates))
                gate = view.gates[index]
                kind = ("vth", "size", "lbias")[rng.integers(3)]
                move = Move(
                    index, kind,
                    new_vth=gate.vth.other() if kind == "vth" else None,
                    new_size=(
                        float(sizes[rng.integers(len(sizes))])
                        if kind == "size" else None
                    ),
                    new_lbias=(
                        float(rng.choice([0.0, 2e-9, 4e-9]))
                        if kind == "lbias" else None
                    ),
                )
                applied.append((move, apply_move(view, move)))
            log_means, loadings, indep = terms()
            got = tracker.update(log_means, indep)
            self.assert_agrees(got, sum_of_lognormals(log_means, loadings, indep))
        self.assert_agrees(LognormalSum(loadings).update(log_means, indep), got)

    def test_an_indep_only_change_is_tracked(self, c432, varmodel_c432):
        log_means, loadings, indep = gate_log_leakage_terms(c432, varmodel_c432)
        tracker = LognormalSum(loadings)
        tracker.update(log_means, indep)
        indep = indep.copy()
        indep[::7] *= 1.5
        self.assert_agrees(
            tracker.update(log_means, indep),
            sum_of_lognormals(log_means, loadings, indep),
        )

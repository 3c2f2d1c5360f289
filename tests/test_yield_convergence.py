"""MC timing yield converges to the analytic (SSTA) yield estimate.

At 20k dies the binomial standard error is ~0.35% of yield, tight
enough to see real model disagreement.  SSTA is linear in the process
variables while the MC gate-delay model keeps the quadratic term, so
the comparison sits at targets near the distribution's center where the
linearization bias is well inside the 3-sigma band; deep-tail targets
would expose the (documented, expected) quadratic-term offset rather
than an engine bug.  The seed is fixed, so the check is deterministic.
"""

import pytest

from repro.mcstat import YieldEstimate
from repro.timing import estimate_timing_yield, run_ssta

N_SAMPLES = 20_000
SEED = 7


def agrees_with(est: YieldEstimate, analytic_yield: float, z: float = 3.0) -> bool:
    """Is ``analytic_yield`` inside the estimate's ``z``-sigma band?

    A degenerate empirical yield (exactly 0 or 1) has zero binomial
    width, so the band is floored at one count (1/N).
    """
    half = z * max(est.std_error, 1.0 / est.n_samples)
    return abs(analytic_yield - est.timing_yield) <= half


class TestConvergence:
    @pytest.mark.parametrize("eta", [0.5, 0.8])
    def test_mc_agrees_with_analytic_within_3_sigma(
        self, rca8, varmodel_rca8, eta
    ):
        ssta = run_ssta(rca8, varmodel_rca8)
        target = ssta.circuit_delay.percentile(eta)
        analytic = ssta.timing_yield(target)
        est = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=N_SAMPLES, seed=SEED
        )
        assert est.n_samples == N_SAMPLES
        assert est.target_delay == target
        lo, hi = est.confidence_interval()
        assert lo <= est.timing_yield <= hi
        assert agrees_with(est, analytic), (
            f"MC yield {est.timing_yield:.4f} vs analytic {analytic:.4f} "
            f"outside 3-sigma ({3 * est.std_error:.4f}) at eta={eta}"
        )

    def test_std_error_shrinks_with_samples(self, rca8, varmodel_rca8):
        ssta = run_ssta(rca8, varmodel_rca8)
        target = ssta.circuit_delay.percentile(0.8)
        small = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=1000, seed=SEED
        )
        large = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=N_SAMPLES, seed=SEED
        )
        assert large.std_error < small.std_error


class TestEstimateAlgebra:
    def test_confidence_interval_clamped_to_unit(self):
        est = YieldEstimate.binomial(0.999, 100, 1e-9)
        lo, hi = est.confidence_interval()
        assert 0.0 <= lo <= hi <= 1.0

    def test_degenerate_yield_keeps_error_floor(self):
        est = YieldEstimate.binomial(1.0, 1000, 1e-9)
        assert est.std_error == 0.0
        # The band never collapses to zero width: the 1/N floor applies.
        assert agrees_with(est, 1.0)
        assert not agrees_with(est, 0.5)

    def test_three_sigma_band_width(self):
        est = YieldEstimate.binomial(0.5, 10_000, 1e-9)
        assert est.std_error == pytest.approx(0.005)
        assert agrees_with(est, 0.514)
        assert not agrees_with(est, 0.516)

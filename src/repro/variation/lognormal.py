"""Lognormal mathematics.

Because log-leakage is affine in the Gaussian process deviations, every
gate's leakage is lognormal and the chip total is a **sum of correlated
lognormals**.  This module provides:

* exact single-lognormal moments and percentiles,
* exact mean/variance of a correlated-lognormal sum (the correlation
  entering through shared global-factor loadings), also kept current
  across small changes (:class:`LognormalSum`, an optimizer's per-pass
  objective), and
* Wilkinson's approximation: matching a single lognormal to those two
  moments, which is what the paper-era statistical leakage literature uses
  to report full-chip leakage percentiles.

All functions work in SI and accept numpy arrays where it makes sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import stats

from ..errors import VariationError

#: Default block edge for the O(n^2) covariance accumulation.
_BLOCK: int = 512


def lognormal_mean(mu: float, sigma: float) -> float:
    """Mean of ``exp(N(mu, sigma^2))``."""
    return math.exp(mu + 0.5 * sigma * sigma)


def lognormal_variance(mu: float, sigma: float) -> float:
    """Variance of ``exp(N(mu, sigma^2))``."""
    s2 = sigma * sigma
    return (math.exp(s2) - 1.0) * math.exp(2.0 * mu + s2)


def lognormal_percentile(mu: float, sigma: float, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``exp(N(mu, sigma^2))``."""
    if not 0.0 < q < 1.0:
        raise VariationError(f"quantile must be in (0,1), got {q}")
    return math.exp(mu + sigma * stats.norm.ppf(q))


def lognormal_params_from_moments(mean: float, variance: float) -> Tuple[float, float]:
    """Wilkinson/Fenton moment matching: ``(mu, sigma)`` of the lognormal
    with the given mean and variance.

    Raises if the moments are not realizable (non-positive mean or negative
    variance).
    """
    if mean <= 0:
        raise VariationError(f"lognormal mean must be positive, got {mean}")
    if variance < 0:
        raise VariationError(f"variance must be non-negative, got {variance}")
    ratio = 1.0 + variance / (mean * mean)
    sigma2 = math.log(ratio)
    mu = math.log(mean) - 0.5 * sigma2
    return mu, math.sqrt(sigma2)


@dataclass(frozen=True)
class LognormalSummary:
    """Moment summary of a (sum of) lognormal distribution(s).

    ``mu``/``sigma`` are the Wilkinson-matched single-lognormal parameters;
    ``mean``/``std`` are the exact first two moments of the underlying sum.
    """

    mean: float
    std: float
    mu: float
    sigma: float

    @property
    def variance(self) -> float:
        """Exact variance of the sum."""
        return self.std * self.std

    def percentile(self, q: float) -> float:
        """Quantile of the Wilkinson-matched lognormal."""
        return lognormal_percentile(self.mu, self.sigma, q)

    def mean_plus_k_sigma(self, k: float) -> float:
        """The ``mean + k*std`` high-confidence point (exact moments)."""
        return self.mean + k * self.std

    def cdf(self, x: float) -> float:
        """CDF of the Wilkinson-matched lognormal at ``x``."""
        if x <= 0:
            return 0.0
        return float(stats.norm.cdf((math.log(x) - self.mu) / self.sigma))


def sum_of_lognormals(
    log_means: np.ndarray,
    global_loadings: np.ndarray,
    indep_sigmas: np.ndarray,
) -> LognormalSummary:
    """Exact moments of ``sum_i exp(G_i)`` with correlated Gaussians ``G_i``.

    Parameters
    ----------
    log_means:
        ``(n,)`` array — the Gaussian means ``mu_i = ln(nominal leakage_i)``.
    global_loadings:
        ``(n, k)`` array — loading of each ``G_i`` on the shared standard-
        normal global factors, so ``Cov(G_i, G_j) = L_i . L_j`` for
        ``i != j``.
    indep_sigmas:
        ``(n,)`` array — per-element independent Gaussian sigma, adding
        ``indep_i^2`` to the diagonal variance only.

    Returns
    -------
    LognormalSummary
        Exact sum mean/std plus the Wilkinson-matched ``(mu, sigma)``.

    Notes
    -----
    Exact formulas:  ``E[X_i] = exp(mu_i + v_i/2)`` with
    ``v_i = |L_i|^2 + indep_i^2``;
    ``Cov(X_i, X_j) = E[X_i] E[X_j] (exp(c_ij) - 1)`` with
    ``c_ij = L_i . L_j (+ indep_i^2 if i = j)``.  The double sum is
    evaluated in blocks to bound memory at ``O(block * n)``.
    """
    log_means = np.asarray(log_means, dtype=float)
    global_loadings = np.atleast_2d(np.asarray(global_loadings, dtype=float))
    indep_sigmas = np.asarray(indep_sigmas, dtype=float)
    n = log_means.shape[0]
    if n == 0:
        raise VariationError("empty lognormal sum")
    if global_loadings.shape[0] != n or indep_sigmas.shape[0] != n:
        raise VariationError(
            "shape mismatch: "
            f"{log_means.shape}, {global_loadings.shape}, {indep_sigmas.shape}"
        )

    var_i = np.einsum("ij,ij->i", global_loadings, global_loadings) + indep_sigmas**2
    means = np.exp(log_means + 0.5 * var_i)
    total_mean = float(means.sum())

    total_second = 0.0  # sum_ij E[Xi Xj]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # c_block[b, j] = L_{start+b} . L_j
        c_block = global_loadings[start:stop] @ global_loadings.T
        block_idx = np.arange(start, stop)
        c_block[np.arange(stop - start), block_idx] += indep_sigmas[start:stop] ** 2
        total_second += float(means[start:stop] @ np.exp(c_block) @ means)

    variance = max(total_second - total_mean * total_mean, 0.0)
    mu, sigma = lognormal_params_from_moments(total_mean, variance)
    return LognormalSummary(mean=total_mean, std=math.sqrt(variance), mu=mu, sigma=sigma)


class LognormalSum:
    """:func:`sum_of_lognormals` kept current across small changes.

    One instance follows one optimizer run, over which the global
    loadings ``L`` are fixed, so ``A_ij = exp(L_i . L_j)`` is too.  It
    keeps the per-element means ``m_i = exp(mu_i + v_i/2)`` and
    ``y = A m``; an :meth:`update` finds the elements whose ``m_i``
    moved (a new ``mu_i`` or a new ``indep_i``) and adds their columns
    of ``A`` times the change to ``y``, so a step costs
    ``O(n * changed * k)`` instead of ``O(n^2 * k)``.  Then
    ``E[S^2] = m . y + sum_i m_i^2 exp(|L_i|^2) expm1(indep_i^2)``.  A
    fresh instance starts from ``m = 0``: its first update is the full
    sum.  The mean is bitwise :func:`sum_of_lognormals`'s; the second
    moment agrees to rounding.
    """

    def __init__(self, global_loadings: np.ndarray) -> None:
        loadings = np.atleast_2d(np.asarray(global_loadings, dtype=float))
        if loadings.shape[0] == 0:
            raise VariationError("empty lognormal sum")
        self._loadings = loadings
        self._loading_sq = np.einsum("ij,ij->i", loadings, loadings)
        self._self_coupling = np.exp(self._loading_sq)  # A_ii
        self._means = np.zeros(loadings.shape[0])
        self._coupled = np.zeros(loadings.shape[0])  # y = A m

    def update(
        self, log_means: np.ndarray, indep_sigmas: np.ndarray
    ) -> LognormalSummary:
        """Moments of the sum at new ``(log_means, indep_sigmas)``."""
        log_means = np.asarray(log_means, dtype=float)
        indep_sigmas = np.asarray(indep_sigmas, dtype=float)
        n = self._means.shape[0]
        if log_means.shape != (n,) or indep_sigmas.shape != (n,):
            raise VariationError(
                f"shape mismatch: {log_means.shape}, {indep_sigmas.shape}, "
                f"{self._loadings.shape}"
            )
        means = np.exp(log_means + 0.5 * (self._loading_sq + indep_sigmas**2))
        changed = np.flatnonzero(means != self._means)
        delta = means[changed] - self._means[changed]
        for start in range(0, changed.shape[0], _BLOCK):
            cols = changed[start : start + _BLOCK]
            coupling = self._loadings @ self._loadings[cols].T
            np.exp(coupling, out=coupling)  # in place: one n x _BLOCK buffer
            self._coupled += coupling @ delta[start : start + _BLOCK]
        self._means = means

        total_mean = float(means.sum())
        total_second = float(means @ self._coupled) + float(
            np.sum(means * means * self._self_coupling * np.expm1(indep_sigmas**2))
        )
        variance = max(total_second - total_mean * total_mean, 0.0)
        mu, sigma = lognormal_params_from_moments(total_mean, variance)
        return LognormalSummary(
            mean=total_mean, std=math.sqrt(variance), mu=mu, sigma=sigma
        )


def single_lognormal(log_mean: float, total_sigma: float) -> LognormalSummary:
    """Summary for one lognormal given its Gaussian parameters."""
    mean = lognormal_mean(log_mean, total_sigma)
    var = lognormal_variance(log_mean, total_sigma)
    return LognormalSummary(mean=mean, std=math.sqrt(var), mu=log_mean, sigma=total_sigma)

"""Clark's moment-matching approximation for max of Gaussians.

C. E. Clark, "The greatest of a finite set of random variables" (1961) —
the workhorse of first-order canonical SSTA: given two jointly-Gaussian
variables, compute the exact first two moments of their max and the
*tightness probability* ``P(A > B)``, then re-approximate the max as
Gaussian with those moments.

:func:`max_moments` uses :mod:`math` scalar routines (erf/exp) rather
than scipy — scalar math is ~20x faster than scipy's ufunc dispatch at
size 1.  :func:`max_moments_batch` is the same formula over arrays, one
call per batch of timing-graph edges, for the levelized SSTA kernel.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Relative floor: when the variance of the *difference* is this small
#: compared to the operand variances, the inputs are (numerically)
#: perfectly correlated with equal variance, and the max is whichever has
#: the larger mean.  The floor must be relative — delay variances live at
#: ~1e-24 s^2, far below any fixed absolute epsilon.
_THETA_REL_FLOOR = 1e-12


def norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def norm_pdf(x: float) -> float:
    """Standard normal PDF."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def max_moments(
    mean_a: float,
    var_a: float,
    mean_b: float,
    var_b: float,
    cov_ab: float,
) -> Tuple[float, float, float]:
    """Moments of ``max(A, B)`` for jointly Gaussian ``A, B``.

    Returns
    -------
    (mean, variance, tightness):
        Exact mean and variance of the max, and the tightness probability
        ``T = P(A >= B)`` used to blend sensitivities in canonical SSTA.

    Notes
    -----
    With ``theta = sqrt(var_a + var_b - 2 cov_ab)`` (the sigma of ``A-B``)
    and ``x = (mean_a - mean_b)/theta``::

        E[max]   = mean_a*Phi(x) + mean_b*Phi(-x) + theta*phi(x)
        E[max^2] = (mean_a^2+var_a)*Phi(x) + (mean_b^2+var_b)*Phi(-x)
                   + (mean_a+mean_b)*theta*phi(x)

    When ``theta ~ 0`` the variables are (almost) perfectly correlated with
    equal variance: the max is simply whichever has the larger mean.
    """
    theta_sq = var_a + var_b - 2.0 * cov_ab
    if theta_sq <= _THETA_REL_FLOOR * (var_a + var_b) or theta_sq <= 0.0:
        if mean_a >= mean_b:
            return mean_a, var_a, 1.0
        return mean_b, var_b, 0.0
    theta = math.sqrt(theta_sq)
    x = (mean_a - mean_b) / theta
    t = norm_cdf(x)
    phi = norm_pdf(x)
    mean = mean_a * t + mean_b * (1.0 - t) + theta * phi
    second = (
        (mean_a * mean_a + var_a) * t
        + (mean_b * mean_b + var_b) * (1.0 - t)
        + (mean_a + mean_b) * theta * phi
    )
    variance = max(second - mean * mean, 0.0)
    return mean, variance, t


def max_moments_batch(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
    cov_ab: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise :func:`max_moments` over equal-length arrays.

    Same formula and degenerate branch, evaluated with NumPy ufuncs; each
    element agrees with the scalar function to a few ulps.
    """
    theta_sq = var_a + var_b - 2.0 * cov_ab
    degenerate = (theta_sq <= _THETA_REL_FLOOR * (var_a + var_b)) | (theta_sq <= 0.0)
    any_degenerate = degenerate.any()
    theta = np.sqrt(np.where(degenerate, 1.0, theta_sq) if any_degenerate else theta_sq)
    x = (mean_a - mean_b) / theta
    t = 0.5 * (1.0 + erf(x / _SQRT2))
    phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    mean = mean_a * t + mean_b * (1.0 - t) + theta * phi
    second = (
        (mean_a * mean_a + var_a) * t
        + (mean_b * mean_b + var_b) * (1.0 - t)
        + (mean_a + mean_b) * theta * phi
    )
    variance = np.maximum(second - mean * mean, 0.0)
    if any_degenerate:
        a_wins = mean_a >= mean_b
        t = np.where(degenerate, np.where(a_wins, 1.0, 0.0), t)
        mean = np.where(degenerate, np.where(a_wins, mean_a, mean_b), mean)
        variance = np.where(degenerate, np.where(a_wins, var_a, var_b), variance)
    return mean, variance, t


def min_moments(
    mean_a: float,
    var_a: float,
    mean_b: float,
    var_b: float,
    cov_ab: float,
) -> Tuple[float, float, float]:
    """Moments of ``min(A, B)`` via ``min(A,B) = -max(-A,-B)``.

    Returns ``(mean, variance, tightness)`` with tightness ``P(A <= B)``.
    Used by required-time back-propagation.
    """
    neg_mean, variance, tightness = max_moments(-mean_a, var_a, -mean_b, var_b, cov_ab)
    return -neg_mean, variance, tightness

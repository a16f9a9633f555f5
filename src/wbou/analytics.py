"""Closed-form second-order quantities of the two-sided-kernel process.

Everything here is driven by three numbers: the kernel rate lam and the
driver moments mu = E L(1), V = Var L(1).  The process has

    E X_t = 2 mu / lam,           Var X_t = V / lam,
    Cov(X_{t+h}, X_t) = V h e^{-lam h} + (V / lam) e^{-lam h},
    Corr(X_{t+h}, X_t) = (1 + lam h) e^{-lam h},

a strictly slower decay than the classical OU correlation e^{-lam h}.
Increment autocorrelations follow from the covariance identity

    Corr(X_{k+1}-X_k, X_1-X_0)
        = (2 acov(k) - acov(k+1) - acov(k-1)) / (2 (acov(0) - acov(1))).

The first-order value changes sign at a unique rate lambda* ~= 1.25643;
``lambda_sign_threshold`` computes it by bisection on the sign of the
closed-form lag-one numerator 2(lam+1)e^{-lam} - (2 lam+1)e^{-2 lam} - 1
(math.exp, no NumPy), and its root is bitwise the root of the same
bisection on increment_acf(., 1).

acov_x and increment_acf share one unchecked helper for the covariance;
increment_acf checks k once and then calls it with the lags k - 1, k and
k + 1, so its values are bitwise those of five acov_x calls.

Also included: the covariance of the compact-window variant, and the
correspondence between the lag-one autocorrelation and an effective
Hurst exponent (C_H = 2^{2H-1} - 1).  The zero-start variant
Y_t = X_t - X_0 has mean 0 and variance msd(p, t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import BadLag, DomainError, NegativeLag

__all__ = [
    "SecondOrderParams",
    "mean_x",
    "var_x",
    "acov_x",
    "acf_x",
    "acf_ou",
    "msd",
    "increment_acf",
    "increment_acf_ou",
    "lambda_sign_threshold",
    "compact_cov",
    "hurst_constant",
    "effective_hurst",
]


@dataclass(frozen=True)
class SecondOrderParams:
    """Kernel rate and driver moments (mu, V) behind all formulas here."""

    lam: float
    mu: float = 0.0
    v: float = 1.0

    def __post_init__(self):
        _checks.lam(self.lam)
        _checks.finite(self.mu, "mu")
        _checks.positive(self.v, "v")


def _scalar_ok(out):
    return float(out) if out.ndim == 0 else out


def mean_x(p: SecondOrderParams) -> float:
    return 2.0 * p.mu / p.lam


def var_x(p: SecondOrderParams) -> float:
    return p.v / p.lam


def _acov(p: SecondOrderParams, hh):
    """acov_x on a float lag or a float array, unchecked."""
    return (p.v * hh + p.v / p.lam) * np.exp(-p.lam * hh)


def acov_x(p: SecondOrderParams, h):
    """Cov(X_{t+h}, X_t) = V h e^{-lam h} + (V/lam) e^{-lam h}."""
    return _scalar_ok(_acov(p, _checks.nonnegative(h, "lag", NegativeLag)))


def acf_x(p: SecondOrderParams, h):
    """Corr(X_{t+h}, X_t) = (lam h + 1) e^{-lam h}."""
    hh = _checks.nonnegative(h, "lag", NegativeLag)
    return _scalar_ok((p.lam * hh + 1.0) * np.exp(-p.lam * hh))


def acf_ou(p: SecondOrderParams, h):
    """Classical OU comparison: Corr(U_{t+h}, U_t) = e^{-lam h}."""
    hh = _checks.nonnegative(h, "lag", NegativeLag)
    return _scalar_ok(np.exp(-p.lam * hh))


def msd(p: SecondOrderParams, h):
    """Mean-square displacement E (X_{t+h} - X_t)^2.

    It is also the variance of the zero-start variant Y_t = X_t - X_0 at
    t = h, whose mean is 0."""
    hh = _checks.nonnegative(h, "lag", NegativeLag)
    e = np.exp(-p.lam * hh)
    return _scalar_ok((2.0 * p.v / p.lam) * (1.0 - e - p.lam * hh * e))


def increment_acf(p: SecondOrderParams, k):
    """Corr(X_{k+1} - X_k, X_1 - X_0) via the covariance identity.

    This canonical route uses only the acov_x expression and is the
    value every other part of the package relies on; k is checked once,
    so the lags k - 1, k and k + 1 need no further check.  Its range
    over lam > 0, k >= 1 is (-0.5, 1); DomainError where its positive
    denominator cancels to 0 (lam below about 1e-8).
    """
    kk = _checks.whole(k, 1, "increment lag k", BadLag)
    num = 2.0 * _acov(p, kk) - _acov(p, kk + 1.0) - _acov(p, kk - 1.0)
    den = 2.0 * (_acov(p, 0.0) - _acov(p, 1.0))
    if not den > 0:
        raise DomainError(f"increment_acf: acov(0) - acov(1) cancels to {den} at lam={p.lam}")
    return _scalar_ok(num / den)


def increment_acf_ou(p: SecondOrderParams, k):
    """Classical OU increment autocorrelation (1/2) (e^{-lam} - 1)
    e^{-lam (k - 1)}; always in [-0.5, 0].  expm1 keeps its digits at
    small lam, and no e^{lam} is formed, so no lam overflows it."""
    kk = _checks.whole(k, 1, "increment lag k", BadLag)
    return _scalar_ok(0.5 * math.expm1(-p.lam) * np.exp(-p.lam * (kk - 1.0)))


def _lag_one_numerator(lam: float) -> float:
    """lam (2 acov(1) - acov(2) - acov(0)) / V: the numerator of
    increment_acf(., 1) times lam / V > 0, so it has the same sign."""
    return (2.0 * (lam + 1.0) * math.exp(-lam)
            - (2.0 * lam + 1.0) * math.exp(-2.0 * lam) - 1.0)


def lambda_sign_threshold() -> float:
    """The rate at which the first-order increment autocorrelation
    changes sign: positive below, negative above.

    Bisection in lam over [0.5, 3] to 1e-8.  A step needs only the sign
    of increment_acf(., 1), the sign of the closed-form lag-one
    numerator 2(lam+1)e^{-lam} - (2 lam+1)e^{-2 lam} - 1, so the steps
    and the root are bitwise those of the bisection on
    increment_acf(., 1) itself.  The value does not depend on (mu, V).
    """
    lo, hi = 0.5, 3.0
    flo = _lag_one_numerator(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _lag_one_numerator(mid)
        if flo * fm > 0:
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-8:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# compact-window variant


def compact_cov(lam: float, a: float, t: float, s: float) -> float:
    """Cov(X_t, X_s) for the kernel restricted to a window of length a,
    under the centered unit-variance driver convention (mu=0, V=1).

    (e^{-lam(t-s)} - e^{-lam(2a + s - t)}) / (2 lam) for 0 <= t-s <= a,
    and 0 beyond the window.  Scale by V for a general driver.
    """
    _checks.lam(lam)
    _checks.positive(a, "window length a")
    gap = _checks.finite(t, "t") - _checks.finite(s, "s")
    if gap < 0:
        return compact_cov(lam, a, s, t)
    if gap > a:
        return 0.0
    return (math.exp(-lam * gap) - math.exp(-lam * (2 * a + s - t))) / (2 * lam)


# ---------------------------------------------------------------------------
# effective Hurst correspondence


def hurst_constant(h_exp: float) -> float:
    """C_H = 2^(2H-1) - 1, the lag-one increment autocorrelation of
    fractional Brownian motion with Hurst exponent H."""
    if not 0.0 < h_exp <= 1.0:
        raise DomainError("Hurst exponent must lie in (0, 1]")
    return 2.0 ** (2.0 * h_exp - 1.0) - 1.0


def effective_hurst(rho1: float) -> float:
    """Inverse of hurst_constant: H = (1 + log2(1 + rho1)) / 2.

    Maps a lag-one increment autocorrelation in (-0.5, 1] to the Hurst
    exponent whose fBm increments would show the same value.
    """
    if not -0.5 < rho1 <= 1.0:
        raise DomainError("rho1 must lie in (-0.5, 1]")
    return 0.5 * (1.0 + math.log2(1.0 + rho1))

"""The infinitely divisible law of the stationary marginal X_0.

For X_t = integral e^{-lam|t-s|} dL_s the marginal is infinitely
divisible with a characteristic triplet that is computable from the
driver's triplet: drift and Gaussian part in closed form, and the Levy
measure as the pushforward of nu x Lebesgue under (x, s) -> x e^{-lam|s|},
which is absolutely continuous with density

    g_X(y) = (2 / (lam |y|)) * nu-tail(|y|)        (y != 0)

and tail mass

    Phi_X(y) = (2/lam) * integral_{x >= y} ln(x/y) nu(dx),   y > 0

(mirrored on the negative axis).  Characteristic functions of the
marginal and of finite-dimensional vectors are evaluated by quadrature
of the characteristic exponent against the kernel.

The module also carries the cumulant transform of the marginal under
the time-scaled convention (driver run at rate lam, making the marginal
law lam-free): kbar(theta) = log E exp(-theta X_0) = 2 int_0^theta
k(v)/v dv, and the tail-average relation between the Levy densities of
L(1) and X_0, gbar(y) = 2 int_1^inf g(xy) dx with its exact inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .drivers import DriverSpec, LevyMeasure, LevyTriplet
from .errors import DimensionMismatch, DomainError, ExistenceViolation
from .paths import TruncationPolicy

__all__ = [
    "ExistenceResult",
    "existence_check",
    "triplet_of_x",
    "char_fn_x",
    "char_fn_joint",
    "kbar",
    "gbar_from_g",
    "g_from_gbar",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


@dataclass(frozen=True)
class ExistenceResult:
    """Outcome of the existence check; falsy when the process is undefined."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def existence_check(driver: DriverSpec, lam: float) -> ExistenceResult:
    """Check that the moving average is well defined.

    The requirements are lam > 0 and a finite log-moment of the driver;
    violations are reported, not raised.
    """
    if not lam > 0:
        return ExistenceResult(False, f"lambda must be > 0, got {lam}")
    if not driver.log_moment_finite():
        return ExistenceResult(False, "driver log-moment is infinite")
    return ExistenceResult(True)


def _require_exists(driver: DriverSpec, lam: float) -> None:
    res = existence_check(driver, lam)
    if not res:
        raise ExistenceViolation(res.reason)


def _pushforward_measure(driver: DriverSpec, lam: float) -> LevyMeasure:
    """Levy measure of X_0 as a density + quadrature-tail accessor."""
    nu = driver.measure
    if nu.is_zero:
        return LevyMeasure()

    def density(y: float) -> float:
        if y > 0:
            return 2.0 / (lam * y) * nu.tail_pos(y)
        if y < 0:
            return 2.0 / (lam * (-y)) * nu.tail_neg(-y)
        return 0.0

    def tail_pos(y: float) -> float:
        # (2/lam) int_{x >= y} ln(x/y) nu(dx), atoms included
        val = 0.0
        if nu.density is not None and nu.support[1] > y:
            val, _ = integrate.quad(
                lambda x: math.log(x / y) * nu.density(x),
                y, nu.support[1], **_QUAD_OPTS,
            )
        val += sum(m * math.log(c / y) for c, m in nu.atoms if c >= y)
        return 2.0 / lam * val

    def tail_neg(y: float) -> float:
        val = 0.0
        if nu.density is not None and nu.support[0] < -y:
            val, _ = integrate.quad(
                lambda x: math.log(-x / y) * nu.density(x),
                nu.support[0], -y, **_QUAD_OPTS,
            )
        val += sum(m * math.log(-c / y) for c, m in nu.atoms if c <= -y)
        return 2.0 / lam * val

    # the pushforward support always reaches down to 0 on any side with mass
    hi_atom = max((c for c, _ in nu.atoms if c > 0), default=0.0)
    lo_atom = min((c for c, _ in nu.atoms if c < 0), default=0.0)
    hi = max(nu.support[1] if nu.density is not None else 0.0, hi_atom)
    lo = min(nu.support[0] if nu.density is not None else 0.0, lo_atom)
    return LevyMeasure(
        density=density,
        support=(lo, hi),
        tail_pos_closed=tail_pos,
        tail_neg_closed=tail_neg,
    )


def triplet_of_x(driver: DriverSpec, lam: float) -> LevyTriplet:
    """Characteristic triplet of the marginal law of X.

    Drift: (2/lam) (gamma + nu((1, inf)) - nu((-inf, -1))); the tails are
    strict because mass sitting exactly at |x| = 1 is mapped onto |y| <= 1
    where the truncation function does not change.  Gaussian part:
    sigma^2 / lam.

    Under the time-scaled convention (the driver runs at rate lam, as in
    char_fn_x(..., time_scaled=True)) the marginal law does not depend
    on lam, and its triplet is triplet_of_x(driver, 1.0).
    """
    _require_exists(driver, lam)
    trip = driver.triplet
    nu = trip.measure
    jump_drift = 0.0
    if not nu.is_zero:
        jump_drift = nu.tail_pos(1.0, include_endpoint=False) - nu.tail_neg(
            1.0, include_endpoint=False
        )
    gamma_x = (2.0 / lam) * (trip.gamma + jump_drift)
    return LevyTriplet(gamma_x, trip.sigma2 / lam, _pushforward_measure(driver, lam))


# ---------------------------------------------------------------------------
# characteristic functions


def _cf_exponent(driver: DriverSpec, lam_eff: float, u: float) -> complex:
    """integral over s of psi(u e^{-lam|s|}) ds, evaluated exactly.

    The substitution v = |u| e^{-lam s} maps each half-line onto (0, |u|]
    and gives (2/lam) int_0^{|u|} psi(sign(u) v) / v dv with a bounded
    integrand (psi(v)/v -> i * mean as v -> 0).
    """
    if u == 0:
        return 0.0 + 0.0j
    sign = 1.0 if u > 0 else -1.0
    mu, _ = driver.moments()

    def integrand(v: float, part) -> float:
        if v == 0.0:
            return part(1j * sign * mu)
        return part(driver.psi(sign * v) / v)

    re, _ = integrate.quad(integrand, 0.0, abs(u), args=(np.real,), **_QUAD_OPTS)
    im, _ = integrate.quad(integrand, 0.0, abs(u), args=(np.imag,), **_QUAD_OPTS)
    return (2.0 / lam_eff) * (re + 1j * im)


def char_fn_x(driver: DriverSpec, lam: float, u, *, time_scaled: bool = False):
    """Characteristic function of the stationary marginal X_0.

    With time_scaled=True the driver runs at rate lam and the marginal
    law (hence this function) does not depend on lam.  Scalar u gives a
    complex scalar; array u gives a complex array.
    """
    _require_exists(driver, lam)
    lam_eff = 1.0 if time_scaled else lam
    if np.ndim(u) == 0:
        return complex(np.exp(_cf_exponent(driver, lam_eff, float(u))))
    return np.array(
        [np.exp(_cf_exponent(driver, lam_eff, float(v))) for v in np.asarray(u)]
    )


def char_fn_joint(driver: DriverSpec, lam: float, times, us) -> complex:
    """Joint characteristic function E exp(i sum_j u_j X_{t_j}).

    Evaluates exp(integral psi(sum_j u_j e^{-lam|t_j - s|}) ds) with the
    integration window truncated where every kernel weight is below the
    default truncation tolerance.
    """
    _require_exists(driver, lam)
    times = np.asarray(times, dtype=float)
    us = np.asarray(us, dtype=float)
    if times.shape != us.shape or times.ndim != 1 or len(times) == 0:
        raise DimensionMismatch("times and us must be 1-D of equal length")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly increasing")
    if np.all(us == 0):
        return 1.0 + 0.0j

    horizon = TruncationPolicy().horizon(lam)
    lo = times[0] - horizon
    hi = times[-1] + horizon

    def kernel(s: float) -> float:
        return float(np.dot(us, np.exp(-lam * np.abs(times - s))))

    def integrand(s: float, part) -> float:
        return part(driver.psi(kernel(s)))

    pts = list(times)
    re, _ = integrate.quad(
        integrand, lo, hi, args=(np.real,), points=pts, **_QUAD_OPTS
    )
    im, _ = integrate.quad(
        integrand, lo, hi, args=(np.imag,), points=pts, **_QUAD_OPTS
    )
    return complex(np.exp(re + 1j * im))


# ---------------------------------------------------------------------------
# cumulant transform and Levy-density relation (time-scaled convention)


def kbar(driver: DriverSpec, theta: float) -> float:
    """log E exp(-theta X_0) for subordinator drivers, time-scaled.

    Equals 2 int_0^theta k(v)/v dv after substituting v = theta e^{-u}
    into 2 int_0^inf k(theta e^{-u}) du.  The integrand has a removable
    singularity at v = 0 with limit k'(0) = -mean, which is patched in
    so the quadrature sees a continuous function.  Like cumulant_k,
    negative theta works on the interval where the driver's moment
    generating function is finite, enabling central-stencil
    differentiation at 0.
    """
    if theta == 0:
        return 0.0
    mu, _ = driver.moments()
    # touching cumulant_k validates that the driver is a subordinator
    driver.cumulant_k(0.0)

    def integrand(v: float) -> float:
        if v == 0.0:
            return -mu
        return driver.cumulant_k(v) / v

    val, _ = integrate.quad(integrand, 0.0, theta, **_QUAD_OPTS)
    return 2.0 * val


def gbar_from_g(g: Callable[[float], float], y: float) -> float:
    """Levy density of X_0 from the driver's Levy density g:
    gbar(y) = 2 int_1^inf g(x y) dx, for y > 0 (time-scaled convention)."""
    if y <= 0:
        raise DomainError("y must be positive")
    val, _ = integrate.quad(lambda x: g(x * y), 1.0, math.inf, **_QUAD_OPTS)
    return 2.0 * val


def g_from_gbar(
    gbar: Callable[[float], float],
    gbar_prime: Callable[[float], float],
    y: float,
) -> float:
    """Exact inverse of gbar_from_g: g(y) = (-gbar(y) - y gbar'(y)) / 2."""
    if y <= 0:
        raise DomainError("y must be positive")
    return 0.5 * (-gbar(y) - y * gbar_prime(y))

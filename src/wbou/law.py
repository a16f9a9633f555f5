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
marginal and of finite-dimensional vectors integrate the characteristic
exponent against the kernel over the whole line: the half-lines beyond
the outermost times become finite integrals (1/lam) I(c), with
I(c) = int_0^{|c|} psi(sign(c) v)/v dv, so no window is truncated.

char_fn_x and kbar take I and the cumulant integral K(theta) =
int_0^theta k(v)/v dv in closed form where the driver gives one (its
``_psi_integral`` and ``_k_integral``: the gamma, exponential-jump and
Brownian families, whose formulas the ``drivers`` module states), and
log one ``wbou`` debug record, ``<name>: route=closed values=<n>``.
Every other driver is integrated, and char_fn_joint always is.

Every integral of the module runs on one adaptive composite
Gauss-Legendre rule, _integrate.  Each piece gets a 64-node value and
the error estimate |Q64 - Q32| from the 32-node rule on the same piece;
a piece is bisected while its estimate is above its length's share of
the integral's tolerance, 1e-12 absolute and relative (relative alone
for the Levy tails, so that a far tail of size 1e-20 is still resolved
to 1e-12 of itself).  All pieces of all integrals of a call are
evaluated together, one array call of the integrand per block of 256
pieces per round, and an integral stops at 300 pieces.  Each call logs
one ``wbou`` debug line with the piece count and the largest error
estimate, and a ``wbou`` warning when an integral stopped at the cap
above its tolerance (the value is still returned).  char_fn_x and
char_fn_joint integrate psi over every u at once; kbar integrates
k(v)/v; gbar_from_g and the Levy tails call their scalar function once
per node.

The Levy tails of X_0 are in closed form for the gamma subordinator,
(2a/lam) F(b y) with F the Meijer G^{3,0}_{2,3}(. | 1, 1; 0, 0, 0), and
for compound Poisson jumps of rate eta with Exp(r) sizes,
(2 eta/lam) E1(r y): the driver's measure gives them as its
``log_tail_pos_closed``.  Other densities (normal jumps, user measures)
are integrated by parts, int_{x >= y} ln(x/y) nu(dx) =
int_{ln y}^{ln x_max} T(e^t) dt with T the closed tail of the density
part and x_max the point past which T is 0 in floats.

The module also carries the cumulant transform of the marginal under
the time-scaled convention (driver run at rate lam, making the marginal
law lam-free): kbar(theta) = log E exp(-theta X_0) = 2 int_0^theta
k(v)/v dv, and the tail-average relation between the Levy densities of
L(1) and X_0, gbar(y) = 2 int_1^inf g(xy) dx with its exact inverse.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from typing import Callable

import numpy as np

from . import _checks
from .drivers import DriverSpec, LevyMeasure, LevyTriplet
from .errors import DimensionMismatch, DomainError

__all__ = [
    "triplet_of_x",
    "char_fn_x",
    "char_fn_joint",
    "kbar",
    "gbar_from_g",
    "g_from_gbar",
]

_log = logging.getLogger("wbou")

#: the adaptive Gauss-Legendre rule: tolerance (absolute and relative,
#: per integral), piece cap per integral, and pieces per integrand call
_GL_TOL = 1e-12
_GL_MAX_PIECES = 300
_GL_BLOCK = 256


def _log_tail(tail, end: float, y: float, name: str) -> float:
    """int_{x >= y} ln(x/y) mu(dx) for a measure mu on (0, end] with the
    closed tail ``tail``(x) = mu([x, inf)), by parts:
    int_{ln y}^{ln x_max} tail(e^t) dt, where x_max is the first of
    max(y, 1) 2^k at which the tail is 0 (or the end, or the largest
    float).  The adaptive rule integrates it at the relative tolerance
    alone, so that a far tail of size 1e-20 is still resolved to 1e-12 of
    itself; the tail is called once per node."""
    end = min(end, sys.float_info.max)
    x = max(y, 1.0)
    while x < end and tail(x) > 0:
        x *= 2.0
    x_max = min(x, end)
    if x_max <= y:
        return 0.0
    tail_at = np.frompyfunc(tail, 1, 1)
    return _real_integral(lambda t: tail_at(np.exp(t)).astype(float),
                          math.log(y), math.log(x_max), name, relative=True)


def _pushforward_measure(nu: LevyMeasure, lam: float) -> LevyMeasure:
    """Levy measure of X_0 from the driver's Levy measure nu, as a
    density + tail accessor.

    The tails are (2/lam) int ln(x/y) nu(dx) over |x| >= y: the driver's
    closed log-weighted tail where it has one (gamma, exponential
    jumps), else the continuous part's closed tail integrated by parts
    (_log_tail); atoms add m ln(|c|/y) each.
    """
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
        if nu.log_tail_pos_closed is not None:
            val = nu.log_tail_pos_closed(y)
        elif nu.density is not None:
            val = _log_tail(nu.tail_pos_closed, nu.support[1], y, "tail_pos")
        val += sum(m * math.log(c / y) for c, m in nu.atoms if c >= y)
        return 2.0 / lam * val

    def tail_neg(y: float) -> float:
        val = 0.0
        if nu.density is not None:
            val = _log_tail(nu.tail_neg_closed, -nu.support[0], y, "tail_neg")
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
    where the truncation function does not change.  Only atoms sit at
    |x| = 1, so the strict tails are the closed ones less those atoms.
    Gaussian part: sigma^2 / lam.

    The process exists for every such driver and every lam > 0: each
    family has finite variance, hence a finite log-moment.  Under the
    time-scaled convention (the driver runs at rate lam) the marginal
    law does not depend on lam: its characteristic function is
    char_fn_x(driver, 1.0, u) and its triplet triplet_of_x(driver, 1.0).
    A lam that is not positive and finite raises InvalidLambda, as in
    char_fn_x and char_fn_joint.
    """
    _checks.lam(lam)
    trip = driver.triplet
    nu = trip.measure
    at = lambda s: sum(m for c, m in nu.atoms if c == s)
    jump_drift = (nu.tail_pos(1.0) - at(1.0)) - (nu.tail_neg(1.0) - at(-1.0))
    gamma_x = (2.0 / lam) * (trip.gamma + jump_drift)
    return LevyTriplet(gamma_x, trip.sigma2 / lam, _pushforward_measure(nu, lam))


# ---------------------------------------------------------------------------
# characteristic functions


def _sum_by(owner: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(owner, q.real, n) + 1j * np.bincount(owner, q.imag, n)


@functools.cache
def _gl_nodes():
    """The 64 nodes then the 32 nodes on [-1, 1], and the two weight sets.

    Built on first use: leggauss wakes numpy's LAPACK (about 1 MB of
    resident memory), which no simulation needs.
    """
    x64, w64 = np.polynomial.legendre.leggauss(64)
    x32, w32 = np.polynomial.legendre.leggauss(32)
    return np.r_[x64, x32], w64, w32


def _rule(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """64-node value and |Q64 - Q32| estimate on every piece [a_i, b_i],
    one call of f per block of _GL_BLOCK pieces."""
    if a.size > _GL_BLOCK:
        blocks = [_rule(f, a[i:i + _GL_BLOCK], b[i:i + _GL_BLOCK], owner[i:i + _GL_BLOCK])
                  for i in range(0, a.size, _GL_BLOCK)]
        return tuple(map(np.concatenate, zip(*blocks)))
    nodes, w64, w32 = _gl_nodes()
    half = 0.5 * (b - a)
    fs = f((0.5 * (a + b))[:, None] + half[:, None] * nodes, owner[:, None])
    q = half * (fs[:, :64] @ w64)
    return q, np.abs(q - half * (fs[:, 64:] @ w32))


def _integrate(f, a, b, owner, n: int, name: str, relative: bool = False) -> np.ndarray:
    """n complex integrals at once by adaptive composite Gauss-Legendre.

    Integral k is the integral of f over the union of the pieces
    [a_i, b_i] with owner[i] == k.  f(s, k) gets nodes s of shape (m, 96)
    and their pieces' owners k of shape (m, 1) and returns the integrand
    there.  Each round evaluates every open piece, accepts it when its
    estimate is within its share (length / total length) of the
    integral's tolerance max(_GL_TOL, _GL_TOL |integral|), or
    _GL_TOL |integral| alone when relative, and bisects the rest.  An
    integral whose bisections would take it past _GL_MAX_PIECES pieces
    keeps what it has; it is reported with a warning when its summed
    estimate is above its tolerance.
    """
    floor = 0.0 if relative else 1.0
    length = np.bincount(owner, b - a, n)
    value = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    pieces = np.bincount(owner, minlength=n)
    capped = np.zeros(n, dtype=bool)
    while owner.size:
        q, e = _rule(f, a, b, owner)
        total = _sum_by(owner, q, n)
        tol = _GL_TOL * np.maximum(floor, np.abs(value + total))
        ok = e <= tol[owner] * (b - a) / length[owner]
        if ok.all():
            value += total
            err += np.bincount(owner, e, n)
            break
        wants = np.bincount(owner[~ok], minlength=n)
        full = pieces + wants > _GL_MAX_PIECES
        capped |= full & (wants > 0)
        done = ok | full[owner]
        value += _sum_by(owner[done], q[done], n)
        err += np.bincount(owner[done], e[done], n)
        pieces += np.where(full, 0, wants)
        a, b, owner = a[~done], b[~done], owner[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        owner = np.concatenate((owner, owner))
    if n and _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s: %d integrals, %d pieces (at most %d per integral), "
                   "largest error estimate %.3g", name, n, pieces.sum(), pieces.max(),
                   err.max())
    if capped.any():
        bad = capped & (err > _GL_TOL * np.maximum(floor, np.abs(value)))
        if bad.any():
            _log.warning("%s: %d of %d integrals hit the %d-piece cap with error "
                         "estimate up to %.3g, above the %.0e tolerance",
                         name, bad.sum(), n, _GL_MAX_PIECES, err[bad].max(), _GL_TOL)
    return value


def _real_integral(f, a: float, b: float, name: str, relative: bool = False) -> float:
    """The integral of a real f over [a, b] by the adaptive rule; f takes
    an array of nodes."""
    return float(_integrate(lambda s, k: f(s), np.array([a]), np.array([b]),
                            np.zeros(1, dtype=np.intp), 1, name, relative)[0].real)


def _log_closed(name: str, n: int) -> None:
    """The one debug record of a call that took n values in closed form."""
    if n and _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s: route=closed values=%d", name, n)


def char_fn_x(driver: DriverSpec, lam: float, u):
    """Characteristic function of the stationary marginal X_0.

    The exponent is (2/lam) I(u), I(u) = int_0^{|u|} psi(sign(u) v) / v dv,
    from the substitution v = |u| e^{-lam s} on each half-line.  The
    gamma, exponential-jump and Brownian drivers give I in closed form
    (stated in ``drivers``).  For the others every non-zero u is integrated at
    once by the adaptive rule; the integrand is bounded (psi(v)/v ->
    i * mean as v -> 0) and the Gauss-Legendre nodes never touch v = 0.

    A driver that runs at rate lam (the time-scaled convention) gives a
    marginal law free of lam, char_fn_x(driver, 1.0, u).  Scalar u gives a
    Python complex; array u gives a complex array of the same shape.
    Non-finite u, or a u whose exponent overflows, raises DomainError.
    """
    _checks.lam(lam)
    u = _checks.finite(np.asarray(u, dtype=float), "u")
    flat = u.ravel()
    nz = np.flatnonzero(flat)

    def exponent(lam, u_nz):
        closed = driver._psi_integral(u_nz)
        if closed is not None:
            _log_closed("char_fn_x", u_nz.size)
            return (2.0 / lam) * closed
        sign = np.sign(u_nz)
        return (2.0 / lam) * _integrate(
            lambda v, k: driver.psi(sign[k] * v) / v,
            np.zeros(nz.size), np.abs(u_nz), np.arange(nz.size), nz.size, "char_fn_x",
        )

    expo = np.zeros(flat.size, dtype=complex)
    expo[nz] = _checks.in_range("char_fn_x exponent", exponent, lam, flat[nz],
                                numpy=True)
    out = np.exp(expo).reshape(u.shape)
    return complex(out) if out.ndim == 0 else out


def char_fn_joint(driver: DriverSpec, lam: float, times, us) -> complex:
    """Joint characteristic function E exp(i sum_j u_j X_{t_j}).

    Evaluates exp(integral psi(sum_j u_j e^{-lam|t_j - s|}) ds) over the
    whole line; nothing is truncated.  Before t_0 and after t_n the
    kernel is c e^{-lam|s - t|} with c_L = sum_j u_j e^{-lam(t_j - t_0)}
    and c_R = sum_j u_j e^{-lam(t_n - t_j)}, so each outer half-line is
    (1/lam) int_0^{|c|} psi(sign(c) v)/v dv, the char_fn_x integrand.
    Those two integrals and [t_0, t_n], split at the times where the
    kernel has its kinks, are integrated by the adaptive rule described
    in the module docstring.  Non-finite times or us, and us so large
    that the exponent overflows, raise DomainError.
    """
    _checks.lam(lam)
    times = _checks.finite(np.asarray(times, dtype=float), "times")
    us = _checks.finite(np.asarray(us, dtype=float), "us")
    if times.shape != us.shape or times.ndim != 1 or len(times) == 0:
        raise DimensionMismatch("times and us must be 1-D of equal length")
    if len(times) > 1 and not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly increasing")
    if np.all(us == 0):
        return 1.0 + 0.0j

    # the law is stationary: starting the times at 0 keeps s - t_j free of
    # the rounding of large times
    times = times - times[0]
    # kernel weights c_L at t_0 and c_R at t_n of the two outer half-lines
    c = np.array([us @ np.exp(-lam * times), us @ np.exp(-lam * (times[-1] - times))])
    c = c[c != 0]
    sign = np.append(np.sign(c), 0.0)     # by owner; the window's is unused
    # the first integrals are the half-lines with c != 0, as
    # (1/lam) int_0^{|c|} psi(sign(c) v)/v dv; the last one is the window
    # [t_0, t_n] split at the times (none for a single time)
    n_win = len(times) - 1
    a = np.concatenate((np.zeros(c.size), times[:-1]))
    b = np.concatenate((np.abs(c), times[1:]))
    owner = np.minimum(np.arange(c.size + n_win), c.size)

    def integrand(s, k):
        kern = np.zeros_like(s)
        for t_j, u_j in zip(times, us):
            kern += u_j * np.exp(-lam * np.abs(t_j - s))
        half = k < c.size
        return driver.psi(np.where(half, sign[k] * s, kern)) / np.where(half, lam * s, 1.0)

    def exponent(lam, times, us):
        return _integrate(integrand, a, b, owner, c.size + (n_win > 0), "char_fn_joint").sum()

    return complex(np.exp(_checks.in_range("char_fn_joint exponent", exponent, lam, times, us,
                                           numpy=True)))


# ---------------------------------------------------------------------------
# cumulant transform and Levy-density relation (time-scaled convention)


def kbar(driver: DriverSpec, theta: float) -> float:
    """log E exp(-theta X_0) for subordinator drivers, time-scaled.

    Equals 2 K(theta) = 2 int_0^theta k(v)/v dv after substituting
    v = theta e^{-u} into 2 int_0^inf k(theta e^{-u}) du.  The gamma,
    exponential-jump and drift drivers give K in closed form (stated in
    ``drivers``).  For the others (jumps of one size, user drivers) the
    adaptive rule integrates it, one array cumulant_k call per round; the
    integrand is bounded (k(v)/v -> -mean as v -> 0) and the
    Gauss-Legendre nodes never touch v = 0.  Like cumulant_k, negative theta
    works on the interval where the driver's moment generating function
    is finite, enabling central-stencil differentiation at 0.
    Non-finite theta raises DomainError, and so does a closed K that
    leaves the float range.
    """
    if _checks.finite(theta, "theta") == 0:
        return 0.0
    closed = driver._k_integral(theta)
    if closed is not None:
        _log_closed("kbar", 1)
        return 2.0 * closed
    return 2.0 * _real_integral(lambda v: driver.cumulant_k(v) / v, 0.0, theta, "kbar")


def gbar_from_g(g: Callable[[float], float], y: float) -> float:
    """Levy density of X_0 from the driver's Levy density g:
    gbar(y) = 2 int_1^inf g(x y) dx, for y > 0 (time-scaled convention),
    integrated as 2 int_0^1 g(y/t)/t^2 dt (x = 1/t) by the adaptive rule,
    with g called once per node."""
    _checks.positive(y, "y")
    g_at = np.frompyfunc(g, 1, 1)
    return 2.0 * _real_integral(lambda t: g_at(y / t).astype(float) / (t * t), 0.0, 1.0,
                                "gbar_from_g")


def g_from_gbar(
    gbar: Callable[[float], float],
    gbar_prime: Callable[[float], float],
    y: float,
) -> float:
    """Exact inverse of gbar_from_g: g(y) = (-gbar(y) - y gbar'(y)) / 2."""
    _checks.positive(y, "y")
    return 0.5 * (-gbar(y) - y * gbar_prime(y))

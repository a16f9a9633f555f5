"""Parametric Levy drivers.

A driver is a two-sided Levy process L built from two independent copies
of a one-sided Levy process: increments on the positive time axis come
from one stream, increments on the negative axis from the other.  Each
family here has closed forms for the characteristic exponent

    psi(u) = i u gamma - sigma^2 u^2 / 2
             + integral (e^{iux} - 1 - iux 1_{|x|<=1}) nu(dx),

so that E exp(i u L_t) = exp(t psi(u)), together with the first two
moments of L(1) and an exact increment sampler.  Every supported family
has finite variance, hence finite log-moment.

``sample_weighted_sum`` draws the truncated half-line integrals G and
X^+_{t_max} of every path.  Brownian and compound Poisson drivers draw
them exactly in the discrete law (routes "normal" and "jumps"), the
gamma subordinator by a truncated series (route "series"; Bondesson
1982, Rosinski 2001) whose number of draws per path does not grow as
the grid is refined, or by the dense default (route "dense").  Each call
logs one debug record: its route, rows, the terms it drew and the series
mass it neglects.

Families: Brownian motion with drift, compound Poisson (normal,
exponential, or fixed-size jumps) and the gamma subordinator.  Pure
deterministic drift L_t = gamma t is the Brownian family at sigma^2 = 0
(``deterministic_drift``); with gamma >= 0 it is a subordinator.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _checks
from .errors import DomainError, NotASubordinator

__all__ = [
    "LevyMeasure",
    "LevyTriplet",
    "DriverSpec",
    "BrownianDriver",
    "CompoundPoissonDriver",
    "GammaSubordinatorDriver",
    "NormalJumps",
    "ExponentialJumps",
    "PointMassJumps",
    "brownian",
    "compound_poisson",
    "gamma_subordinator",
    "deterministic_drift",
]

_log = logging.getLogger("wbou")


def _weights(dt, lam, m):
    """Kernel weights e^{-lam dt j}, j = 0..m-1."""
    return np.exp(-lam * dt * np.arange(m))


def _kernel_sum(h, m):
    """sum_{j<m} e^{-h j} for h > 0, in closed form: the sum of m kernel
    weights at h = lam dt, or of their squares at h = 2 lam dt.  Where h
    is subnormal or underflowed to 0 (expm1 would lose its digits or
    divide 0 by 0) every weight is 1.0 and the sum is m."""
    if h < sys.float_info.min:
        return float(m)
    return math.expm1(-h * m) / math.expm1(-h)


@functools.cache
def _laguerre_rule():
    """64-node Gauss-Laguerre nodes and weights, built on first use.

    The nodes are the eigenvalues of the Jacobi matrix of the Laguerre
    polynomials (Golub-Welsch), the weights 1 / sum_{k<64} L_k(x)^2 from
    the three-term recurrence (the L_k are orthonormal for e^{-x}).  The
    first four moments come out within 1e-14.  NumPy's laggauss is 5e-14
    off in the first moment; SciPy's roots_laguerre and NumPy's eigh
    (eigenvector weights) each add 0.6 to 1.1 MB of resident memory,
    where eigvalsh is already warm from the characteristic functions.
    """
    n = 64
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, 1) + np.diag(k, -1))
    p0, p1 = np.ones(n), 1.0 - x
    norm2 = p0 * p0 + p1 * p1
    for j in range(1, n - 1):
        p0, p1 = p1, ((2 * j + 1 - x) * p1 - j * p0) / (j + 1)
        norm2 += p1 * p1
    return x, 1.0 / norm2


def _gamma_log_tail(z):
    """F(z) = int_1^inf ln(v) e^{-z v} / v dv for z > 0, the Meijer
    G^{3,0}_{2,3}(z | 1, 1; 0, 0, 0); a F(b y) is the log-weighted tail
    int_{x >= y} ln(x/y) a e^{-b x}/x dx of the gamma density.

    For z <= 2 it is the series pi^2/12 + (gamma_E + ln z)^2/2 +
    sum_{k>=1} (-z)^k / (k^2 k!), the antiderivative of F'(z) = -E1(z)/z,
    added by fsum: at z = 2 its terms of size 1.6 cancel to F = 0.014.
    Above 2, v = 1 + u/z gives e^{-z}/z times the integral of
    e^{-u} log1p(u/z)/(1 + u/z) over u > 0, a 64-node Gauss-Laguerre sum.
    Both branches are within 1e-14 relative of the Meijer G value; the
    result underflows to 0 past z of about 745.  A z that underflowed to
    0 gives inf, as E1(0) does.
    """
    if z == 0.0:
        return math.inf
    if z <= 2.0:
        terms = [math.pi**2 / 12.0, 0.5 * (np.euler_gamma + math.log(z)) ** 2]
        term, k = 1.0, 0
        while abs(term) > 1e-18:
            k += 1
            term *= -z / k
            terms.append(term / (k * k))
        return math.fsum(terms)
    u, w = _laguerre_rule()
    q = u / z
    return math.exp(-z) / z * float(np.log1p(q) / (1.0 + q) @ w)


def _scalar(x):
    """A NumPy result as a float where the input was a scalar."""
    return float(x) if np.ndim(x) == 0 else x


def _above(theta, lo):
    """theta, finite, if every value is above lo, the end of the interval
    on which a Laplace transform is finite; else DomainError."""
    theta = _checks.finite(theta, "theta")
    if not np.all(theta > lo):
        raise DomainError(f"Laplace transform finite only for theta > {lo}")
    return theta


def _halfline(dt, lam, m, tol, n_paths):
    """The arguments of sample_weighted_sum, checked: dt positive, lam a
    rate, m and n_paths whole numbers >= 1, tol in (0, 1)."""
    return (_checks.positive(dt, "dt"), _checks.lam(lam), _checks.whole(m, 1, "m"),
            _checks.positive(tol, "tol", hi=1.0), _checks.whole(n_paths, 1, "n_paths"))


def _report(route, n_paths, terms, series_mass=0.0):
    """The one debug record of a sample_weighted_sum call."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("sample_weighted_sum: route=%s rows=%d terms=%d series_mass<=%.3g",
                   route, n_paths, terms, series_mass)


#: the largest mean NumPy's Poisson sampler takes
_POISSON_MAX = float(np.iinfo("l").max - 10.0 * math.sqrt(np.iinfo("l").max))


def _poisson(rng, mean, size, what):
    """rng.poisson(mean, size); a mean above NumPy's limit raises
    DomainError naming the parameters ``what`` behind it."""
    if not mean <= _POISSON_MAX:
        raise DomainError(f"the Poisson mean {mean:.3g} at {what} is above NumPy's "
                          f"limit {_POISSON_MAX:.3g}")
    return rng.poisson(mean, size)


def _scatter_sum(rng, n_paths, mean_count, dt, lam, m, sizes, route, params,
                 series_mass=0.0):
    """Per row, the sum of e^{-lam dt cell} * size over a Poisson(mean_count)
    number of points at iid uniform cells in [0, m), weighting only the
    drawn cells; sizes(k) draws k iid sizes.  Reports the k points drawn;
    params names the driver's parameters in an error."""
    counts = _poisson(rng, mean_count, n_paths, f"{params}, lam={lam:g}, dt={dt:g}, m={m}")
    k = int(counts.sum())
    cells = rng.integers(0, m, k)
    rows = np.repeat(np.arange(n_paths), counts)
    _report(route, n_paths, k, series_mass)
    return np.bincount(rows, weights=np.exp(-lam * dt * cells) * sizes(k), minlength=n_paths)


# ---------------------------------------------------------------------------
# Levy measures


@dataclass(frozen=True)
class LevyMeasure:
    """Accessor for a Levy measure: density part plus point atoms.  A
    driver's measure is ``driver.triplet.measure``.

    ``density`` is the Lebesgue density of the continuous part on
    ``support`` (excluding 0); ``atoms`` is a tuple of (position, mass)
    pairs.  A density comes with both closed tails of the continuous
    part, ``tail_pos_closed(y)`` the mass of [y, inf) and
    ``tail_neg_closed(y)`` that of (-inf, -y]; without them construction
    raises DomainError.  A measure without a density has continuous
    tails 0.  ``log_tail_pos_closed(y)``, optional, is the log-weighted
    tail int_{[y, inf)} ln(x/y) density(x) dx of the density part, which
    gives the Levy tail of the marginal of X (``triplet_of_x``) without
    quadrature: a F(b y) for the gamma subordinator, with F the Meijer
    G^{3,0}_{2,3}(. | 1, 1; 0, 0, 0), and eta E1(r y) for compound
    Poisson jumps at rate eta with Exp(r) sizes.  Without it (normal
    jumps, user measures) both tails of the marginal integrate the
    closed tails by parts, up to the point where they are 0 in floats
    or the end of the support.
    """

    density: Callable[[float], float] | None = None
    support: tuple[float, float] = (0.0, 0.0)
    atoms: tuple[tuple[float, float], ...] = ()
    tail_pos_closed: Callable[[float], float] | None = None
    tail_neg_closed: Callable[[float], float] | None = None
    log_tail_pos_closed: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.density is not None and None in (self.tail_pos_closed, self.tail_neg_closed):
            raise DomainError("a Levy measure with a density needs both closed tails")

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms

    def tail_pos(self, y: float) -> float:
        """Mass of [y, inf) for y > 0."""
        _checks.positive(y, "tail argument")
        cont = 0.0 if self.density is None else self.tail_pos_closed(y)
        return cont + sum(m for c, m in self.atoms if c >= y)

    def tail_neg(self, y: float) -> float:
        """Mass of (-inf, -y] for y > 0."""
        _checks.positive(y, "tail argument")
        cont = 0.0 if self.density is None else self.tail_neg_closed(y)
        return cont + sum(m for c, m in self.atoms if c <= -y)


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristic triplet (gamma, sigma^2, nu) in the truncated
    representation with cutoff function 1_{|x|<=1}."""

    gamma: float
    sigma2: float
    measure: LevyMeasure


# ---------------------------------------------------------------------------
# Jump-size distributions for the compound Poisson family


@dataclass(frozen=True)
class NormalJumps:
    """Gaussian jump sizes N(mean, var)."""

    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        _checks.finite(self.mean, "NormalJumps.mean")
        _checks.positive(self.var, "NormalJumps.var")

    positive = False

    def cf_minus_one(self, u):
        """E e^{iuJ} - 1, without cancellation at small u."""
        return np.expm1(1j * u * self.mean - 0.5 * self.var * np.square(u))

    def laplace(self, theta):
        return _scalar(_checks.in_range(
            f"{self!r}.laplace", lambda t: np.exp(-t * self.mean + 0.5 * self.var * t * t),
            _checks.finite(theta, "theta"), numpy=True))

    @property
    def moment1(self) -> float:
        return self.mean

    @property
    def moment2(self) -> float:
        return self.mean**2 + self.var

    def truncated_mean(self) -> float:
        # E[J; |J| <= 1] for J ~ N(mean, var)
        from scipy import special

        s = math.sqrt(self.var)
        a = (-1.0 - self.mean) / s
        b = (1.0 - self.mean) / s
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return self.mean * (special.ndtr(b) - special.ndtr(a)) - s * (phi(b) - phi(a))

    def density(self, x):
        x = _checks.finite(x, "density argument")
        return math.exp(-0.5 * (x - self.mean) ** 2 / self.var) / math.sqrt(
            2.0 * math.pi * self.var
        )

    def sample_sum(self, rng, counts):
        # sum of N iid normals given N=counts is N(counts*mean, counts*var)
        counts = np.asarray(counts, dtype=float)
        return rng.normal(counts * self.mean, np.sqrt(counts * self.var))

    def tail_pos(self, y: float) -> float:
        from scipy import special

        s = math.sqrt(self.var)
        return special.ndtr((self.mean - _checks.positive(y, "tail argument")) / s)

    def tail_neg(self, y: float) -> float:
        from scipy import special

        s = math.sqrt(self.var)
        return special.ndtr((-_checks.positive(y, "tail argument") - self.mean) / s)

    #: int_{x >= y} ln(x/y) density(x) dx has no closed form here: the
    #: marginal's tail integrates tail_pos by parts
    log_tail_pos = None


@dataclass(frozen=True)
class ExponentialJumps:
    """Exponential jump sizes with the given rate (all jumps positive)."""

    rate: float = 1.0

    def __post_init__(self):
        _checks.positive(self.rate, "ExponentialJumps.rate")

    positive = True

    def cf_minus_one(self, u):
        """E e^{iuJ} - 1 = iu / (rate - iu)."""
        u = np.asarray(u, dtype=float)
        return 1j * u / (self.rate - 1j * u)

    def laplace(self, theta):
        return _scalar(self.rate / (self.rate + _above(theta, -self.rate)))

    def laplace_minus_one(self, theta):
        """E e^{-theta J} - 1 = -theta / (rate + theta)."""
        theta = _above(theta, -self.rate)
        return _scalar(-theta / (self.rate + theta))

    @property
    def moment1(self) -> float:
        return 1.0 / self.rate

    @property
    def moment2(self) -> float:
        return 2.0 / self.rate**2

    def truncated_mean(self) -> float:
        r = self.rate
        return (1.0 - math.exp(-r) * (1.0 + r)) / r

    def density(self, x):
        if _checks.finite(x, "density argument") > 0:
            return self.rate * math.exp(-self.rate * x)
        return 0.0

    def sample_sum(self, rng, counts):
        # sum of N iid Exp(rate) given N=counts is Gamma(counts, 1/rate)
        return rng.gamma(np.asarray(counts, dtype=float), 1.0 / self.rate)

    def tail_pos(self, y: float) -> float:
        return math.exp(-self.rate * _checks.positive(y, "tail argument"))

    def tail_neg(self, y: float) -> float:
        _checks.positive(y, "tail argument")
        return 0.0

    def log_tail_pos(self, y: float) -> float:
        """int_{x >= y} ln(x/y) density(x) dx = E1(rate y)."""
        from scipy import special

        return float(special.exp1(self.rate * _checks.positive(y, "tail argument")))


@dataclass(frozen=True)
class PointMassJumps:
    """All jumps have the same fixed size."""

    size: float = 1.0

    def __post_init__(self):
        if _checks.finite(self.size, "PointMassJumps.size") == 0:
            raise DomainError("jump size must be nonzero")

    @property
    def positive(self) -> bool:
        return self.size > 0

    def cf_minus_one(self, u):
        """E e^{iuJ} - 1, without cancellation at small u."""
        return np.expm1(1j * np.asarray(u, dtype=float) * self.size)

    def laplace(self, theta):
        return _scalar(_checks.in_range(f"{self!r}.laplace", lambda t: np.exp(-t * self.size),
                                        _checks.finite(theta, "theta"), numpy=True))

    def laplace_minus_one(self, theta):
        """E e^{-theta J} - 1, without cancellation at small theta."""
        return _scalar(_checks.in_range(f"{self!r}.laplace_minus_one",
                                        lambda t: np.expm1(-t * self.size),
                                        _checks.finite(theta, "theta"), numpy=True))

    @property
    def moment1(self) -> float:
        return self.size

    @property
    def moment2(self) -> float:
        return self.size**2

    def truncated_mean(self) -> float:
        return self.size if abs(self.size) <= 1.0 else 0.0

    def sample_sum(self, rng, counts):
        return np.asarray(counts, dtype=float) * self.size


# ---------------------------------------------------------------------------
# Driver families


class DriverSpec:
    """Base interface shared by all driver families.

    A family implements psi, moments, triplet (its Levy measure is
    triplet.measure) and sample_increments; subordinators add
    cumulant_k, and a family may draw sample_weighted_sum from its law.
    Instances are immutable; all methods are pure, and samplers only
    mutate the Generator passed in, so drivers are safe to share across
    threads.
    """

    #: True only when the one-sided process is a.s. nondecreasing.
    nonnegative: bool = False

    def psi(self, u):
        """Characteristic exponent; accepts scalars or arrays."""
        raise NotImplementedError

    def cumulant_k(self, theta):
        """log E exp(-theta L(1)), defined for subordinator drivers only.

        theta >= 0 always works; negative theta is accepted on the open
        interval where the moment generating function is finite, so the
        transform can be differentiated at 0 with central stencils.
        Accepts scalars or arrays, like psi: a scalar gives a float, and
        one value outside the domain raises DomainError.
        """
        raise NotASubordinator(
            f"{type(self).__name__} is not a nonnegative driver"
        )

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of L(1)."""
        raise NotImplementedError

    def _moments_in_range(self):
        """A constructor's last check: parameters whose mean or variance
        of L(1) is not a finite float raise DomainError.  (The Brownian
        moments are its parameters, checked as such.)"""
        _checks.in_range(f"{self!r}.moments", self.moments)

    @property
    def triplet(self) -> LevyTriplet:
        """(gamma, sigma^2, nu) with the truncation function 1_{|x|<=1}."""
        raise NotImplementedError

    def sample_increments(self, dt: float, rng, size) -> np.ndarray:
        """Exact draws of L increments over windows of length dt.

        The engine draws a main window here, as one (n_paths, n) array.
        Samplers are prefix-consistent: the first k values of a draw of
        size m > k equal a draw of size k from an identically seeded
        generator.
        """
        raise NotImplementedError

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol) -> np.ndarray:
        """n_paths iid draws of sum_{j<m} e^{-lam dt j} dL_j, with dL_j
        the increments over m consecutive windows of length dt.

        This is a truncated half-line integral: the weight at the far end
        is about tol.  This exact default (route "dense") weights
        (n_paths, m) drawn increments; the families draw the sum from its
        law, and a law that truncates a series keeps the expected mass it
        neglects below tol * mu / lam, the mass the truncation itself
        neglects.  Each call logs its route, rows, terms and series mass.
        """
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        _report("dense", n_paths, n_paths * m)
        return self.sample_increments(dt, rng, (n_paths, m)) @ _weights(dt, lam, m)


@dataclass(frozen=True)
class BrownianDriver(DriverSpec):
    """Brownian motion with drift: psi(u) = i u gamma - sigma^2 u^2 / 2.

    sigma2 = 0 is pure deterministic drift L_t = gamma t, a (degenerate)
    subordinator when gamma >= 0.
    """

    gamma: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        _checks.finite(self.gamma, "BrownianDriver.gamma")
        _checks.nonnegative(self.sigma2, "BrownianDriver.sigma2")

    def psi(self, u):
        u = np.asarray(_checks.finite(u, "u"), dtype=float)
        out = 1j * u * self.gamma - 0.5 * self.sigma2 * u * u
        return out if out.ndim else complex(out)

    @property
    def nonnegative(self) -> bool:
        return self.sigma2 == 0 and self.gamma >= 0

    def cumulant_k(self, theta):
        if not self.nonnegative:
            raise NotASubordinator("driver has a Gaussian component or a negative drift")
        return _scalar(-self.gamma * _checks.finite(theta, "theta"))

    def moments(self):
        return (self.gamma, self.sigma2)

    @property
    def triplet(self) -> LevyTriplet:
        return LevyTriplet(self.gamma, self.sigma2, LevyMeasure())

    def sample_increments(self, dt, rng, size):
        _checks.positive(dt, "dt")
        return rng.normal(self.gamma * dt, math.sqrt(self.sigma2 * dt), size)

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        # a weighted sum of iid normals is one normal, exactly; its mean and
        # variance take the weights' sum and sum of squares in closed form
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        h = lam * dt
        _report("normal", n_paths, n_paths)
        return rng.normal(self.gamma * dt * _kernel_sum(h, m),
                          math.sqrt(self.sigma2 * dt * _kernel_sum(2.0 * h, m)), n_paths)


@dataclass(frozen=True)
class CompoundPoissonDriver(DriverSpec):
    """Compound Poisson: jumps at rate ``intensity`` with iid sizes.

    psi(u) = intensity * (cf_jump(u) - 1); no extra drift, so in the
    truncated triplet the drift equals the compensator
    intensity * E[J; |J| <= 1].
    """

    intensity: float = 1.0
    jumps: NormalJumps | ExponentialJumps | PointMassJumps = NormalJumps()

    def __post_init__(self):
        _checks.nonnegative(self.intensity, "CompoundPoissonDriver.intensity")
        self._moments_in_range()

    @property
    def nonnegative(self) -> bool:
        return self.jumps.positive

    def psi(self, u):
        out = self.intensity * self.jumps.cf_minus_one(_checks.finite(u, "u"))
        return out if np.ndim(out) else complex(out)

    def cumulant_k(self, theta):
        if not self.jumps.positive:
            raise NotASubordinator("jump distribution puts mass on (-inf, 0]")
        return self.intensity * self.jumps.laplace_minus_one(theta)

    def moments(self):
        return (
            self.intensity * self.jumps.moment1,
            self.intensity * self.jumps.moment2,
        )

    @property
    def triplet(self) -> LevyTriplet:
        eta = self.intensity
        j = self.jumps
        if isinstance(j, PointMassJumps):
            nu = LevyMeasure(atoms=((j.size, eta),))
        else:
            nu = LevyMeasure(
                density=lambda x: eta * j.density(x),
                support=(0.0 if j.positive else -math.inf, math.inf),
                tail_pos_closed=lambda y: eta * j.tail_pos(y),
                tail_neg_closed=lambda y: eta * j.tail_neg(y),
                log_tail_pos_closed=None if j.log_tail_pos is None
                else lambda y: eta * j.log_tail_pos(y),
            )
        return LevyTriplet(eta * j.truncated_mean(), 0.0, nu)

    def sample_increments(self, dt, rng, size):
        # counts and jump sums come from two child streams, so a draw of
        # size k is the prefix of any longer draw from the same generator
        _checks.positive(dt, "dt")
        count_gen, sum_gen = rng.spawn(2)
        counts = _poisson(count_gen, self.intensity * dt, size,
                          f"eta={self.intensity:g}, dt={dt:g}")
        return self.jumps.sample_sum(sum_gen, counts)

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        # exact in the discrete law: a Poisson(intensity m dt) number of
        # jumps per row, each in a uniform cell and weighted by its kernel
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        return _scatter_sum(rng, n_paths, self.intensity * dt * m, dt, lam, m,
                            lambda k: self.jumps.sample_sum(rng, np.ones(k)), "jumps",
                            f"eta={self.intensity:g}")


@dataclass(frozen=True)
class GammaSubordinatorDriver(DriverSpec):
    """Gamma subordinator: Levy density shape * exp(-rate x)/x on (0, inf).

    L_t ~ Gamma(shape * t, rate), psi(u) = -shape * log(1 - iu/rate).
    """

    shape: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        _checks.positive(self.shape, "GammaSubordinatorDriver.shape")
        _checks.positive(self.rate, "GammaSubordinatorDriver.rate")
        self._moments_in_range()

    nonnegative = True

    def psi(self, u):
        u = np.asarray(_checks.finite(u, "u"), dtype=float)
        out = -self.shape * np.log(1.0 - 1j * u / self.rate)
        return out if out.ndim else complex(out)

    def cumulant_k(self, theta):
        return _scalar(-self.shape * np.log1p(_above(theta, -self.rate) / self.rate))

    def moments(self):
        return (self.shape / self.rate, self.shape / self.rate**2)

    @property
    def triplet(self) -> LevyTriplet:
        a, b = self.shape, self.rate

        def tail_pos(y):
            from scipy import special

            return a * special.exp1(b * y)

        nu = LevyMeasure(
            density=lambda x: a * math.exp(-b * x) / x if x > 0 else 0.0,
            support=(0.0, math.inf),
            tail_pos_closed=tail_pos,
            tail_neg_closed=lambda y: 0.0,
            log_tail_pos_closed=lambda y: a * _gamma_log_tail(b * y),
        )
        return LevyTriplet((a / b) * (1.0 - math.exp(-b)), 0.0, nu)

    def sample_increments(self, dt, rng, size):
        _checks.positive(dt, "dt")
        return rng.gamma(self.shape * dt, 1.0 / self.rate, size)

    def _gamma_max(self, dt, lam, m, tol):
        """Gamma_max of the series in sample_weighted_sum, or None (dense)
        when the series would need as many terms as there are cells."""
        lam_t = lam * m * dt
        gmax = self.shape * m * dt * math.log(lam_t / tol) if lam_t > tol else 0.0
        return gmax if 0.0 < gmax < m else None

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        """Bondesson's series for the gamma process over T = m dt: jumps
        e^{-Gamma_i/(aT)} V_i / b at uniform times, Gamma_i the points of a
        unit Poisson process and V_i ~ Exp(1).  Terms are kept while
        Gamma_i < Gamma_max = aT ln(lam T / tol); the expected mass of the
        rest is (aT/b) e^{-Gamma_max/(aT)} = tol * mu / lam.  Below
        Gamma_max the Gamma_i are a Poisson(Gamma_max) number of uniforms.
        Where the series would need m terms or more (coarse grids) the sum
        is the dense default.
        """
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        gmax = self._gamma_max(dt, lam, m, tol)
        if gmax is None:
            return super().sample_weighted_sum(dt, lam, m, rng, n_paths, tol)
        a_t = self.shape * m * dt
        return _scatter_sum(
            rng, n_paths, gmax, dt, lam, m,
            lambda k: np.exp(-rng.uniform(0.0, gmax, k) / a_t)
            * rng.standard_exponential(k) / self.rate,
            "series", f"a={self.shape:g}, b={self.rate:g}",
            tol * (self.shape / self.rate) / lam,
        )


# short constructor aliases

def brownian(gamma: float = 0.0, sigma2: float = 1.0) -> BrownianDriver:
    return BrownianDriver(gamma, sigma2)


def compound_poisson(intensity, jumps) -> CompoundPoissonDriver:
    return CompoundPoissonDriver(intensity, jumps)


def gamma_subordinator(shape, rate) -> GammaSubordinatorDriver:
    return GammaSubordinatorDriver(shape, rate)


def deterministic_drift(gamma) -> BrownianDriver:
    """Pure drift L_t = gamma t: the Brownian driver with sigma^2 = 0."""
    return BrownianDriver(gamma, 0.0)

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
X^+_{t_max} of every path.  Brownian, drift and compound Poisson drivers
draw them exactly in the discrete law, the gamma subordinator by a
truncated series (Bondesson 1982; Rosinski 2001) whose number of draws
per path does not grow as the grid is refined, or by the dense default.
Each call logs one debug record: its route, rows, the terms it drew and
the series mass it neglects.

Families: Brownian motion with drift, compound Poisson (normal,
exponential, or fixed-size jumps), the gamma subordinator, and pure
deterministic drift.
"""
from __future__ import annotations

import logging
import math
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
    "DriftDriver",
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


def _scatter_sum(rng, n_paths, mean_count, dt, lam, m, sizes, route, series_mass=0.0):
    """Per row, the sum of e^{-lam dt cell} * size over a Poisson(mean_count)
    number of points at iid uniform cells in [0, m), weighting only the
    drawn cells; sizes(k) draws k iid sizes.  Reports the k points drawn."""
    counts = rng.poisson(mean_count, n_paths)
    k = int(counts.sum())
    cells = rng.integers(0, m, k)
    rows = np.repeat(np.arange(n_paths), counts)
    _report(route, n_paths, k, series_mass)
    return np.bincount(rows, weights=np.exp(-lam * dt * cells) * sizes(k), minlength=n_paths)


# ---------------------------------------------------------------------------
# Levy measures


@dataclass(frozen=True)
class LevyMeasure:
    """Accessor for a Levy measure: density part plus point atoms.

    ``density`` is the Lebesgue density of the continuous part on
    ``support`` (excluding 0); ``atoms`` is a tuple of (position, mass)
    pairs.  A density comes with both closed tails of the continuous
    part, ``tail_pos_closed(y)`` the mass of [y, inf) and
    ``tail_neg_closed(y)`` that of (-inf, -y]; without them construction
    raises DomainError.  A measure without a density has continuous
    tails 0.
    """

    density: Callable[[float], float] | None = None
    support: tuple[float, float] = (0.0, 0.0)
    atoms: tuple[tuple[float, float], ...] = ()
    tail_pos_closed: Callable[[float], float] | None = None
    tail_neg_closed: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.density is not None and None in (self.tail_pos_closed, self.tail_neg_closed):
            raise DomainError("a Levy measure with a density needs both closed tails")

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms

    def tail_pos(self, y: float, include_endpoint: bool = True) -> float:
        """Mass of [y, inf) for y > 0 (or (y, inf) if not include_endpoint)."""
        _checks.positive(y, "tail argument")
        cont = 0.0 if self.density is None else self.tail_pos_closed(y)
        keep = (lambda c: c >= y) if include_endpoint else (lambda c: c > y)
        return cont + sum(m for c, m in self.atoms if keep(c))

    def tail_neg(self, y: float, include_endpoint: bool = True) -> float:
        """Mass of (-inf, -y] for y > 0."""
        _checks.positive(y, "tail argument")
        cont = 0.0 if self.density is None else self.tail_neg_closed(y)
        keep = (lambda c: c <= -y) if include_endpoint else (lambda c: c < -y)
        return cont + sum(m for c, m in self.atoms if keep(c))


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

    def laplace(self, theta: float) -> float:
        theta = _checks.finite(theta, "theta")
        return math.exp(-theta * self.mean + 0.5 * self.var * theta * theta)

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
        return special.ndtr((self.mean - y) / s)

    def tail_neg(self, y: float) -> float:
        from scipy import special

        s = math.sqrt(self.var)
        return special.ndtr((-y - self.mean) / s)


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

    def laplace(self, theta: float) -> float:
        if _checks.finite(theta, "theta") <= -self.rate:
            raise DomainError(
                f"Laplace transform finite only for theta > {-self.rate}"
            )
        return self.rate / (self.rate + theta)

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
        return self.rate * math.exp(-self.rate * x) if x > 0 else 0.0

    def sample_sum(self, rng, counts):
        # sum of N iid Exp(rate) given N=counts is Gamma(counts, 1/rate)
        return rng.gamma(np.asarray(counts, dtype=float), 1.0 / self.rate)

    def tail_pos(self, y: float) -> float:
        return math.exp(-self.rate * y)

    def tail_neg(self, y: float) -> float:
        return 0.0


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

    def laplace(self, theta: float) -> float:
        return math.exp(-_checks.finite(theta, "theta") * self.size)

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

    Instances are immutable; all methods are pure, and samplers only
    mutate the Generator passed in, so drivers are safe to share across
    threads.
    """

    #: True only when the one-sided process is a.s. nondecreasing.
    nonnegative: bool = False

    def psi(self, u):
        """Characteristic exponent; accepts scalars or arrays."""
        raise NotImplementedError

    def cumulant_k(self, theta: float) -> float:
        """log E exp(-theta L(1)), defined for subordinator drivers only.

        theta >= 0 always works; negative theta is accepted on the open
        interval where the moment generating function is finite, so the
        transform can be differentiated at 0 with central stencils.
        """
        raise NotASubordinator(
            f"{type(self).__name__} is not a nonnegative driver"
        )

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of L(1)."""
        raise NotImplementedError

    @property
    def measure(self) -> LevyMeasure:
        raise NotImplementedError

    @property
    def triplet(self) -> LevyTriplet:
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
    """Brownian motion with drift: psi(u) = i u gamma - sigma^2 u^2 / 2."""

    gamma: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        _checks.finite(self.gamma, "BrownianDriver.gamma")
        _checks.nonnegative(self.sigma2, "BrownianDriver.sigma2")

    def psi(self, u):
        u = np.asarray(_checks.finite(u, "u"), dtype=float)
        out = 1j * u * self.gamma - 0.5 * self.sigma2 * u * u
        return out if out.ndim else complex(out)

    def cumulant_k(self, theta: float) -> float:
        raise NotASubordinator("driver has a Gaussian component")

    def moments(self):
        return (self.gamma, self.sigma2)

    @property
    def measure(self) -> LevyMeasure:
        return LevyMeasure()

    @property
    def triplet(self) -> LevyTriplet:
        return LevyTriplet(self.gamma, self.sigma2, LevyMeasure())

    def sample_increments(self, dt, rng, size):
        _checks.positive(dt, "dt")
        return rng.normal(self.gamma * dt, math.sqrt(self.sigma2 * dt), size)

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        # a weighted sum of iid normals is one normal, exactly
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        w = _weights(dt, lam, m)
        _report("normal", n_paths, n_paths)
        return rng.normal(self.gamma * dt * w.sum(), math.sqrt(self.sigma2 * dt * (w @ w)),
                          n_paths)


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

    @property
    def nonnegative(self) -> bool:
        return self.jumps.positive

    def psi(self, u):
        out = self.intensity * self.jumps.cf_minus_one(_checks.finite(u, "u"))
        return out if np.ndim(out) else complex(out)

    def cumulant_k(self, theta: float) -> float:
        if not self.jumps.positive:
            raise NotASubordinator("jump distribution puts mass on (-inf, 0]")
        return self.intensity * (self.jumps.laplace(theta) - 1.0)

    def moments(self):
        return (
            self.intensity * self.jumps.moment1,
            self.intensity * self.jumps.moment2,
        )

    @property
    def measure(self) -> LevyMeasure:
        eta = self.intensity
        j = self.jumps
        if isinstance(j, PointMassJumps):
            return LevyMeasure(atoms=((j.size, eta),))
        if isinstance(j, ExponentialJumps):
            return LevyMeasure(
                density=lambda x: eta * j.density(x),
                support=(0.0, math.inf),
                tail_pos_closed=lambda y: eta * j.tail_pos(y),
                tail_neg_closed=lambda y: 0.0,
            )
        return LevyMeasure(
            density=lambda x: eta * j.density(x),
            support=(-math.inf, math.inf),
            tail_pos_closed=lambda y: eta * j.tail_pos(y),
            tail_neg_closed=lambda y: eta * j.tail_neg(y),
        )

    @property
    def triplet(self) -> LevyTriplet:
        return LevyTriplet(
            self.intensity * self.jumps.truncated_mean(), 0.0, self.measure
        )

    def sample_increments(self, dt, rng, size):
        # counts and jump sums come from two child streams, so a draw of
        # size k is the prefix of any longer draw from the same generator
        _checks.positive(dt, "dt")
        count_gen, sum_gen = rng.spawn(2)
        counts = count_gen.poisson(self.intensity * dt, size)
        return self.jumps.sample_sum(sum_gen, counts)

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        # exact in the discrete law: a Poisson(intensity m dt) number of
        # jumps per row, each in a uniform cell and weighted by its kernel
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        return _scatter_sum(rng, n_paths, self.intensity * dt * m, dt, lam, m,
                            lambda k: self.jumps.sample_sum(rng, np.ones(k)), "jumps")


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

    nonnegative = True

    def psi(self, u):
        u = np.asarray(_checks.finite(u, "u"), dtype=float)
        out = -self.shape * np.log(1.0 - 1j * u / self.rate)
        return out if out.ndim else complex(out)

    def cumulant_k(self, theta: float) -> float:
        if _checks.finite(theta, "theta") <= -self.rate:
            raise DomainError(
                f"Laplace transform finite only for theta > {-self.rate}"
            )
        return -self.shape * math.log1p(theta / self.rate)

    def moments(self):
        return (self.shape / self.rate, self.shape / self.rate**2)

    @property
    def measure(self) -> LevyMeasure:
        a, b = self.shape, self.rate

        def tail_pos(y):
            from scipy import special

            return a * special.exp1(b * y)

        return LevyMeasure(
            density=lambda x: a * math.exp(-b * x) / x if x > 0 else 0.0,
            support=(0.0, math.inf),
            tail_pos_closed=tail_pos,
            tail_neg_closed=lambda y: 0.0,
        )

    @property
    def triplet(self) -> LevyTriplet:
        a, b = self.shape, self.rate
        return LevyTriplet((a / b) * (1.0 - math.exp(-b)), 0.0, self.measure)

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
            "series", tol * (self.shape / self.rate) / lam,
        )


@dataclass(frozen=True)
class DriftDriver(DriverSpec):
    """Deterministic drift: L_t = gamma * t."""

    gamma: float = 1.0

    def __post_init__(self):
        _checks.finite(self.gamma, "DriftDriver.gamma")

    def psi(self, u):
        u = np.asarray(_checks.finite(u, "u"), dtype=float)
        out = 1j * u * self.gamma
        return out if out.ndim else complex(out)

    @property
    def nonnegative(self) -> bool:
        # a nonnegative drift is a (degenerate) subordinator
        return self.gamma >= 0

    def cumulant_k(self, theta: float) -> float:
        if self.gamma < 0:
            raise NotASubordinator("negative drift is decreasing")
        return -self.gamma * _checks.finite(theta, "theta")

    def moments(self):
        return (self.gamma, 0.0)

    @property
    def measure(self) -> LevyMeasure:
        return LevyMeasure()

    @property
    def triplet(self) -> LevyTriplet:
        return LevyTriplet(self.gamma, 0.0, LevyMeasure())

    def sample_increments(self, dt, rng, size):
        _checks.positive(dt, "dt")
        return np.full(size, self.gamma * dt)

    def sample_weighted_sum(self, dt, lam, m, rng, n_paths, tol):
        dt, lam, m, tol, n_paths = _halfline(dt, lam, m, tol, n_paths)
        _report("constant", n_paths, 0)
        return np.full(n_paths, self.gamma * dt * _weights(dt, lam, m).sum())


# short constructor aliases

def brownian(gamma: float = 0.0, sigma2: float = 1.0) -> BrownianDriver:
    return BrownianDriver(gamma, sigma2)


def compound_poisson(intensity, jumps) -> CompoundPoissonDriver:
    return CompoundPoissonDriver(intensity, jumps)


def gamma_subordinator(shape, rate) -> GammaSubordinatorDriver:
    return GammaSubordinatorDriver(shape, rate)


def deterministic_drift(gamma) -> DriftDriver:
    return DriftDriver(gamma)

"""Stochastic-volatility model with the two-sided-kernel process as spot
volatility.

The log-price Y follows

    dY_t = (alpha + beta X_t) dt + sqrt(X_t) dW_t,

where the spot volatility X is the two-sided exponential moving average
of a subordinator run on the time scale lam * t (increments of L are
drawn over lam * dt), so its marginal law does not depend on lam:
E X = 2 mu, Var X = V with (mu, V) the driver moments.  W is an
independent Brownian motion.

The integrated volatility has the explicit pathwise form

    int_0^t X_u du = (2 L_{lam t} + X_0^- - X_0^+ - (X_t^- - X_t^+)) / lam,

The trapezoid integral int_x of the simulated path relates to it
exactly at every grid point:

    int_x = explicit * (h/2) coth(h/2),    h = lam * dt.

Both simulators return an SvPath: simulate_sv one path with (n+1,)
arrays and the components x_minus, x_plus and l_cum that the identity
needs, simulate_sv_ensemble a batch with (n_paths, n+1) arrays and
without those components.  The single path's y, x and int_x are row 0
of the one-path batch from an identically seeded generator, bitwise.

Second-order theory for integrated volatility and squared returns over
windows of length delta:

    r(t)    = (lam t + 1) e^{-lam t}                     (ACF of X, analytics.acf_x)
    rbar(t) = (lam t e^{-lam t} + 2 lam t + 3 e^{-lam t} - 3) / lam^2
    R(ds)   = rbar(d(s+1)) - 2 rbar(ds) + rbar(d(s-1))   (closed form below)

    Cov of integrated vol over windows s apart = V * R(delta s)
    Corr of squared returns (alpha = beta = 0)
        = R(delta s) / (6 rbar(delta) + 2 delta^2 mu_x^2 / v_x)

where (mu_x, v_x) are the mean and variance of the *spot volatility*
(2 mu and V for this model; see spot_vol_moments).  A closed form that
leaves the float range at finite inputs raises DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._table import write_table
from .drivers import DriverSpec
from .errors import GridError, MissingComponents, NotASubordinator
from .paths import SimulationGrid, TruncationPolicy, simulate_wbou, simulate_wbou_ensemble
from .rng import as_generator

__all__ = [
    "SvSpec",
    "SvPath",
    "simulate_sv",
    "simulate_sv_ensemble",
    "integrated_vol_explicit",
    "rbar_fn",
    "big_r",
    "cov_integrated_vol",
    "corr_squared_returns",
    "spot_vol_moments",
    "write_sv_csv",
]


@dataclass(frozen=True)
class SvSpec:
    """Model parameters; the driver must be a subordinator family."""

    alpha: float
    beta: float
    lam: float
    driver: DriverSpec

    def __post_init__(self):
        _checks.lam(self.lam)
        _checks.finite(self.alpha, "alpha")
        _checks.finite(self.beta, "beta")
        if not self.driver.nonnegative:
            raise NotASubordinator(
                "spot volatility requires a nondecreasing (subordinator) driver"
            )


@dataclass
class SvPath:
    """Joint (Y, X, int X) path, or a batch of iid paths.

    y, x and int_x have shape (n+1,) for one path and (n_paths, n+1) for
    a batch.  A single path also carries the components behind the
    explicit integrated-volatility identity (x_minus, x_plus and l_cum
    of X on its own clock); a batch does not keep them (None).
    """

    grid: SimulationGrid
    spec: SvSpec
    y: np.ndarray
    x: np.ndarray
    int_x: np.ndarray
    x_minus: np.ndarray | None = None
    x_plus: np.ndarray | None = None
    l_cum: np.ndarray | None = None

    @property
    def lam(self) -> float:
        return self.spec.lam


def _scaled_grid(spec: SvSpec, grid: SimulationGrid) -> SimulationGrid:
    # X_t equals a unit-rate process observed at time lam * t, so the
    # inner simulation runs on the lam-scaled grid: driver increments
    # are drawn over intervals of length lam * dt.
    return SimulationGrid(t_max=spec.lam * grid.t_max, dt=spec.lam * grid.dt)


def _euler_y(spec: SvSpec, grid: SimulationGrid, x: np.ndarray, dw: np.ndarray):
    drift = (spec.alpha + spec.beta * x[..., :-1]) * grid.dt
    steps = drift + np.sqrt(x[..., :-1]) * dw
    y = np.zeros(x.shape)
    np.cumsum(steps, axis=-1, out=y[..., 1:])
    return y


def _simulate_joint(spec, grid, n_paths, trunc, rng) -> SvPath:
    """X on the lam-scaled clock, then Y by Euler-Maruyama with
    left-endpoint volatility; W independent of L.

    n_paths=None asks for the single path, which keeps the components
    of the explicit identity from its inner simulate_wbou path; it is
    row 0 of the one-path batch.
    """
    l_gen, w_gen = as_generator(rng).spawn(2)
    try:
        inner_grid = _scaled_grid(spec, grid)
        if n_paths is None:
            inner = simulate_wbou(spec.driver, 1.0, inner_grid, trunc=trunc, rng=l_gen)
        else:
            inner = simulate_wbou_ensemble(spec.driver, 1.0, inner_grid, n_paths,
                                           trunc=trunc, rng=l_gen)
    except GridError as exc:
        raise GridError(f"lambda={spec.lam}, dt={grid.dt}: on the lambda-scaled grid of X, "
                        f"{exc}") from exc
    x = np.atleast_2d(inner.x)
    dw = w_gen.normal(0.0, math.sqrt(grid.dt), (len(x), grid.n))
    y = _euler_y(spec, grid, x, dw)
    # trapezoid rule from int_x = 0 at t = 0
    int_x = np.zeros(x.shape)
    np.cumsum(grid.dt * (x[:, 1:] + x[:, :-1]) / 2.0, axis=-1, out=int_x[:, 1:])
    if n_paths is not None:
        return SvPath(grid=grid, spec=spec, y=y, x=inner.x, int_x=int_x)
    return SvPath(grid=grid, spec=spec, y=y[0], x=inner.x, int_x=int_x[0],
                  x_minus=inner.x_minus, x_plus=inner.x_plus, l_cum=inner.l_cum)


def simulate_sv(
    spec: SvSpec,
    grid: SimulationGrid,
    *,
    trunc: TruncationPolicy | None = None,
    rng=None,
) -> SvPath:
    """Simulate one joint path plus the components behind the explicit
    integrated-volatility identity.  Its y, x and int_x are row 0 of
    simulate_sv_ensemble(spec, grid, 1) with the same generator."""
    return _simulate_joint(spec, grid, None, trunc, rng)


def simulate_sv_ensemble(
    spec: SvSpec,
    grid: SimulationGrid,
    n_paths: int,
    *,
    trunc: TruncationPolicy | None = None,
    rng=None,
) -> SvPath:
    """Simulate a batch of joint paths with vectorized draws; the arrays
    of the result are (n_paths, n+1)."""
    return _simulate_joint(spec, grid, n_paths, trunc, rng)


def integrated_vol_explicit(path, lam: float | None = None) -> np.ndarray:
    """Pathwise integrated volatility from the decomposition:

        int_0^t X_u du = (2 L + x^-_0 - x^+_0 - (x^-_t - x^+_t)) / lam

    with L the driver's cumulative path on the process's own clock.
    Works for any single path carrying x_minus, x_plus and l_cum; a
    batch keeps none of them and raises MissingComponents."""
    if lam is None:
        lam = getattr(path, "lam", None)
        if lam is None:
            raise MissingComponents("pass lam or a path that knows its rate")
    lam = _checks.lam(lam)
    xm = getattr(path, "x_minus", None)
    xp = getattr(path, "x_plus", None)
    lc = getattr(path, "l_cum", None)
    if xm is None or xp is None or lc is None:
        raise MissingComponents(
            "path lacks x_minus/x_plus/l_cum; cannot apply the identity"
        )
    return (2.0 * lc + (xm[0] - xp[0]) - (xm - xp)) / lam


# ---------------------------------------------------------------------------
# second-order theory for integrated volatility and squared returns


def _rbar(lam, t):
    lt = lam * t
    e = np.exp(-lt)
    return (lt * e + 2.0 * lt + 3.0 * e - 3.0) / lam**2


def rbar_fn(lam: float, t) -> np.ndarray | float:
    """Double integral of r: rbar(t) = int_0^t int_0^u r(x) dx du,
    in closed form (lam t e^{-lam t} + 2 lam t + 3 e^{-lam t} - 3)/lam^2.

    A Python int or float t stays a Python float until np.exp, which
    saves the array round trip of a scalar call; the values are the same.
    """
    out = _checks.in_range("rbar_fn", _rbar, _checks.lam(lam), _checks.nonnegative(t, "t"),
                           numpy=True)
    return float(out) if out.ndim == 0 else out


def _big_r(lam, delta, s):
    lam = _checks.lam(lam)
    ld = lam * _checks.positive(delta, "delta")
    lds = ld * _checks.whole(s, 1, "s")
    bracket = (lds + 3.0) * 4.0 * math.sinh(0.5 * ld) ** 2 - 2.0 * ld * math.sinh(ld)
    return math.exp(-lds) * bracket / lam**2


def big_r(lam: float, delta: float, s: int) -> float:
    """Second difference of rbar across windows s apart, closed form

        R(ds) = e^{-lam d s} [(lam d s + 3)(e^{-lam d} + e^{lam d} - 2)
                              + lam d (e^{-lam d} - e^{lam d})] / lam^2,

    evaluated through e^{x} + e^{-x} - 2 = 4 sinh^2(x/2) and
    e^{-x} - e^{x} = -2 sinh(x), which avoid the cancellation of both
    brackets at small lam * d.
    """
    return _checks.in_range("big_r", _big_r, lam, delta, s)


def _cov(v, lam, delta, s):
    return _checks.positive(v, "driver variance v") * _big_r(lam, delta, s)


def cov_integrated_vol(v: float, lam: float, delta: float, s: int) -> float:
    """Cov of integrated volatility over windows s apart: V * R(delta s)."""
    return _checks.in_range("cov_integrated_vol", _cov, v, lam, delta, s)


def corr_squared_returns(
    mu: float, v: float, lam: float, delta: float, s: int
) -> float:
    """Correlation of squared returns s windows apart (alpha = beta = 0):

        R(delta s) / (6 rbar(delta) + 2 delta^2 mu^2 / v)

    (mu, v) are the mean and variance of the stationary spot volatility;
    for this model pass spot_vol_moments(driver), i.e. (2 mu_L, V_L).
    """
    return _checks.in_range("corr_squared_returns", _corr, mu, v, lam, delta, s)


def _corr(mu, v, lam, delta, s):
    _checks.finite(mu, "mu")
    _checks.positive(v, "spot-volatility variance v")
    r = _big_r(lam, delta, s)
    return r / (6.0 * float(_rbar(_checks.lam(lam), delta)) + 2.0 * delta**2 * mu**2 / v)


def spot_vol_moments(driver: DriverSpec) -> tuple[float, float]:
    """(mean, variance) of the stationary spot volatility: (2 mu, V) in
    terms of the driver moments, independent of lam (time-scaled)."""
    if not driver.nonnegative:
        raise NotASubordinator(
            "spot volatility requires a nondecreasing (subordinator) driver"
        )
    mu, v = driver.moments()
    return 2.0 * mu, v


def write_sv_csv(path: SvPath, out) -> None:
    """Write t,y,x,int_x rows of a single path at full (round-trip)
    precision; a batch is refused (DimensionMismatch)."""
    write_table(out, ("t", "y", "x", "int_x"), (path.grid.times, path.y, path.x, path.int_x))

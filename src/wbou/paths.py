"""Grid simulation of the two-sided exponential-kernel moving average.

The central object is the process

    X_t = integral e^{-lam |t - s|} dL_s      (s over the whole real line)

for a Levy driver L and lam > 0.  On a uniform grid it is assembled from
its two components

    X^-_t = e^{-lam t} (G + I_t),   I_t = int_0^t e^{lam s} dL_s,
    X^+_t = e^{ lam t} (H - J_t),   J_t = int_0^t e^{-lam s} dL_s,

with G = int_{-inf}^0 e^{lam s} dL_s and H = int_0^inf e^{-lam s} dL_s.
X^- is a stationary one-sided (classical) OU process; X^+ is its
time-reversed twin built from the future of L.  All stochastic integrals
are discretized with left-endpoint kernel weights, and the infinite
half-lines behind G and the tail of H are truncated where the kernel
drops below a tolerance.

The recursions actually used are

    x^-_{k+1} = alpha (x^-_k + dL_k),     alpha = e^{-lam dt},
    x^+_k     = alpha  x^+_{k+1} + dL_k,

each run by one NumPy block scan along the grid: a block of B steps,
lam dt B <= _SPAN, is z_{s+i} = alpha^i (z_s + sum_{j<i} c alpha^{-1-j}
inc_{s+j}), one weighted product and one cumulative sum, and the block
ends carry from block to block.  The scan forms e^{lam dt i} only
within a block, bounded by e^{_SPAN}, so every term is a sum or product
of the inputs with positive weights: both components stay nonnegative
exactly in floating point when the driver increments are nonnegative.
A path whose values leave the float range raises DomainError.  The
classical OU comparison process is the component path.x_minus itself,
so identities between the two processes hold pathwise; the
compact-window kernel variant shares the same conventions.

All sampling of X goes through one engine and one route: the generator
is split into three substreams (past of 0, main window, tail beyond
t_max), the main window is drawn as an (n_paths, n) array whose rows are
iid paths, and G and X^+_{t_max} are drawn whole by the driver's
sample_weighted_sum, a few hundred series terms or jumps per row instead
of ln(1/tol)/(lam dt) increments.  A WbouPath holds one path, with
(n+1,) arrays and its main-window increments, or a batch, with
(n_paths, n+1) arrays; a single path is row 0 of a one-path batch,
bitwise.  The zero-start variant Y_t = X_t - X_0 is the expression
path.x - path.x[0]; its mean is 0 and its variance analytics.msd.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _checks
from ._table import write_table
from .drivers import DriverSpec, _weights
from .errors import DimensionMismatch, GridError
from .rng import as_generator

_log = logging.getLogger("wbou")

__all__ = [
    "SimulationGrid",
    "TruncationPolicy",
    "WbouPath",
    "CompactPath",
    "simulate_wbou",
    "simulate_wbou_ensemble",
    "wbou_from_increments",
    "simulate_compact_kernel",
    "path_total_variation",
    "max_abs_increment",
    "derivative_identity_residual",
    "write_path_csv",
]


def _indexable(steps: float, what: str) -> float:
    """steps if NumPy can index that many steps, else GridError."""
    if not steps < np.iinfo(np.intp).max:
        raise GridError(f"{what} needs {steps:.3g} steps, more than NumPy can index")
    return steps


def _whole_steps(length: float, dt: float, name: str) -> int:
    """length / dt as a whole number n >= 1 of steps NumPy can index,
    with n dt within 1e-9 (relative) of length; else GridError."""
    n = round(_indexable(length / dt, f"{name}={length} at dt={dt}"))
    if n < 1 or abs(n * dt - length) > 1e-9 * max(length, 1.0):
        raise GridError(f"{name}={length} is not an integer multiple of dt={dt}")
    return n


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform grid 0, dt, 2dt, ..., t_max with t_max an exact multiple of dt."""

    t_max: float
    dt: float

    def __post_init__(self):
        _checks.positive(self.t_max, "t_max", GridError)
        _checks.positive(self.dt, "dt", GridError)
        _whole_steps(self.t_max, self.dt, "t_max")

    @property
    def n(self) -> int:
        """Number of steps; the grid has n + 1 points."""
        return round(self.t_max / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dt


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff for the integrals over the infinite half-lines.

    The kernel weight at the horizon equals ``tol``: the half-lines are
    truncated at T = -ln(tol)/lam, so the neglected mean mass is of
    order tol * mu / lam.  A gamma driver on its series route spends the
    same budget again: terms with Gamma_i >= aT ln(lam T / tol) are
    dropped, and their expected mass is tol * mu / lam, which that draw
    logs.  A horizon NumPy cannot index in steps raises GridError.
    """

    tol: float = 1e-12

    def __post_init__(self):
        _checks.positive(self.tol, "tol", GridError, hi=1.0)

    def horizon(self, lam: float) -> float:
        return -math.log(self.tol) / _checks.lam(lam)

    def n_steps(self, lam: float, dt: float) -> int:
        steps = _indexable(self.horizon(lam) / _checks.positive(dt, "dt", GridError),
                           f"the horizon at lam={lam}, dt={dt}")
        return max(1, math.ceil(steps - 1e-12))


# ---------------------------------------------------------------------------
# path containers


@dataclass
class WbouPath:
    """A simulated path of X, or a batch of iid paths, with its split.

    The arrays x, x_minus and x_plus have shape (n+1,) for one path and
    (n_paths, n+1) for a batch; g = X^-_0 and h = X^+_0 are floats or
    (n_paths,) arrays.  x_minus is the stationary classical OU
    comparison process u_{k+1} = e^{-lam dt}(u_k + dL_k), started at G.
    A single path keeps its main-window driver increments ``dl`` so
    other representations can replay the identical randomness; a batch
    keeps none (None).
    """

    grid: SimulationGrid
    lam: float
    x: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray
    g: float | np.ndarray
    h: float | np.ndarray
    dl: np.ndarray | None = None

    @cached_property
    def l_cum(self) -> np.ndarray | None:
        """Cumulative driver path L_{t_k} - L_0 on the main window; None
        when the increments are not kept."""
        if self.dl is None:
            return None
        out = np.zeros(self.grid.n + 1)
        np.cumsum(self.dl, out=out[1:])
        return out


@dataclass
class CompactPath:
    """Moving average over the trailing window [t - a, t] with the same
    exponential kernel."""

    grid: SimulationGrid
    lam: float
    a: float
    x: np.ndarray


# ---------------------------------------------------------------------------
# assembly core


#: largest lam * dt * B of a scan block of B steps: the block weights
#: alpha^{-1-j} stay below e^{_SPAN}
_SPAN = 30.0


def _scan(alpha, z0, inc, c, *, reverse=False):
    """z_0 = z0, z_{k+1} = alpha z_k + c inc_k along axis 1: (n_paths,)
    starts and (n_paths, n) increments give a C-contiguous (n_paths, n+1)
    array; with reverse, z_0 is the last column and the recursion runs
    from the right end of inc.

    Blocks of B steps with |ln alpha| B <= _SPAN are scanned as
    z_{s+i} = alpha^i (z_s + sum_{j<i} c alpha^{-1-j} inc_{s+j}): one
    product into the output and one cumulative sum from z_s in place.
    Where a single step spans more than half of _SPAN (alpha may be 0.0)
    the recursion runs step by step.  Each row is scanned on its own
    bitwise.
    """
    n_paths, n = inc.shape
    out = np.empty((n_paths, n + 1))
    z = out[:, ::-1] if reverse else out
    inc = inc[:, ::-1] if reverse else inc
    z[:, 0] = z0
    h = abs(math.log(alpha)) if alpha > 0 else math.inf
    b = n if h * n <= _SPAN else int(_SPAN / h)
    if b <= 1:
        np.multiply(inc, c, out=z[:, 1:])
        for k in range(n):
            z[:, k + 1] += alpha * z[:, k]
        return out
    powers = alpha ** np.arange(b + 1.0)
    weights = c / powers[1:]
    for s in range(0, n, b):
        e = min(s + b, n)
        np.multiply(inc[:, s:e], weights[:e - s], out=z[:, s + 1:e + 1])
        np.cumsum(z[:, s:e + 1], axis=1, out=z[:, s:e + 1])
        z[:, s + 1:e + 1] *= powers[1:e - s + 1]
    return out


def _assemble(lam, grid, g, dl, xp_end) -> WbouPath:
    """Build the batch (x_minus, x_plus, g, h) from the main-window
    increments dl, (n_paths, n), and the half-line integrals g = X^-_0
    and xp_end = X^+_{t_max}, (n_paths,); the recursions run along
    axis 1.  A path that leaves the float range raises DomainError.
    """
    alpha = math.exp(-lam * grid.dt)
    with np.errstate(over="ignore", invalid="ignore"):
        x_minus = _scan(alpha, g, dl, alpha)
        # x^+_k = alpha x^+_{k+1} + dl_k, x^+_n = xp_end
        x_plus = _scan(alpha, xp_end, dl, 1.0, reverse=True)
        x = x_minus + x_plus
    _checks.finite(x, f"the path at lam={lam:g}, dt={grid.dt:g}")
    return WbouPath(
        grid=grid, lam=lam, x=x,
        x_minus=x_minus, x_plus=x_plus, g=g, h=x_plus[:, 0].copy(),
    )


def _row0(batch: WbouPath, dl) -> WbouPath:
    """The single path in row 0 of a one-path batch, with its increments."""
    return WbouPath(
        grid=batch.grid,
        lam=batch.lam,
        x=batch.x[0],
        x_minus=batch.x_minus[0],
        x_plus=batch.x_plus[0],
        g=float(batch.g[0]),
        h=float(batch.h[0]),
        dl=dl[0],
    )


def _simulate(driver, lam, grid, n_paths, trunc, rng):
    """The simulation engine: n_paths iid rows, one generator layout.

    The generator is split into three substreams (past of 0, main
    window, tail beyond t_max).  The main window is drawn as one
    (n_paths, n) array, and G and X^+_{t_max} by the driver's
    sample_weighted_sum from the other two; a debug line gives the sizes
    and the horizon, each hook call its route.  Returns the batch and dl.
    """
    lam = _checks.lam(lam)
    n_paths = _checks.whole(n_paths, 1, "n_paths", DimensionMismatch)
    trunc = trunc or TruncationPolicy()
    dt = grid.dt
    m_half = trunc.n_steps(lam, dt)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("simulate: n_paths=%d n=%d lam=%.6g dt=%.6g m_half=%d horizon=%.6g "
                   "horizon_mass<=%.3g", n_paths, grid.n, lam, dt, m_half, m_half * dt,
                   trunc.tol * abs(driver.moments()[0]) / lam)
    past_gen, main_gen, tail_gen = as_generator(rng).spawn(3)
    dl = driver.sample_increments(dt, main_gen, (n_paths, grid.n))
    # G's weights are one step further out: e^{-lam dt (j + 1)}
    g = math.exp(-lam * dt) * driver.sample_weighted_sum(
        dt, lam, m_half, past_gen, n_paths, trunc.tol)
    xp_end = driver.sample_weighted_sum(dt, lam, m_half, tail_gen, n_paths, trunc.tol)
    return _assemble(lam, grid, g, dl, xp_end), dl


def simulate_wbou(
    driver: DriverSpec,
    lam: float,
    grid: SimulationGrid,
    *,
    trunc: TruncationPolicy | None = None,
    rng=None,
) -> WbouPath:
    """Simulate one path of X on the grid, keeping its main-window
    increments: row 0 of simulate_wbou_ensemble(..., 1), bitwise."""
    return _row0(*_simulate(driver, lam, grid, 1, trunc, rng))


def simulate_wbou_ensemble(
    driver: DriverSpec,
    lam: float,
    grid: SimulationGrid,
    n_paths: int,
    *,
    trunc: TruncationPolicy | None = None,
    rng=None,
) -> WbouPath:
    """Simulate a batch of independent paths with vectorized draws.

    The arrays of the result are (n_paths, n+1).  G and X^+_{t_max} are
    drawn by the driver's sample_weighted_sum, and the batch keeps no
    increments.
    """
    return _simulate(driver, lam, grid, n_paths, trunc, rng)[0]


def wbou_from_increments(
    lam: float,
    grid: SimulationGrid,
    dl: np.ndarray,
    *,
    dl_past: np.ndarray | None = None,
    dl_tail: np.ndarray | None = None,
) -> WbouPath:
    """Assemble a path from explicitly supplied driver increments.

    This is the replay entry point: refinement studies coarsen or refine
    one fixed stream of increments and rebuild X deterministically.
    dl_past (from 0 walking left) and dl_tail (from t_max walking right)
    get the weights of sample_weighted_sum's dense default.
    """
    lam = _checks.lam(lam)
    dl = _checks.replay_array(dl, grid.n, "dl")[None, :]
    past = _checks.replay_array(dl_past, None, "dl_past")[None, :]
    tail = _checks.replay_array(dl_tail, None, "dl_tail")[None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # refused with the path
        g = math.exp(-lam * grid.dt) * (past @ _weights(grid.dt, lam, past.shape[1]))
        xp_end = tail @ _weights(grid.dt, lam, tail.shape[1])
    return _row0(_assemble(lam, grid, g, dl, xp_end), dl)


def simulate_compact_kernel(
    driver: DriverSpec,
    lam: float,
    a: float,
    grid: SimulationGrid,
    *,
    rng=None,
) -> CompactPath:
    """Simulate the moving average with kernel e^{-lam u} on u in [0, a].

    The window is finite, so no truncation policy is involved; the
    increments over [-a, t_max) are convolved with the left-endpoint
    kernel weights e^{-lam m dt}, m = 1..a/dt.
    """
    lam = _checks.lam(lam)
    _checks.positive(a, "window length a", GridError)
    w = _whole_steps(a, grid.dt, "a")
    gen = as_generator(rng)
    n = grid.n
    dl_ext = driver.sample_increments(grid.dt, gen, w + n)
    kern = np.exp(-lam * grid.dt * np.arange(1, w + 1))
    x = np.convolve(dl_ext, kern)[w - 1 : w + n]
    return CompactPath(grid=grid, lam=lam, a=w * grid.dt, x=x)


# ---------------------------------------------------------------------------
# path functionals


def _increments(x) -> np.ndarray:
    """One-step increments of the grid values x along their last axis;
    x must be finite, with at least two points along that axis."""
    x = _checks.finite(np.asarray(x, dtype=float), "x")
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DimensionMismatch(f"x has shape {x.shape}, expected two grid points or more")
    return np.diff(x)


def path_total_variation(x) -> float:
    """Sum of absolute increments of the grid values x, e.g. path.x or
    path.x_minus; a batch gives the sum over its rows."""
    return float(np.abs(_increments(x)).sum())


def max_abs_increment(x) -> float:
    """Largest absolute one-step increment of the grid values x, e.g.
    path.x or path.x_minus; a batch gives the largest over its rows."""
    return float(np.abs(_increments(x)).max())


def derivative_identity_residual(path: WbouPath) -> float:
    """Residual of the pathwise identity X_t - X_0 = lam int_0^t (X^+ - X^-) ds.

    The integral is discretized with the left-endpoint rule, matching
    the simulation convention; the residual is first order in dt.  A
    batch gives the largest residual over its rows.
    """
    rhs = np.zeros(path.x.shape)
    np.cumsum(path.lam * path.grid.dt * (path.x_plus - path.x_minus)[..., :-1], axis=-1,
              out=rhs[..., 1:])
    return float(np.abs(path.x - path.x[..., :1] - rhs).max())


def write_path_csv(path, out) -> None:
    """Write t,x,x_minus,x_plus rows of a single path at full
    (round-trip) precision.

    Works for any path type; components that do not exist are written
    as empty fields.  A batch is refused (DimensionMismatch).
    """
    write_table(out, ("t", "x", "x_minus", "x_plus"), (
        path.grid.times,
        path.x,
        getattr(path, "x_minus", None),
        getattr(path, "x_plus", None),
    ))

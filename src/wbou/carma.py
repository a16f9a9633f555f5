"""State-space form of the process: a CARMA(2,0) representation.

X admits the observation form X_t = b' R_t where the 2-dimensional
state R solves the linear SDE

    dR^(1) = R^(2) dt,
    dR^(2) = lam^2 R^(1) dt + dL_t,

i.e. state matrix A = [[0, 1], [lam^2, 0]] and b = (-2 lam, 0)'.  The
initial state that reproduces X is anticipating — it involves both
half-line integrals of the driver,

    R0 = ( -(G + H) / (2 lam),  (G - H) / 2 ),

so a CarmaSpec is built *from* a simulated single path (which carries
G and H) rather than initialized standalone.  The modes of A are
-X^- = lam R^(1) - R^(2) and -X^+ = lam R^(1) + R^(2), so the step
R_{k+1} = e^{A dt}(R_k + (0, dL_k)') runs as two scans of the path
engine's kernel: x^-_{k+1} = alpha (x^-_k + dL_k) from G, alpha =
e^{-lam dt}, and x^+_{k+1} = alpha' (x^+_k - dL_k) from H, alpha' =
e^{lam dt}, with b'R = x^- + x^+.  The second grows like e^{lam t}: a
replay whose rounding bound 3 eps max|x^+| (e^{lam t_max} - 1) /
(e^{lam dt} - 1) exceeds REPLAY_TOL * max|x| is refused, and past
lam t_max = 700, where that bound leaves the float range, it is refused
without being run.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import DimensionMismatch, DomainError, GridMismatch
from .paths import SimulationGrid, WbouPath, _scan

__all__ = ["CarmaSpec", "carma_from_wbou", "simulate_carma"]

_log = logging.getLogger("wbou")

#: largest admitted rounding bound of a replay, relative to max|x|
REPLAY_TOL = 1e-8


@dataclass(frozen=True)
class CarmaSpec:
    """State matrix, observation vector, and initial state for one path."""

    lam: float
    r0: tuple[float, float]

    def __post_init__(self):
        _checks.lam(self.lam)
        _checks.replay_array(self.r0, 2, "r0")

    @property
    def a_matrix(self) -> np.ndarray:
        return np.array([[0.0, 1.0], [self.lam**2, 0.0]])

    @property
    def b(self) -> np.ndarray:
        return np.array([-2.0 * self.lam, 0.0])


def carma_from_wbou(path: WbouPath) -> CarmaSpec:
    """Initial state from a single path's (G, H): b'R0 = G + H = X_0.
    A batch is refused (DimensionMismatch)."""
    if path.x.ndim != 1:
        raise DimensionMismatch(
            f"carma_from_wbou takes a single path, got x of shape {path.x.shape}"
        )
    lam = path.lam
    return CarmaSpec(
        lam=lam,
        r0=(-(path.g + path.h) / (2.0 * lam), (path.g - path.h) / 2.0),
    )


def simulate_carma(
    spec: CarmaSpec,
    dl: np.ndarray,
    grid: SimulationGrid,
    *,
    return_states: bool = False,
):
    """Run the state recursion and return the observation b'R_{t_k}.

    The driver increment enters at the start of each interval,

        R_{k+1} = e^{A dt} (R_k + (0, dL_k)'),

    matching the left-endpoint kernel convention of the path engine, so
    that with replayed increments the output reproduces the simulated X
    pathwise; a replay whose rounding bound exceeds REPLAY_TOL * max|x|
    raises DomainError.  With return_states=True the full (n+1, 2)
    state trajectory is returned alongside.
    """
    dl = _checks.replay_array(dl, grid.n, "increment array", GridMismatch)[None, :]
    lam, (r1, r2) = spec.lam, spec.r0
    h, lam_t = lam * grid.dt, lam * grid.t_max
    rel = math.inf  # past lam * t_max = 700 the bound leaves the float range
    if lam_t < 700:
        alpha, grow = math.exp(-h), math.exp(h)
        # the growing mode may overflow; its bound is then inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            x_minus = _scan(alpha, np.array([r2 - lam * r1]), dl, alpha)[0]
            x_plus = _scan(grow, np.array([-(lam * r1 + r2)]), dl, -grow)[0]
            x = x_minus + x_plus
        growth = math.expm1(lam_t) / math.expm1(h)
        bound = 3.0 * math.ulp(1.0) * float(np.abs(x_plus).max()) * growth
        scale = float(np.abs(x).max())
        rel = bound / scale if scale else (math.inf if bound else 0.0)
    _log.debug("simulate_carma: n=%d lam*t_max=%.6g rounding bound/max|x|=%.3g",
               grid.n, lam_t, rel)
    if not rel <= REPLAY_TOL:  # NaN too: the growing mode overflowed
        raise DomainError(f"replay rounding bound {rel:.3g} * max|x| exceeds {REPLAY_TOL:g} "
                          f"at lam * t_max = {lam_t:.3g}; the state grows like e^(lam t)")
    if return_states:
        return x, np.column_stack([-x / (2.0 * lam), (x_minus - x_plus) / 2.0])
    return x

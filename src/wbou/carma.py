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
G and H) rather than initialized standalone.  A has eigenvalues +/-lam, and
e^{At} grows like e^{lam t}; operations therefore cap lam * t_max
(default 30) and refuse longer runs rather than overflow silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, GridMismatch
from .paths import SimulationGrid, WbouPath, _check_lambda

__all__ = ["CarmaSpec", "mat_exp_at", "carma_from_wbou", "simulate_carma"]


@dataclass(frozen=True)
class CarmaSpec:
    """State matrix, observation vector, and initial state for one path."""

    lam: float
    r0: tuple[float, float]

    def __post_init__(self):
        _check_lambda(self.lam)

    @property
    def a_matrix(self) -> np.ndarray:
        return np.array([[0.0, 1.0], [self.lam**2, 0.0]])

    @property
    def b(self) -> np.ndarray:
        return np.array([-2.0 * self.lam, 0.0])


def mat_exp_at(lam: float, t: float) -> np.ndarray:
    """Closed-form e^{At}: [[cosh, sinh/lam], [lam sinh, cosh]] at lam*t."""
    _check_lambda(lam)
    c = math.cosh(lam * t)
    s = math.sinh(lam * t)
    return np.array([[c, s / lam], [lam * s, c]])


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
    lam_t_cap: float = 30.0,
    return_states: bool = False,
):
    """Run the state recursion and return the observation b'R_{t_k}.

    The driver increment enters at the start of each interval,

        R_{k+1} = e^{A dt} (R_k + (0, dL_k)'),

    matching the left-endpoint kernel convention of the path engine, so
    that with replayed increments the output reproduces the simulated X
    pathwise.  With return_states=True the full (n+1, 2) state
    trajectory is returned alongside.
    """
    dl = np.asarray(dl, dtype=float)
    if dl.shape != (grid.n,):
        raise GridMismatch(
            f"increment array has shape {dl.shape}, grid expects ({grid.n},)"
        )
    if spec.lam * grid.t_max > lam_t_cap:
        raise DomainError(
            f"lam * t_max = {spec.lam * grid.t_max:.3g} exceeds the cap "
            f"{lam_t_cap}; the state grows like e^(lam t)"
        )
    e_dt = mat_exp_at(spec.lam, grid.dt)
    states = np.empty((grid.n + 1, 2))
    states[0] = spec.r0
    r = np.array(spec.r0, dtype=float)
    step = np.zeros(2)
    for k in range(grid.n):
        step[1] = dl[k]
        r = e_dt @ (r + step)
        states[k + 1] = r
    out = states @ spec.b
    if return_states:
        return out, states
    return out

"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from numpy ``Generator``
objects (PCG64).  ``substream`` pins reproducibility: a root seed plus
an integer key tuple selects a fixed ``SeedSequence`` spawn key.  What
that guarantees:

* path k of a CLI ``--paths`` fan-out is the single path simulated
  from ``substream(seed, k)`` (``n_paths=1``), whatever the number of
  paths written and in whatever order;
* the rows of one batch (``simulate_wbou_ensemble``,
  ``simulate_sv_ensemble``) are iid paths drawn together from one
  generator; they are not the fan-out paths;
* a single path (``simulate_wbou``, ``simulate_sv``) is row 0 of the
  matching ``n_paths=1`` batch call with an identically seeded
  generator, bitwise, and its ``x_minus`` is the classical OU
  comparison path of that draw;
* every path draws the half-line integrals G and X^+_{t_max} whole, so
  two truncation ``tol`` values give independent draws of them.
"""
from __future__ import annotations

import numpy as np

from . import _checks

__all__ = ["substream", "as_generator"]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(_checks.whole(seed, 0, "seed"),
                                spawn_key=tuple(_checks.whole(k, 0, "key") for k in key))
    return np.random.default_rng(ss)


def as_generator(rng) -> np.random.Generator:
    """Coerce None / int seed / Generator into a Generator."""
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, float)):
        rng = _checks.whole(rng, 0, "seed")
    return np.random.default_rng(rng)

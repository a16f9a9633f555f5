"""The numeric-input policy of wbou, in one place.

Every number a caller passes must be finite and then lie in its domain:
a rate lam in (0, inf), a positive quantity in (0, inf), a lag or time
in [0, inf), a count a whole number >= its lower end.  Each check raises
the WbouError subclass its caller names.  A Python int or float is
checked by chained comparisons alone, which are false for NaN and reach
no NumPy call; an array is checked by whole-array NumPy reductions.
A closed form of finite inputs must come out finite too (``in_range``).
Like ``_table``, this module imports no wbou module but ``errors``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidLambda


def lam(x) -> float:
    """x as a float rate, positive and finite, else InvalidLambda."""
    if not 0 < x < math.inf:
        raise InvalidLambda(f"lambda must be {'finite' if x > 0 else '> 0'}, got {x}")
    return float(x)


def finite(x, name: str, exc=DomainError):
    """x if it is a finite number; anything else comes back as a float
    array, all of whose values must be finite."""
    if isinstance(x, (int, float)):
        if not -math.inf < x < math.inf:
            raise exc(f"{name} must be finite, got {x}")
        return x
    a = np.asarray(x, dtype=float)
    if not np.isfinite(a).all():
        bad = a.size - np.count_nonzero(np.isfinite(a))
        raise exc(f"{name} must be finite: {bad} of {a.size} values are not finite")
    return a


def positive(x, name: str, exc=DomainError, hi: float = math.inf):
    """x if 0 < x < hi (a finite positive number for the default hi)."""
    if not 0 < x < hi:
        where = "positive and finite" if hi == math.inf else f"in (0, {hi:g})"
        raise exc(f"{name} must be {where}, got {x}")
    return x


def nonnegative(x, name: str, exc=DomainError):
    """A Python int or float x as a float in [0, inf); anything else as a
    float array whose values all lie in [0, inf)."""
    if isinstance(x, (int, float)):
        if not 0 <= x < math.inf:
            raise exc(f"{name} must be nonnegative and finite, got {x}")
        return float(x)
    a = np.asarray(x, dtype=float)
    # min propagates NaN, and NaN >= 0 is false
    if not (a.min(initial=0.0) >= 0 and a.max(initial=0.0) < math.inf):
        raise exc(f"{name} must be nonnegative and finite")
    return a


def whole(x, low: int, name: str, exc=DomainError):
    """An int or a Python float x as an int, a whole number >= low;
    anything else as a float array whose values are all such numbers."""
    if isinstance(x, (int, float, np.integer)):
        if not (low <= x < math.inf and x == int(x)):
            raise exc(f"{name} must be a whole number >= {low}, got {x}")
        return int(x)
    a = np.asarray(x)
    f = a.astype(float)
    # min propagates NaN; an integer array holds no inf and no fraction
    if not (f.min(initial=low) >= low and (a.dtype.kind in "iu" or f.max(initial=low) < math.inf
                                           and (f == np.round(f)).all())):
        raise exc(f"{name} must hold whole numbers >= {low}")
    return f


def replay_array(a, n: int | None, name: str, mismatch=DimensionMismatch) -> np.ndarray:
    """a as a 1-D finite float array of length n (any length if n is
    None; None is empty): a wrong shape raises mismatch, a NaN or inf
    DomainError."""
    a = np.asarray(() if a is None else a, dtype=float)
    if a.ndim != 1 or n is not None and a.size != n:
        raise mismatch(f"{name} has shape {a.shape}, expected "
                       f"{'1-D' if n is None else (n,)}")
    return finite(a, name)


def in_range(name: str, fn, *args, numpy: bool = False):
    """fn(*args), a closed form of finite inputs, if it stays in the float
    range; else DomainError naming ``name(*args)``, each array argument
    by its shape, min and max.  Python floats signal
    an overflow by OverflowError, by ZeroDivisionError (a divisor that
    underflowed to 0) or by an inf or NaN result; with numpy, NumPy's
    overflow, division by zero and invalid operations raise too instead
    of warning.  Underflow is accepted."""
    try:
        if numpy:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out = fn(*args)
        else:
            out = fn(*args)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        pass
    else:
        if -math.inf < out < math.inf if isinstance(out, float) else np.isfinite(out).all():
            return out
    raise DomainError(f"{name}({', '.join(map(_brief, args))}) overflows the float range")


def _brief(x) -> str:
    """repr(x), but an array as its shape, least and greatest value, so
    that an error message stays one short line."""
    if not isinstance(x, np.ndarray):
        return repr(x)
    if not x.size:
        return f"array(shape={x.shape})"
    return f"array(shape={x.shape}, min={float(x.min())!r}, max={float(x.max())!r})"

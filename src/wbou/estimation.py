"""Empirical second-order pipeline: ACF, rate fitting, realized volatility.

The empirical autocorrelation uses the n-normalized, mean-subtracted
estimator

    rho_hat(h) = sum_{i=1}^{n-h} (x_i - xbar)(x_{i+h} - xbar)
                 / sum_{i=1}^{n} (x_i - xbar)^2,

whose values are bounded by 1 in magnitude (Cauchy-Schwarz with the
full-sample denominator).  The rate lam is fitted separately under the
two competing correlation models

    rho(h) = (1 + lam h) e^{-lam h}     (two-sided kernel)
    rho(h) = e^{-lam h}                 (classical OU)

by least squares over a lag window, with a coarse log-grid scan
followed by golden-section refinement; the residual sums of squares of
the two models are then compared to select between them.  Lags are in
index units — mapping to calendar time is the caller's business.

Realized volatility and the volatility signature plot (realized
volatility recomputed on every k-th observation) complete the pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._table import locate_row, read_columns, write_table
from .analytics import SecondOrderParams, acf_ou, acf_x
from .errors import (
    DegenerateSeries,
    DomainError,
    EmptyRange,
    LagTooLarge,
    SkipTooLarge,
)

__all__ = [
    "AcfEstimate",
    "FitResult",
    "empirical_acf",
    "fit_acf",
    "model_curve",
    "realized_volatility",
    "signature_plot",
    "read_series_csv",
    "write_acf_csv",
    "read_acf_csv",
    "write_signature_csv",
]

LAMBDA_BOUNDS = (1e-6, 1e2)
_GRID_POINTS = 200
_GOLDEN_TOL = 1e-12


def _values(series) -> np.ndarray:
    """A series of levels as a float array: finite, 1-D, at least 2 entries."""
    vals = _checks.finite(np.asarray(series, dtype=float), "series")
    if vals.ndim != 1 or len(vals) < 2:
        raise DomainError("series must be 1-D with at least 2 entries")
    return vals


@dataclass(frozen=True)
class AcfEstimate:
    """Empirical autocorrelations rho[h] for h = 0..max_lag, sample size n."""

    lags: np.ndarray
    rho: np.ndarray
    n: int


@dataclass(frozen=True)
class FitResult:
    """A fitted rate for one correlation model over a lag window.

    at_boundary flags a minimizer that ran into the search bounds,
    meaning the reported lambda_hat is a constrained optimum.
    """

    model: str
    lambda_hat: float
    rss: float
    lag_range: tuple[int, int]
    at_boundary: bool


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1), a length at which a real
    FFT is fast; scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lag_products(d, max_lag: int) -> np.ndarray:
    """sum_i d_i d_{i+h} for h = 0..max_lag, every lag from one FFT
    correlation of d with its reverse, zero-padded to a fast length of
    at least 2n - 1 (scipy's fftconvolve(d, d[::-1]) on the same
    pocketfft)."""
    n = len(d)
    nf = _fast_len(2 * n - 1)
    full = np.fft.irfft(np.fft.rfft(d, nf) * np.fft.rfft(d[::-1], nf), nf)
    return full[n - 1 : n + max_lag]


def empirical_acf(series, max_lag: int) -> AcfEstimate:
    """n-normalized mean-subtracted autocorrelation up to max_lag;
    DomainError, naming n and max |x|, where it leaves the float range."""
    x = _values(series)
    n = len(x)
    max_lag = _checks.whole(max_lag, 0, "max_lag", LagTooLarge)
    if max_lag >= n:
        raise LagTooLarge(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    peak = float(np.abs(x).max())

    def correlation(n, peak):
        # entry 0 is the full-sample denominator
        return _lag_products(x - x.mean(), max_lag)

    corr = _checks.in_range("empirical_acf[n, max|x|]", correlation, n, peak, numpy=True)
    # Python floats: a floor that overflows is inf, and a finite corr[0]
    # below it means the series is flat
    floor = 8.0 * math.ulp(1.0) * max(1.0, peak)
    if corr[0] <= n * (floor * floor):
        raise DegenerateSeries("series has (numerically) zero variance")
    return AcfEstimate(lags=np.arange(max_lag + 1), rho=corr / corr[0], n=n)


def model_curve(model: str, lam: float, lags) -> np.ndarray:
    """Theoretical correlation curve of the given model at the lags."""
    p = SecondOrderParams(lam)
    lags = np.asarray(lags, dtype=float)
    if model == "wbou":
        return acf_x(p, lags)
    if model == "ou":
        return acf_ou(p, lags)
    raise DomainError(f"unknown model {model!r}; expected 'wbou' or 'ou'")


def _golden(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimization on [a, b] to absolute tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_acf(acf: AcfEstimate, model: str, lag_range: tuple[int, int]) -> FitResult:
    """Least-squares rate fit over the lag window [min_lag, max_lag].

    lambda is searched on [1e-6, 1e2]: a 200-point log-spaced scan picks
    the best cell (smallest lambda on ties), then golden-section narrows
    it down; a minimizer stuck at a search bound is flagged.  A
    non-finite rho within the window raises DomainError.
    """
    min_lag = _checks.whole(lag_range[0], 1, "min_lag", EmptyRange)
    max_lag = _checks.whole(lag_range[1], min_lag, "max_lag", EmptyRange)
    avail = int(acf.lags[-1])
    if max_lag > avail:
        raise EmptyRange(
            f"lag window [{min_lag}, {max_lag}] not within available lags "
            f"[0, {avail}]"
        )
    lags = np.arange(min_lag, max_lag + 1, dtype=float)
    rho_hat = _checks.finite(acf.rho[min_lag : max_lag + 1],
                             f"rho within the lag window [{min_lag}, {max_lag}]")

    def rss(lam: float) -> float:
        return float(np.sum((rho_hat - model_curve(model, lam, lags)) ** 2))

    lo, hi = LAMBDA_BOUNDS
    grid = np.logspace(math.log10(lo), math.log10(hi), _GRID_POINTS)
    vals = [rss(lam) for lam in grid]
    i = int(np.argmin(vals))  # argmin takes the first (smallest) on ties
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _GRID_POINTS - 1)]
    lam_hat = _golden(rss, a, b, _GOLDEN_TOL)
    # golden returns the midpoint of its final interval, which can sit up
    # to tol/2 inside the bound; flag anything within a few tolerances
    margin = 10.0 * _GOLDEN_TOL
    at_boundary = lam_hat <= lo + margin or lam_hat >= hi - margin
    return FitResult(
        model=model,
        lambda_hat=float(lam_hat),
        rss=rss(lam_hat),
        lag_range=(min_lag, max_lag),
        at_boundary=bool(at_boundary),
    )


def realized_volatility(series) -> float:
    """Sum of squared consecutive differences of the series; DomainError,
    naming the length and max |x|, where it leaves the float range."""
    x = _values(series)
    return float(_checks.in_range("realized_volatility[n, max|x|]",
                                  lambda n, peak: np.sum(np.diff(x) ** 2),
                                  len(x), float(np.abs(x).max()), numpy=True))


def signature_plot(series, max_skip: int) -> np.ndarray:
    """Realized volatility of every k-th observation, k = 1..max_skip.

    Subsampling always starts at offset 0.  Returns an (max_skip, 2)
    array of rows (k, RV_k).
    """
    x = _values(series)
    max_skip = _checks.whole(max_skip, 1, "max_skip", SkipTooLarge)
    if max_skip >= len(x) / 2:
        raise SkipTooLarge(
            f"max_skip must be in [1, {math.ceil(len(x) / 2) - 1}], got {max_skip}"
        )
    out = np.empty((max_skip, 2))
    for k in range(1, max_skip + 1):
        out[k - 1] = (k, realized_volatility(x[::k]))
    return out


# ---------------------------------------------------------------------------
# CSV tables


def read_series_csv(path) -> np.ndarray:
    """Read a level series: single column `x`, or `t,x` with t checked
    to be strictly increasing (and otherwise ignored)."""
    cols = read_columns(path, ("x", "t"))
    if "x" not in cols:
        raise DomainError(f"{path}: expected a column named 'x'")
    t = cols.get("t")
    if t is not None and len(t) > 1 and not np.all(np.diff(t) > 0):
        raise DomainError(f"{path}: column 't' must be strictly increasing")
    return cols["x"]


def write_acf_csv(path, acf: AcfEstimate, fit_wbou: FitResult, fit_ou: FitResult):
    """Write lag,rho_hat,rho_wbou_fit,rho_ou_fit at full precision."""
    write_table(path, ("lag", "rho_hat", "rho_wbou_fit", "rho_ou_fit"), (
        np.asarray(acf.lags).astype(np.int64),
        acf.rho,
        model_curve("wbou", fit_wbou.lambda_hat, acf.lags),
        model_curve("ou", fit_ou.lambda_hat, acf.lags),
    ))


def read_acf_csv(path) -> AcfEstimate:
    """Read back an ACF table (columns lag, rho_hat; extras ignored).

    Row k must hold lag k, so lags are whole numbers contiguous from 0,
    and every rho_hat must be finite.
    """
    cols = read_columns(path, ("lag", "rho_hat"))
    if len(cols) < 2:
        raise DomainError(f"{path}: expected columns 'lag' and 'rho_hat'")
    lags, rho = cols["lag"], cols["rho_hat"]
    if len(lags) == 0:
        raise DomainError(f"{path}: lags must be contiguous starting at 0")
    want = np.arange(len(lags))
    bad = (lags != want) | ~np.isfinite(rho)
    if bad.any():
        k = int(np.argmax(bad))
        why = (f"lags must be contiguous starting at 0; want lag {k}, got {float(lags[k])!r}"
               if lags[k] != k else f"rho_hat must be finite, got {float(rho[k])!r}")
        raise DomainError(f"{path}: {locate_row(path, k)}: {why}")
    return AcfEstimate(lags=want, rho=rho, n=0)


def write_signature_csv(path, rows: np.ndarray) -> None:
    """Write skip,rv at full precision."""
    skip, rv = np.asarray(rows, dtype=float).T
    write_table(path, ("skip", "rv"), (skip.astype(np.int64), rv))

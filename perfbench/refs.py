"""Independent references and output checks for the benchmark.

Nothing here imports wbou.  Every reference is either a closed form
written out from the mathematics (with scipy special functions), a
50-digit mpmath evaluation, or a property the method must have
(component identities, exact re-computation with numpy).  Each check
returns a list of failure messages; an empty list means the output
passed.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special

#: Width of the Monte Carlo acceptance band in standard errors.  The
#: statistics are means over iid paths, pooled over a run's processes,
#: so the central limit theorem gives the band.  Where the per-path
#: statistic is strongly skewed (the time average of (X - m)^2 has
#: skewness about 4 under a gamma driver) a sample standard deviation
#: shrinks together with a low sample mean and the studentized mean has
#: a heavy lower tail: with 300 paths it passed -5 about 2e-4 of the
#: time.  Those bands therefore take their standard error from the
#: model's own covariances (``lin_cov``, ``sq_cov``), which leaves only
#: the skewness of the mean itself, about 0.1 at 1 200 paths.
Z = 5.0

mpmath.mp.dps = 50


def _fail(label: str, got, want, tol) -> list[str]:
    return [f"{label}: got {got!r}, want {want!r} (tolerance {tol:.3g})"]


def close(label: str, got, want, *, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    """Elementwise |got - want| <= atol + rtol |want|; complex allowed."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite output"]
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    bad = np.flatnonzero(~(err <= lim))
    if bad.size:
        i = int(bad[0])
        return _fail(f"{label}[{i}]", got.flat[i], want.flat[i], float(lim.flat[i]))
    return []


# ---------------------------------------------------------------------------
# Monte Carlo moments (central limit theorem over iid paths)


def clt_mean(label: str, samples, target: float, sd: float | None = None) -> list[str]:
    """The mean of iid samples lies within Z standard errors of target.

    ``sd`` is the standard deviation of one sample if the model gives it;
    without it the sample standard deviation is used."""
    s = np.asarray(samples, dtype=float)
    if sd is None:
        sd = s.std(ddof=1)
    se = sd / math.sqrt(len(s))
    est = float(s.mean())
    if not abs(est - target) <= Z * se:
        return _fail(f"{label} (n={len(s)}, se={se:.3g})", est, target, Z * se)
    return []


def clt_ratio(label: str, num, den, target: float) -> list[str]:
    """sum(num)/sum(den) over iid paths lies within Z delta-method
    standard errors of target."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    est = float(num.sum() / den.sum())
    resid = num - est * den
    se = resid.std(ddof=1) / (math.sqrt(len(num)) * den.mean())
    if not abs(est - target) <= Z * se:
        return _fail(f"{label} (n={len(num)}, se={se:.3g})", est, target, Z * se)
    return []


def wbou_acf(lam: float, h):
    """Corr(X_{t+h}, X_t) = (1 + lam h) e^{-lam h}."""
    h = np.asarray(h, dtype=float)
    return (1.0 + lam * h) * np.exp(-lam * h)


def path_stats(x: np.ndarray, mean: float, lag: int) -> dict[str, np.ndarray]:
    """Per-path statistics of an (n_paths, n+1) array; iid across paths.

    ``mean``: time average of x.  ``sq``: time average of (x - mean)^2,
    whose expectation is the variance.  ``cross`` and ``norm``: time
    averages of (x_t - m)(x_{t+lag} - m) and of the matching squares,
    whose ratio estimates the lag autocorrelation.
    """
    d = x - mean
    a, b = d[:, :-lag], d[:, lag:]
    return {
        "mean": x.mean(axis=1),
        "sq": (d * d).mean(axis=1),
        "cross": (a * b).mean(axis=1),
        "norm": 0.5 * (a * a + b * b).mean(axis=1),
    }


def lin_cov(k2: float, lam: float, h):
    """Cov(X_s, X_t) = k2 (|h| + 1/lam) e^{-lam |h|}, h = t - s, for
    X_t = int e^{-lam |t-u|} dL_u with Var L(1) = k2."""
    h = np.abs(np.asarray(h, dtype=float))
    return k2 * (h + 1.0 / lam) * np.exp(-lam * h)


def sq_cov(k2: float, k4: float, lam: float, h):
    """Cov((X_s - m)^2, (X_t - m)^2) = 2 Cov(X_s, X_t)^2 + k4 (|h| + 1/(2 lam))
    e^{-2 lam |h|}, m = E X, with k4 the fourth cumulant of L(1): the joint
    fourth cumulant is k4 int e^{-2 lam |s-u|} e^{-2 lam |t-u|} du."""
    h = np.abs(np.asarray(h, dtype=float))
    return 2.0 * lin_cov(k2, lam, h) ** 2 + k4 * (h + 0.5 / lam) * np.exp(-2.0 * lam * h)


def grid_mean_var(cov, n_points: int, dt: float) -> float:
    """Variance of the average of a stationary series over n_points grid
    points dt apart, from its covariance function cov(h)."""
    j = np.arange(1, n_points)
    return float(n_points * cov(0.0) + 2.0 * np.sum((n_points - j) * cov(j * dt))) / n_points**2


def check_moments(label: str, stats, mu: float, k2: float, k4: float, lam: float,
                  lag: int, dt: float, n_points: int) -> list[str]:
    """Sample mean, variance and lag autocorrelation of paths of n_points
    grid points dt apart (``path_stats``) against 2mu/lam, k2/lam and
    (1 + lam h) e^{-lam h}, h = lag dt; mu, k2 and k4 are the mean and the
    second and fourth cumulants of L(1)."""
    sd_mean = math.sqrt(grid_mean_var(lambda h: lin_cov(k2, lam, h), n_points, dt))
    sd_sq = math.sqrt(grid_mean_var(lambda h: sq_cov(k2, k4, lam, h), n_points, dt))
    h = lag * dt
    return (
        clt_mean(f"{label} mean", stats["mean"], 2.0 * mu / lam, sd_mean)
        + clt_mean(f"{label} variance", stats["sq"], k2 / lam, sd_sq)
        + clt_ratio(f"{label} acf({h:g})", stats["cross"], stats["norm"],
                    float(wbou_acf(lam, h)))
    )


def trapezoid(x: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis, starting at 0."""
    out = np.zeros(x.shape)
    np.cumsum(0.5 * (x[..., 1:] + x[..., :-1]) * dt, axis=-1, out=out[..., 1:])
    return out


def kappa(h: float) -> float:
    """(h/2) coth(h/2): trapezoid over explicit integrated volatility."""
    return 0.5 * h / math.tanh(0.5 * h)


# ---------------------------------------------------------------------------
# marginal law


def li2(z):
    """Dilogarithm Li2(z) = -int_0^z log(1-t)/t dt; scipy's spence(w)
    is Li2(1 - w)."""
    return special.spence(1.0 - np.asarray(z, dtype=complex))


def cf_gamma(a: float, b: float, lam: float, u):
    """E exp(iuX) for a gamma(a, b) driver: exp((2a/lam) Li2(iu/b))."""
    return np.exp((2.0 * a / lam) * li2(1j * np.asarray(u, dtype=float) / b))


def cf_cp_exp(eta: float, r: float, lam: float, u):
    """Compound Poisson, Exp(r) jumps at rate eta: (1 - iu/r)^(-2 eta/lam)."""
    return (1.0 - 1j * np.asarray(u, dtype=float) / r) ** (-2.0 * eta / lam)


def cf_brownian(g: float, s2: float, lam: float, u):
    """Brownian with drift g, variance s2: exp(2igu/lam - s2 u^2/(2 lam))."""
    u = np.asarray(u, dtype=float)
    return np.exp(2j * g * u / lam - s2 * u * u / (2.0 * lam))


def kbar_gamma(a: float, b: float, theta):
    """log E exp(-theta X) for a gamma(a, b) driver, time-scaled:
    2a Li2(-theta/b)."""
    return (2.0 * a * li2(-np.asarray(theta, dtype=float) / b)).real


def joint_cf_brownian(g: float, s2: float, lam: float, times, us) -> complex:
    """Gaussian E exp(i sum u_j X_{t_j}) with mean 2g/lam and covariance
    s2 (|t-s| + 1/lam) e^{-lam |t-s|}."""
    t = np.asarray(times, dtype=float)
    u = np.asarray(us, dtype=float)
    d = np.abs(t[:, None] - t[None, :])
    cov = s2 * (d + 1.0 / lam) * np.exp(-lam * d)
    return complex(np.exp(1j * u.sum() * 2.0 * g / lam - 0.5 * u @ cov @ u))


def tail_gamma(a: float, b: float, lam: float, y: float) -> float:
    """Levy tail of X for a gamma driver, (2/lam) int_y^inf ln(x/y) a e^{-bx}/x dx,
    by 50-digit quadrature."""
    yy = mpmath.mpf(y)
    f = lambda x: mpmath.log(x / yy) * a * mpmath.exp(-b * x) / x
    return float(2 / mpmath.mpf(lam) * mpmath.quad(f, [yy, yy + 1, mpmath.inf]))


def tail_cp_exp(eta: float, r: float, lam: float, y: float) -> float:
    """Levy tail of X for Exp(r) jumps at rate eta: (2 eta/lam) E1(r y)."""
    return 2.0 * eta / lam * float(special.exp1(r * y))


# ---------------------------------------------------------------------------
# second-order theory at 50 digits


def _mp_acov(lam, h):
    return (h + 1 / lam) * mpmath.exp(-lam * h)


def increment_acf_ref(lam: float, k: int) -> float:
    """Corr(X_{k+1}-X_k, X_1-X_0) from the covariance c(h) = (h + 1/lam) e^{-lam h}."""
    lam = mpmath.mpf(lam)
    c = lambda h: _mp_acov(lam, h)
    return float((2 * c(k) - c(k + 1) - c(k - 1)) / (2 * (c(0) - c(1))))


def increment_acf_ou_ref(lam: float, k: int) -> float:
    """The same identity for the OU covariance e^{-lam h}."""
    lam = mpmath.mpf(lam)
    c = lambda h: mpmath.exp(-lam * h)
    return float((2 * c(k) - c(k + 1) - c(k - 1)) / (2 * (c(0) - c(1))))


def sign_threshold_ref() -> float:
    """Root in lam of the lag-one increment autocorrelation."""
    f = lambda x: 2 * _mp_acov(x, 1) - _mp_acov(x, 2) - _mp_acov(x, 0)
    return float(mpmath.findroot(f, mpmath.mpf("1.25")))


def _mp_rbar(lam, t):
    lt = lam * t
    return (lt * mpmath.exp(-lt) + 2 * lt + 3 * mpmath.exp(-lt) - 3) / lam**2


def big_r_ref(lam: float, delta: float, s: int) -> float:
    """R(delta s) = rbar(delta(s+1)) - 2 rbar(delta s) + rbar(delta(s-1)),
    rbar(t) = (lam t e^{-lam t} + 2 lam t + 3 e^{-lam t} - 3)/lam^2, at 50 digits."""
    lam, d = mpmath.mpf(lam), mpmath.mpf(delta)
    return float(_mp_rbar(lam, d * (s + 1)) - 2 * _mp_rbar(lam, d * s)
                 + _mp_rbar(lam, d * (s - 1)))


def corr_sq_ref(mu: float, v: float, lam: float, delta: float, s: int) -> float:
    """R(delta s) / (6 rbar(delta) + 2 delta^2 mu^2 / v) at 50 digits."""
    lam_, d = mpmath.mpf(lam), mpmath.mpf(delta)
    den = 6 * _mp_rbar(lam_, d) + 2 * d**2 * mpmath.mpf(mu) ** 2 / mpmath.mpf(v)
    return float(mpmath.mpf(big_r_ref(lam, delta, s)) / den)


def sv_table_ref(mu: float, v: float, lam: float, delta: float, max_s: int) -> np.ndarray:
    """Rows (s, R, cov_iv, corr_sq_returns) for s = 1..max_s."""
    return np.array([
        (s, big_r_ref(lam, delta, s), v * big_r_ref(lam, delta, s),
         corr_sq_ref(mu, v, lam, delta, s))
        for s in range(1, max_s + 1)
    ])

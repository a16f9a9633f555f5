"""Shared numerical oracles for the test suite.

Everything here recomputes quantities through a *different* route than the
package uses (direct quadrature against the jump density, finite differences,
Monte Carlo error bars), so agreement between the two is meaningful.
"""

import math
import re
import zlib

import numpy as np
from scipy import special
from scipy.integrate import quad

from wbou import TruncationPolicy, _checks, as_generator, wbou_from_increments
from wbou.analytics import acov_x

_QUAD = dict(epsabs=1e-12, epsrel=1e-12, limit=400)


def rng_for(*tags):
    """Deterministic generator keyed by arbitrary string-able tags.

    (zlib.crc32 is stable across processes, unlike built-in hash().)
    """
    key = zlib.crc32("/".join(str(t) for t in tags).encode())
    return np.random.default_rng(np.random.SeedSequence(key))


# ---------------------------------------------------------------------------
# quadrature against a Levy measure's density/atoms (ignores closed-form tails)
# ---------------------------------------------------------------------------

def measure_tail_quad(measure, y, side="pos"):
    """Tail mass nu([y, inf)) or nu((-inf, -y]) by direct quadrature."""
    lo, hi = measure.support
    total = 0.0
    if measure.density is not None:
        if side == "pos":
            a, b = max(y, lo), hi
            if b > a:
                total += quad(measure.density, a, b, **_QUAD)[0]
        else:
            a, b = lo, min(-y, hi)
            if b > a:
                total += quad(measure.density, a, b, **_QUAD)[0]
    for c, w in measure.atoms:
        if side == "pos" and c >= y:
            total += w
        elif side == "neg" and c <= -y:
            total += w
    return total


def measure_moment_quad(measure, power, region=(1.0, np.inf)):
    """integral of x^power nu(dx) over |x| in [region[0], region[1])."""
    lo_r, hi_r = region
    lo, hi = measure.support
    total = 0.0
    if measure.density is not None:
        def f(x):
            return x ** power * measure.density(x)
        a, b = max(lo_r, lo), min(hi_r, hi)
        if b > a:
            total += quad(f, a, b, **_QUAD)[0]
        a2, b2 = max(-hi_r, lo), min(-lo_r, hi)
        if b2 > a2:
            total += quad(f, a2, b2, **_QUAD)[0]
    for c, w in measure.atoms:
        if lo_r <= abs(c) < hi_r:
            total += c ** power * w
    return total


def gamma_x_oracle(triplet, lam):
    """Location parameter of the stationary law via the time-change integral.

    Integrates v -> gamma + int_{1 < |x| <= 1/v} x nu(dx) over v in (0, 1]
    and scales by 2/lam.  The inner integral is evaluated as the full
    outside-unit mean minus the tail beyond 1/v, each by direct quadrature.
    Both regions are open at their lower end, so an atom at |x| = 1 counts
    in neither.
    """
    meas = triplet.measure

    def tail_mean(y):
        # int_{|x| > y} x nu(dx)
        lo, hi = meas.support
        total = 0.0
        if meas.density is not None:
            def f(x):
                return x * meas.density(x)
            if hi > y:
                total += quad(f, max(y, lo), hi, **_QUAD)[0]
            if lo < -y:
                total += quad(f, lo, min(-y, hi), **_QUAD)[0]
        for c, w in meas.atoms:
            if abs(c) > y:
                total += c * w
        return total

    mean_outside = tail_mean(1.0)

    def integrand(v):
        if v <= 0.0:
            return triplet.gamma + mean_outside
        hi = 1.0 / v
        return triplet.gamma + mean_outside - tail_mean(hi)

    pts = sorted({1.0 / abs(c) for c, w in meas.atoms if abs(c) > 1.0})
    val = quad(integrand, 0.0, 1.0, points=pts or None, **_QUAD)[0]
    return 2.0 * val / lam


def phi_x_oracle(measure, y, lam):
    """Positive tail of the mapped measure via the Fubini form.

    (2/lam) * int_y^inf nubar(w)/w dw with the driver tail nubar computed by
    direct quadrature at every w.
    """
    def f(w):
        return measure_tail_quad(measure, w, "pos") / w

    # scipy rejects break points on infinite intervals, so integrate each
    # inter-atom segment separately and the unbroken remainder to infinity
    pts = sorted({c for c, w in measure.atoms if c > y})
    edges = [y] + pts
    val = sum(quad(f, a, b, **_QUAD)[0] for a, b in zip(edges, edges[1:]))
    val += quad(f, edges[-1], np.inf, **_QUAD)[0]
    return 2.0 / lam * val


def normal_log_tail_mp(eta, mean, sd, lam, y, side="pos", dps=50):
    """Levy tail of X for N(mean, sd^2) jumps at rate eta, by dps-digit
    quadrature of the direct form (2 eta/lam) int_{x >= y} ln(x/y) phi(x)
    dx, with phi the N(mean, sd^2) density on the positive side and the
    N(-mean, sd^2) density on the negative side; an mpmath number.

    The split points are y, the mean and mean +- 40 sd; past mean + 40 sd
    the density is below 1e-340.  mpmath's quad stops at an absolute
    error of 10^-dps, so phi is divided by its largest value on [y, inf),
    at c = max(y, mean), inside the exponent.
    """
    import mpmath

    with mpmath.workdps(dps):
        m = mpmath.mpf(mean) if side == "pos" else -mpmath.mpf(mean)
        s, y = mpmath.mpf(sd), mpmath.mpf(y)
        top = m + 40 * s
        if top <= y:
            return mpmath.mpf(0)
        c = max(y, m)
        pts = sorted({y, top} | {p for p in (m - 40 * s, m) if y < p < top})
        val = mpmath.quad(lambda x: mpmath.log(x / y)
                          * mpmath.exp(((c - m) ** 2 - (x - m) ** 2) / (2 * s * s)), pts)
        return 2 * eta / mpmath.mpf(lam) * val * mpmath.npdf(c, m, s)


# ---------------------------------------------------------------------------
# Levy-Khintchine reconstruction of a characteristic function from a triplet
# ---------------------------------------------------------------------------

def cf_from_triplet(triplet, u):
    """exp(iu*gamma - sigma2 u^2/2 + int (e^{iuy}-1-iuy 1_{|y|<=1}) nu(dy)).

    Integrates the real and imaginary parts separately, splitting the domain
    at +-1 where the compensator switches off.
    """
    gamma, sigma2, meas = triplet.gamma, triplet.sigma2, triplet.measure
    dens = meas.density
    lo, hi = meas.support

    def re_in(y):
        return (np.cos(u * y) - 1.0) * dens(y)

    def im_in(y):
        return (np.sin(u * y) - u * y) * dens(y)

    def re_out(y):
        return (np.cos(u * y) - 1.0) * dens(y)

    def im_out(y):
        return np.sin(u * y) * dens(y)

    ire = iim = 0.0
    if dens is not None:
        segs_in = [(max(lo, -1.0), min(hi, 0.0)), (max(lo, 0.0), min(hi, 1.0))]
        for a, b in segs_in:
            if b > a:
                ire += quad(re_in, a, b, **_QUAD)[0]
                iim += quad(im_in, a, b, **_QUAD)[0]
        segs_out = [(lo, min(hi, -1.0)), (max(lo, 1.0), hi)]
        for a, b in segs_out:
            if b > a:
                ire += quad(re_out, a, b, **_QUAD)[0]
                iim += quad(im_out, a, b, **_QUAD)[0]
    for c, w in meas.atoms:
        comp = u * c if abs(c) <= 1.0 else 0.0
        ire += (np.cos(u * c) - 1.0) * w
        iim += (np.sin(u * c) - comp) * w
    expo = complex(-0.5 * sigma2 * u * u + ire, u * gamma + iim)
    return np.exp(expo)


# ---------------------------------------------------------------------------
# characteristic functions of X_0 in closed form, and by scipy's quad
# ---------------------------------------------------------------------------

def cf_gamma_oracle(a, b, lam, u):
    """Gamma(a, b) driver: exp((2a/lam) Li2(iu/b)), Li2(w) = spence(1 - w)."""
    u = np.asarray(u, dtype=float)
    return np.exp((2.0 * a / lam) * special.spence(1.0 - 1j * u / b))


def cf_cp_exp_oracle(eta, r, lam, u):
    """Compound Poisson, rate eta, Exp(r) jumps: (1 - iu/r)^(-2 eta/lam)."""
    return (1.0 - 1j * np.asarray(u, dtype=float) / r) ** (-2.0 * eta / lam)


def cf_brownian_oracle(g, s2, lam, u):
    """Brownian with drift g, variance s2: exp(2igu/lam - s2 u^2/(2 lam))."""
    u = np.asarray(u, dtype=float)
    return np.exp(2j * g * u / lam - s2 * u * u / (2.0 * lam))


def joint_cf_brownian_oracle(g, s2, lam, times, us):
    """Gaussian E exp(i sum u_j X_{t_j}) for a Brownian driver over the
    whole line: mean 2g/lam per unit of u and covariance
    s2 (|t_i - t_j| + 1/lam) e^{-lam |t_i - t_j|}."""
    t = np.asarray(times, dtype=float)
    u = np.asarray(us, dtype=float)
    d = np.abs(np.subtract.outer(t, t))
    cov = (d + 1.0 / lam) * np.exp(-lam * d)
    return complex(np.exp(1j * g * u.sum() * 2.0 / lam - 0.5 * s2 * (u @ cov @ u)))


def cf_exponent_quad(driver, lam, u):
    """(2/lam) int_0^{|u|} psi(sign(u) v)/v dv by scipy's quad, real and
    imaginary parts apart, with psi(v)/v -> i * mean patched in at v = 0."""
    if u == 0:
        return 0.0 + 0.0j
    sign = 1.0 if u > 0 else -1.0
    mu, _ = driver.moments()

    def integrand(v, part):
        if v == 0.0:
            return part(1j * sign * mu)
        return part(driver.psi(sign * v) / v)

    re = quad(integrand, 0.0, abs(u), args=(np.real,), **_QUAD)[0]
    im = quad(integrand, 0.0, abs(u), args=(np.imag,), **_QUAD)[0]
    return (2.0 / lam) * (re + 1j * im)


def ecf(samples, u):
    """Empirical characteristic function at scalar or array u."""
    u = np.asarray(u, dtype=float)
    return np.mean(np.exp(1j * np.multiply.outer(u, np.asarray(samples))), axis=-1)


# ---------------------------------------------------------------------------
# Monte Carlo standard errors
# ---------------------------------------------------------------------------

def mean_se(x):
    x = np.asarray(x, dtype=float)
    return x.std(ddof=1) / np.sqrt(x.size)


def var_se(x):
    """Standard error of the sample variance (delta method)."""
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    m2 = np.mean(d ** 2)
    m4 = np.mean(d ** 4)
    return np.sqrt(max(m4 - m2 ** 2, 0.0) / x.size)


def corr_se(a, b):
    """Standard error of the sample correlation via its influence function."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    r = np.mean(za * zb)
    psi = za * zb - 0.5 * r * (za ** 2 + zb ** 2)
    return psi.std(ddof=1) / np.sqrt(a.size)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_STENCILS = {
    1: ([(1, 0.5), (-1, -0.5)], 1),
    2: ([(1, 1.0), (0, -2.0), (-1, 1.0)], 2),
    3: ([(2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)], 3),
    4: ([(2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)], 4),
}


def fd_derivative(f, x0, n, h=0.05, levels=3):
    """n-th derivative by central differences with Richardson extrapolation.

    The base stencils all have even error expansions, so each Richardson
    level knocks out another factor of h^2.
    """
    offsets, power = _STENCILS[n]

    def base(step):
        acc = 0.0
        for k, c in offsets:
            acc += c * f(x0 + k * step)
        return acc / step ** n

    vals = [base(h / 2 ** j) for j in range(levels)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * vals[j + 1] - vals[j]) / (fac - 1.0)
                for j in range(len(vals) - 1)]
        fac *= 4.0
    return vals[0]


# ---------------------------------------------------------------------------
# bracket-expansion variants of the second-order formulas
# ---------------------------------------------------------------------------

def increment_acf_alt(p, k):
    """Corr(X_{k+1} - X_k, X_1 - X_0) as two e^{-lam k} / lam k e^{-lam k}
    brackets over the common denominator 1 - e^{-lam} - lam e^{-lam}."""
    kk = np.asarray(k, dtype=float)
    lam = p.lam
    den = 1.0 - np.exp(-lam) - lam * np.exp(-lam)
    b1 = 0.5 + 0.5 * (1.0 - np.exp(lam) + lam * np.exp(lam)) / den
    b2 = 0.5 + 0.5 * (1.0 - np.exp(lam) + lam * np.exp(-lam)) / den
    return np.exp(-lam * kk) * b1 + lam * kk * np.exp(-lam * kk) * b2


def first_order_increment_acf_alt(p):
    """The k = 1 value of increment_acf_alt as a single bracket."""
    lam = p.lam
    den = 1.0 - np.exp(-lam) - lam * np.exp(-lam)
    return np.exp(-lam) * (
        0.5 * (1.0 + lam)
        + 0.5 * (1.0 + lam - np.exp(lam) + lam ** 2 * np.exp(-lam)) / den
    )


def increment_acf_acov(p, k):
    """increment_acf composed of five validated acov_x calls, as the
    package once evaluated it; bitwise the package's value."""
    kk = np.asarray(k).astype(float)
    num = 2.0 * acov_x(p, kk) - acov_x(p, kk + 1.0) - acov_x(p, kk - 1.0)
    den = 2.0 * (acov_x(p, 0.0) - acov_x(p, 1.0))
    out = num / den
    return float(out) if np.ndim(k) == 0 else out


def sign_threshold_bisection(acf1):
    """Bisection for the root of lam -> acf1(lam) over [0.5, 3] to 1e-8,
    the steps lambda_sign_threshold takes on its closed-form numerator."""
    lo, hi = 0.5, 3.0
    flo = acf1(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = acf1(mid)
        if flo * fm > 0:
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-8:
            break
    return 0.5 * (lo + hi)


def rbar_array(lam, t):
    """rbar_fn through an array for every t, as the package once did."""
    _checks.lam(lam)
    tt = np.asarray(t, dtype=float)
    lt = lam * tt
    out = (lt * np.exp(-lt) + 2.0 * lt + 3.0 * np.exp(-lt) - 3.0) / lam**2
    return float(out) if np.ndim(t) == 0 else out


def var_y_alt(p, t):
    """V t e^{-lam t} + (V/lam) e^{-lam t}: Cov(X_t, X_0), which is *not*
    Var(X_t - X_0) and differs from it for every t > 0."""
    t = np.asarray(t, dtype=float)
    return (p.v * t + p.v / p.lam) * np.exp(-p.lam * t)


# ---------------------------------------------------------------------------
# CARMA(2,0) state recursion as a 2x2 matrix loop
# ---------------------------------------------------------------------------

def mat_exp_at(lam, t):
    """Closed-form e^{At}: [[cosh, sinh/lam], [lam sinh, cosh]] at lam*t."""
    _checks.lam(lam)
    c = math.cosh(lam * t)
    s = math.sinh(lam * t)
    return np.array([[c, s / lam], [lam * s, c]])


def carma_loop(spec, dl, dt):
    """R_{k+1} = e^{A dt}(R_k + (0, dL_k)') step by step on the full state
    from spec.r0; returns the observation b'R and the (n+1, 2) states."""
    e_dt = mat_exp_at(spec.lam, dt)
    states = np.empty((len(dl) + 1, 2))
    states[0] = spec.r0
    r = np.array(spec.r0, dtype=float)
    step = np.zeros(2)
    for k, d in enumerate(dl):
        step[1] = d
        r = e_dt @ (r + step)
        states[k + 1] = r
    return states @ spec.b, states


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def pairwise_coarsen(dl):
    """Merge adjacent increments pairwise (refinement with common randomness)."""
    dl = np.asarray(dl, dtype=float)
    return dl.reshape(dl.shape[:-1] + (dl.shape[-1] // 2, 2)).sum(axis=-1)


# ---------------------------------------------------------------------------
# dense half-line reference
# ---------------------------------------------------------------------------

def dense_draws(driver, lam, grid, *, trunc=None, rng=None):
    """(dl_past, dl, dl_tail): the increments of the engine's three children
    (past of 0, main window, tail beyond t_max), drawn as (1, m) arrays.

    The engine draws only dl and takes G and X^+_{t_max} whole from the
    driver's hook; these dense half-lines are the reference that
    refinement studies coarsen and replay.  Replayed by replay_dense they
    rebuild the engine's path bitwise wherever the hook takes its dense
    default (gamma on a coarse grid).
    """
    m = (trunc or TruncationPolicy()).n_steps(lam, grid.dt)
    past, main, tail = as_generator(rng).spawn(3)
    return tuple(driver.sample_increments(grid.dt, gen, (1, k))[0]
                 for gen, k in ((past, m), (main, grid.n), (tail, m)))


def replay_dense(lam, grid, draws):
    """wbou_from_increments over (dl_past, dl, dl_tail)."""
    dl_past, dl, dl_tail = draws
    return wbou_from_increments(lam, grid, dl, dl_past=dl_past, dl_tail=dl_tail)


def coarsen_draws(draws):
    """Each of (dl_past, dl, dl_tail) merged pairwise, an odd last
    increment of a half-line dropped."""
    return tuple(pairwise_coarsen(a[: 2 * (len(a) // 2)]) for a in draws)


_HOOK_RECORD = re.compile(r"sample_weighted_sum: route=(\w+) rows=(\d+) terms=(\d+) "
                          r"series_mass<=(\S+)$")


def hook_records(records):
    """(route, rows, terms, series_mass) of each sample_weighted_sum debug
    record among the log records, in order; the mass as its printed text."""
    out = []
    for r in records:
        hit = r.name == "wbou" and _HOOK_RECORD.match(r.getMessage())
        if hit:
            route, rows, terms, mass = hit.groups()
            out.append((route, int(rows), int(terms), mass))
    return out

"""Driver-level checks: exponents, cumulants, measures, sampling laws,
and the half-line sums drawn by law."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from wbou import (
    BrownianDriver,
    DomainError,
    ExponentialJumps,
    GammaSubordinatorDriver,
    LevyMeasure,
    NormalJumps,
    NotASubordinator,
    PointMassJumps,
    SimulationGrid,
    SvSpec,
    TruncationPolicy,
    brownian,
    compound_poisson,
    deterministic_drift,
    gamma_subordinator,
    simulate_sv_ensemble,
    simulate_wbou,
    simulate_wbou_ensemble,
    substream,
)
from wbou.drivers import _POISSON_MAX, _kernel_sum, _poisson

from helpers import (ecf, hook_records, mean_se, measure_moment_quad, measure_tail_quad,
                     rng_for, var_se)

U_GRID = np.linspace(-5.0, 5.0, 41)


# ---------------------------------------------------------------------------
# characteristic exponents
# ---------------------------------------------------------------------------

def test_psi_brownian_closed_form():
    d = brownian(gamma=0.5, sigma2=2.0)
    for u in (-3.0, -0.2, 0.7, 4.0):
        want = 1j * u * 0.5 - 0.5 * 2.0 * u * u
        assert d.psi(u) == pytest.approx(want)


def test_psi_point_mass_jumps():
    d = compound_poisson(3.0, PointMassJumps(2.0))
    for u in (-1.0, 0.3, 2.5):
        want = 3.0 * (np.exp(2j * u) - 1.0)
        assert d.psi(u) == pytest.approx(want)


def test_psi_exponential_jumps():
    eta, rho = 5.0, 1.5
    d = compound_poisson(eta, ExponentialJumps(rho))
    for u in (-2.0, 0.4, 3.0):
        want = eta * (rho / (rho - 1j * u) - 1.0)
        assert d.psi(u) == pytest.approx(want)


def test_psi_normal_jumps():
    d = compound_poisson(2.0, NormalJumps(mean=0.3, var=0.5))
    u = 1.7
    want = 2.0 * (np.exp(1j * u * 0.3 - 0.25 * u * u) - 1.0)
    assert d.psi(u) == pytest.approx(want)


def test_psi_gamma_subordinator():
    a, b = 1.3, 0.9
    d = gamma_subordinator(a, b)
    for u in (-1.0, 0.5, 2.0):
        assert d.psi(u) == pytest.approx(-a * np.log(1 - 1j * u / b))


def test_psi_drift():
    d = deterministic_drift(2.0)
    assert d.psi(1.5) == pytest.approx(3j)


@pytest.mark.parametrize("d", [
    brownian(0.1, 1.0),
    compound_poisson(5.0, ExponentialJumps(1.0)),
    compound_poisson(1.0, PointMassJumps(-0.5)),
    compound_poisson(2.0, NormalJumps(0.0, 1.0)),
    gamma_subordinator(1.0, 1.0),
    deterministic_drift(-1.0),
])
def test_psi_vanishes_at_zero(d):
    assert d.psi(0.0) == 0.0


def test_psi_accepts_arrays():
    d = gamma_subordinator(2.0, 1.0)
    out = d.psi(U_GRID)
    assert out.shape == U_GRID.shape
    assert out[20] == pytest.approx(d.psi(0.0))


# ---------------------------------------------------------------------------
# Laplace cumulants of subordinators
# ---------------------------------------------------------------------------

def quad_cumulant(d, theta):
    """k(theta) recomputed as -theta*drift + int (e^{-theta x} - 1) nu(dx)."""
    trip = d.triplet
    meas = trip.measure
    drift0 = trip.gamma - measure_moment_quad(meas, 1, (0.0, 1.0))
    val = 0.0
    if meas.density is not None:
        def f(x):
            return (math.exp(-theta * x) - 1.0) * meas.density(x)
        val += quad(f, 0.0, meas.support[1], epsabs=1e-12, epsrel=1e-12,
                    limit=400)[0]
    for c, w in meas.atoms:
        val += (math.exp(-theta * c) - 1.0) * w
    return -theta * drift0 + val


def test_gamma_cumulant_value():
    # shape = rate = 1: k(1) = -log 2
    d = gamma_subordinator(1.0, 1.0)
    assert d.cumulant_k(1.0) == pytest.approx(-math.log(2.0), abs=1e-14)


@pytest.mark.parametrize("d", [
    gamma_subordinator(1.2, 0.8),
    compound_poisson(4.0, ExponentialJumps(2.0)),
    compound_poisson(1.5, PointMassJumps(0.7)),
    deterministic_drift(2.5),
])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 4.0])
def test_cumulant_matches_quadrature(d, theta):
    assert d.cumulant_k(theta) == pytest.approx(quad_cumulant(d, theta), abs=1e-9)


def test_cumulant_closed_forms():
    assert compound_poisson(4.0, ExponentialJumps(2.0)).cumulant_k(3.0) == \
        pytest.approx(4.0 * (2.0 / 5.0 - 1.0))
    assert compound_poisson(1.5, PointMassJumps(0.7)).cumulant_k(2.0) == \
        pytest.approx(1.5 * (math.exp(-1.4) - 1.0))
    assert deterministic_drift(2.5).cumulant_k(1.0) == pytest.approx(-2.5)


def test_cumulant_negative_theta():
    """The transform extends to the driver's negative abscissa."""
    d = gamma_subordinator(1.0, 1.0)
    assert d.cumulant_k(-0.5) == pytest.approx(-math.log(0.5))
    with pytest.raises(DomainError):
        d.cumulant_k(-1.0)
    e = compound_poisson(2.0, ExponentialJumps(1.0))
    assert e.cumulant_k(-0.5) == pytest.approx(2.0 * (1.0 / 0.5 - 1.0))
    with pytest.raises(DomainError):
        e.cumulant_k(-1.0)


@pytest.mark.parametrize("d", [
    brownian(0.0, 1.0),
    compound_poisson(2.0, NormalJumps(0.0, 1.0)),
    compound_poisson(1.0, PointMassJumps(-1.0)),
    deterministic_drift(-1.0),
])
def test_cumulant_rejects_non_subordinators(d):
    with pytest.raises(NotASubordinator):
        d.cumulant_k(1.0)


# ---------------------------------------------------------------------------
# Levy measures and triplets
# ---------------------------------------------------------------------------

DRIVERS_WITH_JUMPS = [
    compound_poisson(5.0, ExponentialJumps(1.0)),
    compound_poisson(2.0, NormalJumps(0.3, 0.8)),
    compound_poisson(1.5, PointMassJumps(2.0)),
    gamma_subordinator(1.2, 0.8),
]


def test_gamma_measure_tail_closed_form():
    a, b = 1.2, 0.8
    meas = gamma_subordinator(a, b).triplet.measure
    for y in (0.1, 1.0, 3.0):
        assert meas.tail_pos(y) == pytest.approx(a * special.exp1(b * y), rel=1e-10)
        assert meas.tail_neg(y) == 0.0


@pytest.mark.parametrize("d", DRIVERS_WITH_JUMPS)
@pytest.mark.parametrize("y", [0.25, 1.0, 2.5])
def test_measure_tails_match_quadrature(d, y):
    meas = d.triplet.measure
    assert meas.tail_pos(y) == pytest.approx(
        measure_tail_quad(meas, y, "pos"), abs=1e-10)
    assert meas.tail_neg(y) == pytest.approx(
        measure_tail_quad(meas, y, "neg"), abs=1e-10)


def test_brownian_measure_is_zero():
    assert brownian(1.0, 2.0).triplet.measure.is_zero
    assert deterministic_drift(3.0).triplet.measure.is_zero


def test_drift_is_brownian_without_variance():
    """Pure drift is the Brownian family at sigma^2 = 0, a subordinator
    exactly when its drift is nonnegative."""
    assert deterministic_drift(1.0) == brownian(1.0, 0.0)
    assert brownian(1.0, 0.0).nonnegative and brownian(0.0, 0.0).nonnegative
    for d in (brownian(1.0, 0.5), brownian(-1.0, 0.0)):
        assert not d.nonnegative


@pytest.mark.parametrize("jumps, support", [(ExponentialJumps(1.0), (0.0, math.inf)),
                                            (NormalJumps(0.3, 0.8), (-math.inf, math.inf))])
def test_jump_density_support_follows_the_sign_of_the_jumps(jumps, support):
    meas = compound_poisson(2.0, jumps).triplet.measure
    assert meas.support == support
    assert (meas.tail_neg(0.5) == 0.0) == jumps.positive


@pytest.mark.parametrize("d", DRIVERS_WITH_JUMPS + [brownian(0.4, 1.7),
                                                    deterministic_drift(-2.0)])
def test_triplet_reproduces_moments(d):
    """mean = gamma + outside-unit mean, var = sigma2 + second moment."""
    trip = d.triplet
    mu, v = d.moments()
    mean_out = measure_moment_quad(trip.measure, 1, (1.0, np.inf))
    m2 = measure_moment_quad(trip.measure, 2, (0.0, np.inf))
    assert trip.gamma + mean_out == pytest.approx(mu, abs=1e-9)
    assert trip.sigma2 + m2 == pytest.approx(v, abs=1e-9)


def test_truncated_drift_is_inside_unit_mean():
    for d in DRIVERS_WITH_JUMPS:
        assert d.triplet.gamma == pytest.approx(
            measure_moment_quad(d.triplet.measure, 1, (0.0, 1.0)), abs=1e-9)


def test_tail_endpoint_handling():
    meas = compound_poisson(1.5, PointMassJumps(2.0)).triplet.measure
    assert meas.tail_pos(2.0) == pytest.approx(1.5)
    assert meas.tail_pos(math.nextafter(2.0, math.inf)) == 0.0
    with pytest.raises(DomainError):
        meas.tail_pos(0.0)


@pytest.mark.parametrize("tails", [{}, {"tail_pos_closed": lambda y: 0.0},
                                   {"tail_neg_closed": lambda y: 0.0}],
                         ids=["no-tails", "pos-only", "neg-only"])
def test_measure_with_a_density_needs_both_closed_tails(tails):
    with pytest.raises(DomainError, match="needs both closed tails"):
        LevyMeasure(density=lambda x: 1.0, support=(0.0, 1.0), **tails)


@pytest.mark.parametrize("c", [0.5, -0.5])
def test_atom_only_and_empty_measures_have_exact_tails(c):
    """Without a density the continuous tails are 0: only atoms count."""
    meas = compound_poisson(2.0, PointMassJumps(c)).triplet.measure
    assert meas.density is None
    on, off = (meas.tail_pos, meas.tail_neg) if c > 0 else (meas.tail_neg, meas.tail_pos)
    assert on(0.25) == on(0.5) == 2.0
    assert on(math.nextafter(0.5, 1.0)) == on(1.0) == off(0.25) == 0.0
    empty = LevyMeasure()
    assert empty.is_zero and empty.tail_pos(0.5) == empty.tail_neg(0.5) == 0.0


# ---------------------------------------------------------------------------
# increment sampling
# ---------------------------------------------------------------------------

class TestSampling:
    N = 200_000
    DT = 0.37

    @pytest.mark.parametrize("d", DRIVERS_WITH_JUMPS + [brownian(0.4, 1.7)])
    def test_increment_moments(self, d):
        rng = rng_for("drivers", repr(d))
        dl = d.sample_increments(self.DT, rng, self.N)
        mu, v = d.moments()
        assert abs(dl.mean() - mu * self.DT) < 4 * mean_se(dl)
        assert abs(dl.var(ddof=1) - v * self.DT) < 4 * var_se(dl) + 1e-12

    @pytest.mark.parametrize("d", DRIVERS_WITH_JUMPS + [brownian(0.0, 1.0)])
    def test_successive_increments_uncorrelated(self, d):
        rng = rng_for("indep", repr(d))
        dl = d.sample_increments(0.1, rng, 50_000)
        r = np.corrcoef(dl[:-1], dl[1:])[0, 1]
        assert abs(r) < 4.0 / math.sqrt(dl.size - 1)

    def test_point_mass_increments_are_lattice(self):
        d = compound_poisson(3.0, PointMassJumps(0.25))
        dl = d.sample_increments(0.5, rng_for("lattice"), 10_000)
        counts = dl / 0.25
        assert np.allclose(counts, np.round(counts))
        assert np.all(dl >= 0.0)
        # count of empty intervals matches the Poisson zero-probability
        p0 = math.exp(-3.0 * 0.5)
        frac = np.mean(counts == 0)
        assert abs(frac - p0) < 4 * math.sqrt(p0 * (1 - p0) / dl.size)

    def test_subordinator_increments_nonnegative(self):
        for d in (gamma_subordinator(0.7, 1.3),
                  compound_poisson(5.0, ExponentialJumps(1.0))):
            dl = d.sample_increments(0.01, rng_for("nonneg", repr(d)), 20_000)
            assert np.all(dl >= 0.0)

    def test_drift_increments_exact(self):
        dl = deterministic_drift(2.0).sample_increments(
            0.25, substream(0), 100)
        assert np.all(dl == 0.5)

    def test_scalar_increment(self):
        x = float(gamma_subordinator(1.0, 1.0).sample_increments(0.1, substream(5), ()))
        assert isinstance(x, float)

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            brownian().sample_increments(0.0, substream(1), 10)
        with pytest.raises(DomainError):
            gamma_subordinator(1.0, 1.0).sample_increments(-1.0, substream(1), ())

    def test_sampling_is_reproducible(self):
        d = compound_poisson(5.0, ExponentialJumps(1.0))
        a = d.sample_increments(0.2, substream(42, 7), 1000)
        b = d.sample_increments(0.2, substream(42, 7), 1000)
        assert np.array_equal(a, b)
        c = d.sample_increments(0.2, substream(43, 7), 1000)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("d", [
    gamma_subordinator(2.0, 3.0),
    compound_poisson(5.0, ExponentialJumps(1.0)),
    brownian(0.2, 0.5),
])
def test_sampler_matches_exponent_via_ecf(d):
    """Empirical CF of increments tracks exp(dt * psi) uniformly on [-5, 5]."""
    dt = 0.2
    dl = d.sample_increments(dt, rng_for("ecf", repr(d)), 100_000)
    target = np.exp(dt * np.array([d.psi(u) for u in U_GRID]))
    gap = np.abs(ecf(dl, U_GRID) - target)
    assert gap.max() < 0.02


# ---------------------------------------------------------------------------
# half-line integrals: sample_weighted_sum
# ---------------------------------------------------------------------------

#: one driver of each kind the hook distinguishes, with the fourth
#: cumulant of L(1): 6a/b^4 for gamma, intensity * E J^4 for compound Poisson
HOOK_DRIVERS = {
    "gamma": (gamma_subordinator(0.7, 1.3), 6 * 0.7 / 1.3 ** 4),
    "brownian": (brownian(0.3, 1.5), 0.0),
    "drift": (deterministic_drift(2.0), 0.0),
    "cp-normal": (compound_poisson(5.0, NormalJumps(0.2, 1.0)),
                  5.0 * (0.2 ** 4 + 6 * 0.2 ** 2 + 3.0)),
    "cp-exponential": (compound_poisson(5.0, ExponentialJumps(2.0)), 5.0 * 24 / 2.0 ** 4),
    "cp-point": (compound_poisson(5.0, PointMassJumps(0.5)), 5.0 * 0.5 ** 4),
}
HOOK_DT, HOOK_LAM, HOOK_TOL = 1e-3, 1.0, 1e-12


def _hook_sums(driver, tag, rows=2000, chunks=5):
    """rows * chunks draws of the half-line sum at lam dt = 1e-3, and the
    kernel weights e^{-lam dt j} they stand for."""
    m = TruncationPolicy(HOOK_TOL).n_steps(HOOK_LAM, HOOK_DT)
    rng = rng_for("weighted-sum", tag)
    s = np.concatenate([
        driver.sample_weighted_sum(HOOK_DT, HOOK_LAM, m, rng, rows, HOOK_TOL)
        for _ in range(chunks)
    ])
    return s, np.exp(-HOOK_LAM * HOOK_DT * np.arange(m))


@pytest.mark.parametrize("name", list(HOOK_DRIVERS))
def test_weighted_sum_matches_discrete_cumulants(name):
    """Sample mean and variance against the exact discrete cumulants
    mu dt sum w and V dt sum w^2, within 5 model standard errors."""
    driver, k4 = HOOK_DRIVERS[name]
    s, w = _hook_sums(driver, name)
    mu, v = driver.moments()
    mean, var = mu * HOOK_DT * w.sum(), v * HOOK_DT * (w @ w)
    if var == 0.0:
        assert np.allclose(s, mean, rtol=1e-12, atol=0.0)
        return
    n = s.size
    assert abs(s.mean() - mean) <= 5 * math.sqrt(var / n)
    k4_sum = k4 * HOOK_DT * np.sum(w ** 4)
    assert abs(s.var(ddof=1) - var) <= 5 * math.sqrt((k4_sum + 2 * var ** 2) / n)


def test_gamma_weighted_sum_characteristic_function():
    """Empirical CF of the series sum against prod_j (1 - iu w_j / b)^{-a dt}."""
    driver, _ = HOOK_DRIVERS["gamma"]
    a, b = driver.shape, driver.rate
    s, w = _hook_sums(driver, "gamma-ecf")
    for u in (-2.0, -0.5, 0.7, 1.5, 3.0):
        want = np.exp(-a * HOOK_DT * np.sum(np.log(1.0 - 1j * u * w / b)))
        se = math.sqrt((1.0 - abs(want) ** 2) / s.size)
        assert abs(ecf(s, u) - want) <= 5 * se


@pytest.mark.parametrize("a,b,lam,dt,tol", [
    (1.0, 1.0, 1.0, 1e-3, 1e-12), (0.3, 2.0, 0.5, 1e-3, 1e-8), (2.0, 0.5, 3.0, 1e-4, 1e-12),
])
def test_gamma_series_budget(a, b, lam, dt, tol):
    """The series terms beyond Gamma_max have expected mass
    int_{Gamma_max}^inf e^{-g/(aT)} dg / b, T = m dt; it stays within
    tol * mu / lam, and the series is shorter than the m dense draws."""
    m = TruncationPolicy(tol).n_steps(lam, dt)
    gmax = gamma_subordinator(a, b)._gamma_max(dt, lam, m, tol)
    assert 0 < gmax < m
    a_t = a * m * dt
    tail = quad(lambda x: math.exp(-x), gmax / a_t, math.inf, epsabs=0.0, epsrel=1e-10)[0]
    assert tail * a_t / b <= tol * (a / b) / lam * (1 + 1e-9)


def test_hook_records_name_the_route(caplog):
    """Gamma falls back to the dense default when Gamma_max reaches the
    cell count (coarse grids): its m increments, drawn and weighted.  The
    exact laws always apply.  Each call's one record names its route and
    the terms it drew: n_paths * m dense draws, the Poisson total of the
    scattered jumps or series terms, one normal per row, none for drift."""
    m = TruncationPolicy().n_steps(1.0, 0.1)
    m_fine = TruncationPolicy().n_steps(1.0, 1e-3)
    gamma = gamma_subordinator(1.0, 1.0)
    hook = lambda drv, dt, m, seed: drv.sample_weighted_sum(dt, 1.0, m, substream(seed), 2,
                                                            1e-12)
    with caplog.at_level(logging.DEBUG, logger="wbou"):
        coarse = hook(gamma, 0.1, m, 1)
        hook(gamma, 1e-3, m_fine, 2)
        hook(compound_poisson(10.0, ExponentialJumps(1.0)), 0.1, m, 3)
        normal = hook(brownian(), 0.1, m, 4)
        drift = hook(deterministic_drift(1.0), 0.1, m, 5)
    w = np.exp(-0.1 * np.arange(m))
    assert np.array_equal(coarse, gamma.sample_increments(0.1, substream(1), (2, m)) @ w)
    series = substream(2).poisson(gamma._gamma_max(1e-3, 1.0, m_fine, 1e-12), 2).sum()
    jumps = substream(3).poisson(10.0 * 0.1 * m, 2).sum()
    assert hook_records(caplog.records) == [
        ("dense", 2, 2 * m, "0"), ("series", 2, series, "1e-12"), ("jumps", 2, jumps, "0"),
        ("normal", 2, 2, "0"), ("normal", 2, 2, "0")]
    assert np.array_equal(normal, substream(4).normal(0.0, math.sqrt(0.1 * _kernel_sum(0.2, m)),
                                                      2))
    assert np.array_equal(drift, np.full(2, 0.1 * _kernel_sum(0.1, m)))


@pytest.mark.parametrize("lam, dt, m", [(1.0, 0.1, 1), (1.0, 0.1, 277), (0.8, 0.01, 400),
                                        (3.0, 1e-3, 9211), (1e-6, 1e-3, 1000),
                                        (1e-3, 1e-4, 30_000_000), (1e-160, 1e-150, 1000),
                                        (1e-200, 1e-200, 10)])
def test_kernel_sums_match_the_weights(lam, dt, m):
    """The Brownian hook's closed geometric sums, sum_j w_j and w @ w for
    w_j = e^{-lam dt j}, against the weights summed in blocks of 1e6; the
    last two rates are subnormal and 0."""
    h = lam * dt
    sums, squares = [], []
    for lo in range(0, m, 10**6):
        w = np.exp(-h * np.arange(lo, min(lo + 10**6, m)))
        sums.append(w.sum())
        squares.append(w @ w)
    assert _kernel_sum(h, m) == pytest.approx(math.fsum(sums), rel=1e-12)
    assert _kernel_sum(2.0 * h, m) == pytest.approx(math.fsum(squares), rel=1e-12)


def test_brownian_hook_allocates_nothing_per_cell():
    """At lam = 1e-3, dt = 1e-4 the half-line has 2.76e8 cells, whose
    weights alone would take 2.2 GB; the closed sums take none."""
    m = TruncationPolicy().n_steps(1e-3, 1e-4)
    assert m > 2.7e8
    tracemalloc.start()
    try:
        out = brownian(0.3, 1.2).sample_weighted_sum(1e-4, 1e-3, m, substream(1), 4, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.isfinite(out).all() and out.shape == (4,)


ROUTE_DRIVERS = {"gamma": gamma_subordinator(1.0, 1.0),
                "cp-exponential": compound_poisson(3.0, ExponentialJumps(1.5)),
                "cp-normal": compound_poisson(3.0, NormalJumps(0.1, 0.5)),
                "cp-point-mass": compound_poisson(2.0, PointMassJumps(-0.5)),
                "brownian": brownian(0.3, 1.2), "drift": deterministic_drift(1.0)}


@pytest.mark.parametrize("lam, dt", [(1.0, 1e-2), (0.5, 0.1), (3.0, 1e-3)])
@pytest.mark.parametrize("name", list(ROUTE_DRIVERS))
def test_hook_record_counts_the_terms_drawn(name, lam, dt, caplog):
    """One record per call, whatever the grid: gamma takes its series
    where Gamma_max < m and the dense default elsewhere (here at dt =
    0.1); the terms are what the call drew, replayed from the same seed,
    and only the gamma series neglects mass, tol * mu / lam."""
    drv, tol = ROUTE_DRIVERS[name], 1e-12
    m = TruncationPolicy(tol).n_steps(lam, dt)
    with caplog.at_level(logging.DEBUG, logger="wbou"):
        drv.sample_weighted_sum(dt, lam, m, substream(4), 3, tol)
    gen = substream(4)
    if name == "gamma":
        gmax = drv._gamma_max(dt, lam, m, tol)
        assert (gmax is None) == (dt == 0.1)
        want = ("dense", 3, 3 * m, "0") if gmax is None else (
            "series", 3, gen.poisson(gmax, 3).sum(), f"{tol * (drv.shape / drv.rate) / lam:.3g}")
    elif name.startswith("cp"):
        want = ("jumps", 3, gen.poisson(drv.intensity * dt * m, 3).sum(), "0")
    else:
        want = ("normal", 3, 3, "0")  # pure drift is Brownian at sigma^2 = 0
    assert hook_records(caplog.records) == [want]


@pytest.mark.parametrize("lam, dt", [(1.0, 1e-2), (1e-2, 1e-3), (3.0, 1e-4)])
@pytest.mark.parametrize("name", ["cp-exponential", "cp-normal", "gamma"])
def test_scatter_sums_weight_only_the_drawn_cells(name, lam, dt):
    """The scatter routes weight each drawn cell as e^{-lam dt cell}.  The
    sums equal, bit for bit, a replay of the same draws weighted from the
    whole table e^{-lam dt j}, j < m, which the routes do not build."""
    drv, tol, n_paths = ROUTE_DRIVERS[name], 1e-12, 5
    m = TruncationPolicy(tol).n_steps(lam, dt)
    got = drv.sample_weighted_sum(dt, lam, m, substream(9), n_paths, tol)
    rng = substream(9)
    gmax = drv._gamma_max(dt, lam, m, tol) if name == "gamma" else None
    counts = rng.poisson(drv.intensity * dt * m if gmax is None else gmax, n_paths)
    k = int(counts.sum())
    cells = rng.integers(0, m, k)
    if gmax is None:
        sizes = drv.jumps.sample_sum(rng, np.ones(k))
    else:
        sizes = (np.exp(-rng.uniform(0.0, gmax, k) / (drv.shape * m * dt))
                 * rng.standard_exponential(k) / drv.rate)
    table = np.exp(-lam * dt * np.arange(m))
    want = np.bincount(np.repeat(np.arange(n_paths), counts), weights=table[cells] * sizes,
                       minlength=n_paths)
    assert k > 0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["gamma", "gamma-coarse", "cp", "brownian", "drift"])
def test_untraced_hook_pays_one_level_check(name, monkeypatch):
    """Below DEBUG a hook call asks the logger once whether to report, and
    formats nothing."""
    drv = {"gamma": gamma_subordinator(1.0, 1.0), "gamma-coarse": gamma_subordinator(1.0, 1.0),
           "cp": compound_poisson(5.0, NormalJumps()), "brownian": brownian(),
           "drift": deterministic_drift(1.0)}[name]
    dt = 0.1 if name == "gamma-coarse" else 1e-3
    log = logging.getLogger("wbou")
    asked = []
    monkeypatch.setattr(log, "isEnabledFor", lambda level: asked.append(level) or False)
    monkeypatch.setattr(log, "debug", lambda *a, **k: pytest.fail("debug record formatted"))
    drv.sample_weighted_sum(dt, 1.0, TruncationPolicy().n_steps(1.0, dt), substream(1), 2, 1e-12)
    assert asked == [logging.DEBUG]


def _counting_gamma():
    sizes = []

    class CountingGamma(GammaSubordinatorDriver):
        def sample_increments(self, dt, rng, size):
            sizes.append(size)
            return super().sample_increments(dt, rng, size)

    return CountingGamma(1.0, 1.0), sizes


def test_ensembles_draw_only_the_main_window_densely():
    """Every path takes G and X^+_{t_max} from the hook; only the
    coarse-grid fallback draws both half-lines densely, inside the hook."""
    drv, sizes = _counting_gamma()
    fine, coarse = SimulationGrid(1.0, 1e-3), SimulationGrid(1.0, 0.1)
    simulate_wbou_ensemble(drv, 1.0, fine, 3, rng=substream(7))
    simulate_sv_ensemble(SvSpec(0.0, 0.0, 1.0, drv), fine, 3, rng=substream(8))
    assert sizes == [(3, fine.n), (3, fine.n)]

    sizes.clear()
    simulate_wbou_ensemble(drv, 1.0, coarse, 3, rng=substream(7))
    m = TruncationPolicy().n_steps(1.0, coarse.dt)
    assert sorted(sizes) == [(3, coarse.n), (3, m), (3, m)]

    sizes.clear()
    simulate_wbou(drv, 1.0, fine, rng=substream(9))
    assert sizes == [(1, fine.n)]

    sizes.clear()
    simulate_wbou(drv, 1.0, coarse, rng=substream(9))
    assert sorted(sizes) == [(1, coarse.n), (1, m), (1, m)]


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(DomainError):
        BrownianDriver(0.0, -1.0)
    with pytest.raises(DomainError):
        compound_poisson(-1.0, ExponentialJumps(1.0))
    with pytest.raises(DomainError):
        ExponentialJumps(0.0)
    with pytest.raises(DomainError):
        NormalJumps(0.0, 0.0)
    with pytest.raises(DomainError):
        PointMassJumps(0.0)
    with pytest.raises(DomainError):
        gamma_subordinator(-1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda x: BrownianDriver(x, 1.0),
    lambda x: BrownianDriver(0.0, x),
    lambda x: compound_poisson(x, ExponentialJumps(1.0)),
    lambda x: gamma_subordinator(x, 1.0),
    lambda x: gamma_subordinator(1.0, x),
    lambda x: deterministic_drift(x),
    lambda x: NormalJumps(x, 1.0),
    lambda x: NormalJumps(0.0, x),
    lambda x: ExponentialJumps(x),
    lambda x: PointMassJumps(x),
], ids=["brownian-gamma", "brownian-sigma2", "cpoisson-intensity", "gamma-shape",
        "gamma-rate", "drift-gamma", "normal-mean", "normal-var", "exponential-rate",
        "point-size"])
def test_constructors_reject_non_finite(make, bad):
    with pytest.raises(DomainError):
        make(bad)


@pytest.mark.parametrize("make", [
    lambda: GammaSubordinatorDriver(1e300, 1e-300),
    lambda: GammaSubordinatorDriver(1.0, 1e-200),
    lambda: compound_poisson(2.0, PointMassJumps(1e200)),
    lambda: compound_poisson(1e300, NormalJumps(1e10, 1.0)),
    lambda: compound_poisson(1.0, ExponentialJumps(1e-200)),
], ids=["gamma-mean-overflows", "gamma-variance-divisor-underflows", "cp-point-square",
        "cp-normal-product", "cp-exponential-divisor-underflows"])
def test_constructors_reject_moments_outside_the_float_range(make):
    """Finite parameters whose mean or variance of L(1) is not a float:
    each would give inf or NaN paths, or a ZeroDivisionError in the
    theory, further on."""
    with pytest.raises(DomainError, match=r"\.moments\(\) overflows"):
        make()


def test_moments_at_the_edge_of_the_float_range_are_accepted():
    assert GammaSubordinatorDriver(1e100, 1e-100).moments() == (1e200, 1e300)
    assert compound_poisson(1e300, PointMassJumps(1e-300)).moments()[0] == pytest.approx(1.0)


def test_poisson_means_above_numpys_limit_are_refused():
    """NumPy's sampler raises ValueError above its limit; the drivers
    raise DomainError naming the parameters behind the mean."""
    assert _poisson(substream(1), _POISSON_MAX, 2, "").shape == (2,)
    with pytest.raises(ValueError, match="lam value too large"):
        substream(1).poisson(np.nextafter(_POISSON_MAX, math.inf))
    drv = compound_poisson(1e300, PointMassJumps(1e-300))
    with pytest.raises(DomainError, match=r"1e\+300 at eta=1e\+300, dt=1 is above"):
        drv.sample_increments(1.0, substream(2), 3)
    with pytest.raises(DomainError, match=r"at eta=1e\+300, lam=0\.5, dt=1, m=4 is above"):
        drv.sample_weighted_sum(1.0, 0.5, 4, substream(3), 2, 1e-6)
    with pytest.raises(DomainError, match="eta=1e\\+300"):
        simulate_wbou_ensemble(drv, 1.0, SimulationGrid(1.0, 0.5), 2, rng=substream(4))

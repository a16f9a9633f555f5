"""Second-order formula checks, including Monte Carlo cross-validation."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from wbou import (
    BadLag,
    DomainError,
    InvalidLambda,
    NegativeLag,
    SecondOrderParams,
    SimulationGrid,
    acf_ou,
    acf_x,
    acov_x,
    compact_cov,
    effective_hurst,
    gamma_subordinator,
    hurst_constant,
    increment_acf,
    increment_acf_ou,
    lambda_sign_threshold,
    mean_x,
    msd,
    simulate_wbou_ensemble,
    substream,
    var_x,
)

from helpers import (corr_se, first_order_increment_acf_alt, increment_acf_acov,
                     increment_acf_alt, mean_se, sign_threshold_bisection, var_y_alt)

P1 = SecondOrderParams(1.0, mu=0.3, v=2.0)


# ---------------------------------------------------------------------------
# marginal and autocovariance formulas
# ---------------------------------------------------------------------------

def test_parameters_from_driver():
    d = gamma_subordinator(1.0, 2.0)
    p = SecondOrderParams(1.5, *d.moments())
    assert (p.lam, p.mu, p.v) == (1.5, 0.5, 0.25)


def test_parameter_validation():
    with pytest.raises(InvalidLambda):
        SecondOrderParams(0.0)
    with pytest.raises(DomainError):
        SecondOrderParams(1.0, v=0.0)
    for lam in (math.nan, math.inf):
        with pytest.raises(InvalidLambda):
            SecondOrderParams(lam)
        with pytest.raises(InvalidLambda):
            compact_cov(lam, 1.0, 0.5, 0.0)
    for mu, v in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(DomainError):
            SecondOrderParams(1.0, mu=mu, v=v)


def test_mean_and_variance():
    assert mean_x(P1) == pytest.approx(0.6)
    assert var_x(P1) == pytest.approx(2.0)
    p = SecondOrderParams(4.0, mu=1.0, v=3.0)
    assert mean_x(p) == pytest.approx(0.5)
    assert var_x(p) == pytest.approx(0.75)


def test_acf_example_value():
    # lam = 1, h = 1: (1 + 1) e^{-1}
    assert acf_x(SecondOrderParams(1.0), 1.0) == pytest.approx(2 * math.exp(-1))


def test_acov_is_variance_times_acf():
    h = np.linspace(0.0, 6.0, 25)
    assert np.allclose(acov_x(P1, h), var_x(P1) * acf_x(P1, h), rtol=1e-14)


def test_acf_at_zero_and_limits():
    assert acf_x(P1, 0.0) == 1.0
    assert acf_ou(P1, 0.0) == 1.0
    assert acf_x(P1, 50.0) == pytest.approx(0.0, abs=1e-18)


def test_two_sided_acf_dominates_one_sided():
    h = np.linspace(0.01, 10.0, 100)
    for lam in (0.3, 1.0, 4.0):
        p = SecondOrderParams(lam)
        assert np.all(acf_x(p, h) > acf_ou(p, h))


def test_msd_identity():
    """E(X_{t+h} - X_t)^2 = 2 (var - acov(h)), all h."""
    h = np.linspace(0.0, 8.0, 33)
    want = 2.0 * (var_x(P1) - acov_x(P1, h))
    assert np.allclose(msd(P1, h), want, rtol=1e-13)
    assert msd(P1, 0.0) == 0.0


def test_msd_saturates_at_twice_variance():
    assert msd(P1, 60.0) == pytest.approx(2 * var_x(P1))


def test_negative_lag_rejected():
    with pytest.raises(NegativeLag):
        acf_x(P1, -0.5)
    with pytest.raises(NegativeLag):
        msd(P1, np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# increment autocorrelations
# ---------------------------------------------------------------------------

def test_increment_acf_routes_agree():
    """Covariance identity and bracket expansion match to fp accuracy."""
    k = np.arange(1, 41)
    for lam in (0.3, 1.0, 1.2564312086, 4.0):
        p = SecondOrderParams(lam)
        gap = np.abs(increment_acf(p, k) - increment_acf_alt(p, k))
        assert gap.max() <= 1e-10


def test_first_order_alt_matches_k_equals_one():
    for lam in (0.5, 1.0, 2.0):
        p = SecondOrderParams(lam)
        assert first_order_increment_acf_alt(p) == pytest.approx(
            increment_acf_alt(p, 1), rel=1e-12)


def test_increment_acf_ou_closed_form_matches_covariance_route():
    k = np.arange(1, 30)
    for lam in (0.4, 1.0, 3.0):
        num = (2 * np.exp(-lam * k) - np.exp(-lam * (k + 1))
               - np.exp(-lam * (k - 1)))
        want = num / (2 * (1 - np.exp(-lam)))
        got = increment_acf_ou(SecondOrderParams(lam), k)
        assert np.allclose(got, want, rtol=1e-12)


def test_increment_acf_ranges():
    ks = np.arange(1, 60)
    for lam in np.geomspace(0.05, 20.0, 40):
        vals = increment_acf(SecondOrderParams(lam), ks)
        assert np.all(vals > -0.5) and np.all(vals < 1.0)
        vo = increment_acf_ou(SecondOrderParams(lam), ks)
        # e^{-lam k} underflows to -0.0 for the largest lam*k, hence <=
        assert np.all(vo > -0.5) and np.all(vo <= 0.0) and vo[0] < 0.0


def test_increment_lag_validation():
    for k in (0, 1.5, np.array(0), np.array([1, 2.5]), np.array([3, -1])):
        with pytest.raises(BadLag):
            increment_acf(P1, k)
    with pytest.raises(BadLag):
        increment_acf_ou(P1, -3)


@pytest.mark.parametrize("lam", [800.0, 1e-8, 1e-300])
def test_increment_acf_ou_matches_mpmath_at_extreme_rates(lam):
    """(1/2) expm1(-lam) e^{-lam (k-1)} forms no e^{lam}, so it stays
    finite at 800, and keeps its digits where 1 - e^{-lam} cancels."""
    ks = [1, 2, 3, 10]
    got = increment_acf_ou(SecondOrderParams(lam), ks)
    with mpmath.workdps(40):
        want = [float(mpmath.expm1(-lam) * mpmath.exp(-lam * (k - 1)) / 2) for k in ks]
    assert np.all(np.isfinite(got))
    assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("lam", [1e-8, 1e-9, 1e-300])
@pytest.mark.parametrize("k", [1, [1, 2, 3]])
def test_increment_acf_refuses_a_cancelled_denominator(lam, k):
    # acov(0) - acov(1) cancels to 0: inf or NaN before the check
    with pytest.raises(DomainError, match="cancels to 0.0"):
        increment_acf(SecondOrderParams(lam), k)


def test_increment_acfs_at_a_large_rate_stay_finite():
    # the limit lam -> inf: lag 1 at -1/2, every later lag at 0; OU lag 2
    # at 700 is -e^{-700}/2 = -4.9e-305, still a normal float
    assert increment_acf(SecondOrderParams(800.0), [1, 2]).tolist() == [-0.5, 0.0]
    assert increment_acf_ou(SecondOrderParams(700.0), [1, 2]).tolist() == [
        -0.5, -0.5 * math.exp(-700.0)]


BITWISE_LAMS = (1e-3, 0.05, 0.8, 1.2564, 3.0, 40.0)
LAGS = (1, 7, np.int64(3), 2.0, np.float64(4.0), np.array(5), np.arange(1, 41),
        np.array([[1.0, 2.0], [9.0, 3.0]]), [1, 2, 3])


@pytest.mark.parametrize("lam", BITWISE_LAMS)
@pytest.mark.parametrize("mu, v", [(0.0, 1.0), (0.3, 2.0), (-1.5, 0.25), (4.0, 1e-3)])
def test_increment_acf_is_bitwise_the_acov_route(lam, mu, v):
    p = SecondOrderParams(lam, mu=mu, v=v)
    for k in LAGS:
        got, want = increment_acf(p, k), increment_acf_acov(p, k)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        if np.ndim(k) == 0:
            assert type(got) is float


class TestSignThreshold:
    def test_is_the_bisection_on_increment_acf(self):
        """The closed-form numerator takes bitwise the steps of the
        bisection on increment_acf(., 1), by either route."""
        star = lambda_sign_threshold()
        assert star == 1.2564312079921365
        assert star == sign_threshold_bisection(
            lambda lam: increment_acf(SecondOrderParams(lam), 1))
        assert star == sign_threshold_bisection(
            lambda lam: increment_acf_acov(SecondOrderParams(lam), 1))

    def test_value(self):
        assert lambda_sign_threshold() == pytest.approx(1.25643120862617,
                                                        abs=2e-8)

    def test_sign_flip_around_threshold(self):
        star = lambda_sign_threshold()
        assert increment_acf(SecondOrderParams(star - 0.1), 1) > 0
        assert increment_acf(SecondOrderParams(star + 0.1), 1) < 0
        assert abs(increment_acf(SecondOrderParams(star), 1)) < 1e-7

    def test_root_is_unique_on_a_wide_scan(self):
        lams = np.arange(0.05, 10.0, 0.01)
        vals = np.array([increment_acf(SecondOrderParams(l), 1) for l in lams])
        flips = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert flips == 1


# ---------------------------------------------------------------------------
# zero-start variant
# ---------------------------------------------------------------------------

def test_zero_start_moments():
    """Y_t = X_t - X_0, the expression path.x - path.x[0], has mean 0 and
    variance msd(p, t)."""
    lam, t = 1.0, 1.0
    ens = simulate_wbou_ensemble(DRIVER, lam, SimulationGrid(t, 0.25), 5000,
                                 rng=substream(403))
    y = ens.x[:, -1] - ens.x[:, 0]
    dev2 = (y - y.mean()) ** 2
    assert abs(y.mean()) < 4 * mean_se(y)
    assert abs(dev2.mean() - msd(SecondOrderParams(lam, *DRIVER.moments()), t)) < 4 * mean_se(dev2)


def test_zero_start_alt_is_the_autocovariance():
    """The audit variant equals Cov(X_t, X_0); it even disagrees at t=0."""
    t = np.linspace(0.0, 5.0, 21)
    assert np.allclose(var_y_alt(P1, t), acov_x(P1, t), rtol=0, atol=0)
    assert var_y_alt(P1, 0.0) == var_x(P1) != msd(P1, 0.0)
    assert not np.any(np.isclose(var_y_alt(P1, t), msd(P1, t)))


# ---------------------------------------------------------------------------
# compact window covariance
# ---------------------------------------------------------------------------

def test_compact_cov_against_overlap_integral():
    lam, a = 1.3, 0.8
    for t, s in [(2.0, 2.0), (2.3, 2.0), (2.79, 2.0)]:
        want = quad(lambda u: math.exp(-lam * (t - u)) * math.exp(-lam * (s - u)),
                    t - a, s, epsabs=1e-13, epsrel=1e-13)[0]
        assert compact_cov(lam, a, t, s) == pytest.approx(want, rel=1e-12)


def test_compact_cov_edges():
    lam, a = 1.0, 0.5
    assert compact_cov(lam, a, 1.0, 1.0) == pytest.approx(
        (1 - math.exp(-2 * lam * a)) / (2 * lam))
    assert compact_cov(lam, a, 1.5, 1.0) == 0.0
    assert compact_cov(lam, a, 1.0 + a, 1.0) == pytest.approx(0.0, abs=1e-15)
    # symmetric in its time arguments
    assert compact_cov(lam, a, 1.0, 1.2) == compact_cov(lam, a, 1.2, 1.0)


def test_compact_cov_wide_window_limit():
    # a -> inf recovers the one-sided-kernel autocovariance e^{-lam g}/(2 lam)
    lam, g = 0.7, 0.4
    got = compact_cov(lam, 1e6, 10.0 + g, 10.0)
    assert got == pytest.approx(math.exp(-lam * g) / (2 * lam), rel=1e-12)


def test_compact_cov_validation():
    with pytest.raises(InvalidLambda):
        compact_cov(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        compact_cov(1.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# effective Hurst correspondence
# ---------------------------------------------------------------------------

def test_hurst_constant_anchors():
    assert hurst_constant(0.5) == 0.0
    assert hurst_constant(1.0) == 1.0
    assert hurst_constant(0.25) == pytest.approx(2 ** -0.5 - 1)


def test_hurst_round_trip():
    for h_exp in np.linspace(0.05, 1.0, 20):
        assert effective_hurst(hurst_constant(h_exp)) == pytest.approx(
            h_exp, abs=1e-12)


def test_hurst_domains():
    with pytest.raises(DomainError):
        hurst_constant(0.0)
    with pytest.raises(DomainError):
        effective_hurst(-0.5)
    with pytest.raises(DomainError):
        effective_hurst(1.5)


# ---------------------------------------------------------------------------
# Monte Carlo cross-validation of the formulas
# ---------------------------------------------------------------------------

DRIVER = gamma_subordinator(1.0, 1.0)


@pytest.mark.parametrize("lam,h", [(0.5, 1.0), (3.0, 0.5)])
def test_acf_matches_simulation(lam, h):
    grid = SimulationGrid(2.0, 0.05)
    ens = simulate_wbou_ensemble(DRIVER, lam, grid, 3000,
                                 rng=substream(400, int(lam * 10)))
    k = round(h / grid.dt)
    a, b = ens.x[:, k], ens.x[:, 0]
    r = np.corrcoef(a, b)[0, 1]
    p = SecondOrderParams(lam, *DRIVER.moments())
    assert abs(r - acf_x(p, h)) < 4 * corr_se(a, b)


def test_increment_acf_matches_simulation():
    lam = 1.0
    grid = SimulationGrid(2.0, 0.25)
    ens = simulate_wbou_ensemble(DRIVER, lam, grid, 6000, rng=substream(401))
    per_unit = round(1.0 / grid.dt)
    first = ens.x[:, per_unit] - ens.x[:, 0]
    second = ens.x[:, 2 * per_unit] - ens.x[:, per_unit]
    r = np.corrcoef(second, first)[0, 1]
    p = SecondOrderParams(lam, *DRIVER.moments())
    assert abs(r - increment_acf(p, 1)) < 4 * corr_se(second, first)


def test_msd_matches_simulation():
    lam, h = 1.0, 0.75
    grid = SimulationGrid(1.0, 0.25)
    ens = simulate_wbou_ensemble(DRIVER, lam, grid, 5000, rng=substream(402))
    k = round(h / grid.dt)
    sq = (ens.x[:, k] - ens.x[:, 0]) ** 2
    p = SecondOrderParams(lam, *DRIVER.moments())
    assert abs(sq.mean() - msd(p, h)) < 4 * mean_se(sq)

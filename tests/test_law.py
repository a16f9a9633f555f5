"""Stationary-law checks: triplet mapping, CFs, cumulant transform."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from wbou import (
    DimensionMismatch,
    DomainError,
    ExponentialJumps,
    NormalJumps,
    NotASubordinator,
    PointMassJumps,
    brownian,
    char_fn_joint,
    char_fn_x,
    compound_poisson,
    deterministic_drift,
    existence_check,
    g_from_gbar,
    gamma_subordinator,
    gbar_from_g,
    kbar,
    simulate_wbou_ensemble,
    SimulationGrid,
    substream,
    triplet_of_x,
)

from helpers import cf_from_triplet, ecf, fd_derivative, gamma_x_oracle, phi_x_oracle

GAMMA = gamma_subordinator(1.2, 0.8)
CPEXP = compound_poisson(4.0, ExponentialJumps(2.0))
CPNORM = compound_poisson(2.0, NormalJumps(0.3, 0.8))


# ---------------------------------------------------------------------------
# existence
# ---------------------------------------------------------------------------

def test_existence_check():
    assert existence_check(GAMMA, 1.0)
    res = existence_check(GAMMA, 0.0)
    assert not res
    assert "lambda" in res.reason
    assert existence_check(brownian(), 2.5)


# ---------------------------------------------------------------------------
# the characteristic triplet of the marginal
# ---------------------------------------------------------------------------

def test_brownian_triplet_closed_form():
    trip = triplet_of_x(brownian(0.7, 2.0), 4.0)
    assert trip.gamma == pytest.approx(2 * 0.7 / 4.0)
    assert trip.sigma2 == pytest.approx(2.0 / 4.0)
    assert trip.measure.is_zero


@pytest.mark.parametrize("driver", [
    GAMMA, CPEXP, CPNORM,
    compound_poisson(1.5, PointMassJumps(2.0)),
    compound_poisson(1.5, PointMassJumps(0.5)),   # jumps inside the unit ball
])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_location_parameter_matches_time_change_quadrature(driver, lam):
    got = triplet_of_x(driver, lam).gamma
    assert got == pytest.approx(gamma_x_oracle(driver.triplet, lam), abs=1e-8)


def test_gaussian_part_scales_exactly():
    for lam in (0.5, 1.0, 2.0):
        assert triplet_of_x(brownian(0.0, 3.0), lam).sigma2 == 3.0 / lam
        assert triplet_of_x(GAMMA, lam).sigma2 == 0.0


def test_point_mass_tail_has_log_weight():
    # one atom at e: tail at 1 is (2/lam) * eta * ln(e/1) = 2 eta / lam
    d = compound_poisson(1.0, PointMassJumps(math.e))
    for lam in (0.5, 1.0, 2.0):
        meas = triplet_of_x(d, lam).measure
        assert meas.tail_pos(1.0) == pytest.approx(2.0 / lam, rel=1e-12)


@pytest.mark.parametrize("driver", [GAMMA, CPEXP])
@pytest.mark.parametrize("y", [0.3, 1.0, 2.0])
def test_mapped_tail_matches_fubini_oracle(driver, y):
    lam = 1.7
    meas = triplet_of_x(driver, lam).measure
    assert meas.tail_pos(y) == pytest.approx(
        phi_x_oracle(driver.measure, y, lam), rel=1e-8)


def test_mapped_density_integrates_to_tail():
    """int_y^inf of the mapped density equals the closed log-weighted tail."""
    lam = 1.0
    meas = triplet_of_x(GAMMA, lam).measure
    for y in (0.5, 1.5):
        direct = quad(meas.density, y, np.inf, epsabs=1e-12, epsrel=1e-12,
                      limit=300)[0]
        assert direct == pytest.approx(meas.tail_pos(y), rel=1e-8)


def test_mapped_negative_tail():
    d = compound_poisson(1.0, PointMassJumps(-2.0))
    meas = triplet_of_x(d, 1.0).measure
    assert meas.tail_neg(1.0) == pytest.approx(2.0 * math.log(2.0))
    assert meas.tail_pos(0.5) == 0.0


@pytest.mark.parametrize("driver", [GAMMA, CPEXP, CPNORM])
def test_mapped_second_moment_scales_by_lambda(driver):
    lam = 2.4
    m2_driver = driver.measure.second_moment()
    m2_mapped = triplet_of_x(driver, lam).measure.second_moment()
    assert m2_mapped == pytest.approx(m2_driver / lam, rel=1e-8)


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_cf_at_zero_is_one():
    assert char_fn_x(GAMMA, 1.0, 0.0) == 1.0 + 0.0j


def test_cf_brownian_closed_form():
    gam, s2, lam = 0.4, 1.3, 2.0
    d = brownian(gam, s2)
    for u in (-2.0, 0.5, 3.0):
        want = np.exp(2j * u * gam / lam - s2 * u * u / (2 * lam))
        assert char_fn_x(d, lam, u) == pytest.approx(want, rel=1e-10)


def test_cf_basic_properties():
    u = np.linspace(-6.0, 6.0, 25)
    vals = char_fn_x(CPEXP, 0.8, u)
    assert vals.shape == u.shape
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert np.allclose(vals[::-1], np.conj(vals), rtol=1e-10)


@pytest.mark.parametrize("driver", [GAMMA, CPEXP, CPNORM])
@pytest.mark.parametrize("u", [0.5, 1.0, 3.0, -2.0])
def test_cf_agrees_with_triplet_reconstruction(driver, u):
    """Kernel-quadrature CF == triplet plugged into the canonical form."""
    lam = 1.0
    got = char_fn_x(driver, lam, u)
    want = cf_from_triplet(triplet_of_x(driver, lam), u)
    assert got == pytest.approx(want, abs=1e-6)


def test_time_scaled_cf_is_lambda_free():
    u = 1.7
    a = char_fn_x(GAMMA, 0.5, u, time_scaled=True)
    b = char_fn_x(GAMMA, 2.0, u, time_scaled=True)
    assert a == pytest.approx(b, rel=1e-12)
    # and it matches the unscaled CF at lam = 1
    assert a == pytest.approx(char_fn_x(GAMMA, 1.0, u), rel=1e-12)


def test_cf_against_simulated_marginal():
    grid = SimulationGrid(0.1, 0.1)
    ens = simulate_wbou_ensemble(GAMMA, 1.0, grid, 20_000, rng=substream(71))
    x0 = ens.x[:, 0]
    for u in (0.5, 1.5, 3.0):
        assert abs(char_fn_x(GAMMA, 1.0, u) - complex(ecf(x0, u))) < 0.02


class TestJointCf:
    def test_single_point_reduces_to_marginal(self):
        for u in (0.5, -1.2):
            got = char_fn_joint(CPEXP, 1.3, [0.0], [u])
            assert got == pytest.approx(char_fn_x(CPEXP, 1.3, u), rel=1e-8)

    def test_stationarity_shift(self):
        a = char_fn_joint(GAMMA, 1.0, [0.0, 1.0], [0.7, -0.4])
        b = char_fn_joint(GAMMA, 1.0, [5.0, 6.0], [0.7, -0.4])
        assert a == pytest.approx(b, rel=1e-9)

    def test_zero_frequencies(self):
        assert char_fn_joint(GAMMA, 1.0, [0.0, 1.0], [0.0, 0.0]) == 1.0 + 0.0j

    def test_distant_times_factorize(self):
        lam, u1, u2 = 1.0, 0.8, -0.5
        joint = char_fn_joint(GAMMA, lam, [0.0, 40.0], [u1, u2])
        prod = char_fn_x(GAMMA, lam, u1) * char_fn_x(GAMMA, lam, u2)
        assert joint == pytest.approx(prod, rel=1e-8)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            char_fn_joint(GAMMA, 1.0, [0.0, 1.0], [0.5])
        with pytest.raises(DomainError):
            char_fn_joint(GAMMA, 1.0, [1.0, 0.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# cumulant transform of the marginal (time-scaled)
# ---------------------------------------------------------------------------

def test_kbar_at_zero():
    assert kbar(GAMMA, 0.0) == 0.0


def test_kbar_gamma_dilogarithm():
    """For the gamma subordinator the transform is 2a * Li-based."""
    a, b = 1.2, 0.8
    d = gamma_subordinator(a, b)
    for theta in (0.3, 1.0, 4.0, -0.3):
        want = 2.0 * a * special.spence(1.0 + theta / b)
        assert kbar(d, theta) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_kbar_exponential_jumps_closed_form():
    # k(v)/v = -eta/(rho+v), so the transform is -2 eta log(1 + theta/rho)
    eta, rho = 4.0, 2.0
    d = compound_poisson(eta, ExponentialJumps(rho))
    for theta in (0.5, 2.0, -1.0):
        assert kbar(d, theta) == pytest.approx(
            -2.0 * eta * math.log1p(theta / rho), rel=1e-10)


def test_kbar_drift_linear():
    assert kbar(deterministic_drift(1.5), 2.0) == pytest.approx(-6.0, rel=1e-12)


def test_kbar_rejects_two_sided_drivers():
    with pytest.raises(NotASubordinator):
        kbar(brownian(), 1.0)
    with pytest.raises(NotASubordinator):
        kbar(CPNORM, 1.0)


def test_kbar_matches_marginal_laplace_curvature():
    """Second derivative at 0 is the marginal variance (time-scaled)."""
    _, v = GAMMA.moments()
    d2 = fd_derivative(lambda t: kbar(GAMMA, t), 0.0, 2, h=0.05)
    assert d2 == pytest.approx(v, rel=1e-6)


# ---------------------------------------------------------------------------
# Levy-density relation between driver and marginal
# ---------------------------------------------------------------------------

def g_gamma(x):
    return 1.2 * math.exp(-0.8 * x) / x if x > 0 else 0.0


def test_gbar_closed_form():
    # 2 int_1^inf g(xy) dx = (2/y) int_y^inf g = (2 a / y) E1(b y)
    for y in (0.5, 1.0, 2.0):
        want = 2.0 * 1.2 * special.exp1(0.8 * y) / y
        assert gbar_from_g(g_gamma, y) == pytest.approx(want, rel=1e-10)


def test_g_round_trip():
    """Recover the driver density from the marginal one by differentiation."""
    def gb(y):
        return gbar_from_g(g_gamma, y)

    for y in (0.5, 1.0, 2.0):
        gb_prime = fd_derivative(gb, y, 1, h=min(0.05, y / 4))
        got = g_from_gbar(gb, lambda _: gb_prime, y)
        assert got == pytest.approx(g_gamma(y), rel=1e-6)


def test_gbar_domain():
    with pytest.raises(DomainError):
        gbar_from_g(g_gamma, 0.0)
    with pytest.raises(DomainError):
        g_from_gbar(lambda y: 0.0, lambda y: 0.0, -1.0)

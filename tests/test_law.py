"""Stationary-law checks: triplet mapping, CFs, cumulant transform."""

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import IntegrationWarning, quad

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
    g_from_gbar,
    gamma_subordinator,
    gbar_from_g,
    InvalidLambda,
    kbar,
    simulate_wbou_ensemble,
    SimulationGrid,
    substream,
    triplet_of_x,
    WbouError,
)

from wbou.drivers import DriverSpec, LevyMeasure, LevyTriplet, _gamma_log_tail

from helpers import (
    cf_brownian_oracle,
    cf_cp_exp_oracle,
    cf_exponent_quad,
    cf_from_triplet,
    cf_gamma_oracle,
    ecf,
    fd_derivative,
    gamma_x_oracle,
    joint_cf_brownian_oracle,
    measure_moment_quad,
    phi_x_oracle,
)

GAMMA = gamma_subordinator(1.2, 0.8)
CPEXP = compound_poisson(4.0, ExponentialJumps(2.0))
CPNORM = compound_poisson(2.0, NormalJumps(0.3, 0.8))


# ---------------------------------------------------------------------------
# existence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("driver", [
    GAMMA, CPEXP, CPNORM, compound_poisson(2.0, PointMassJumps(-0.5)), brownian(0.3, 1.2),
    deterministic_drift(-1.0)], ids=["gamma", "cp-exponential", "cp-normal", "cp-point-mass",
                                     "brownian", "drift"])
def test_existence_turns_on_lambda_alone(driver):
    """Every driver family has finite variance, hence a finite log-moment:
    the process exists at every finite lam > 0 and at no other lam."""
    for lam in (1e-6, 1.0, 1e6):
        assert triplet_of_x(driver, lam).sigma2 == driver.triplet.sigma2 / lam
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidLambda, match="lambda"):
            triplet_of_x(driver, lam)


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
    compound_poisson(1.5, PointMassJumps(1.0)),   # jumps on the unit sphere
    compound_poisson(1.5, PointMassJumps(-1.0)),
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
        phi_x_oracle(driver.triplet.measure, y, lam), rel=1e-8)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


#: below this the closed tails may have passed through subnormal numbers
_UNDERFLOW = 1e-290


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(["gamma", "cp-exponential"]), y=_log_uniform(1e-8, 300.0),
       a=_log_uniform(0.1, 10.0), b=_log_uniform(0.1, 10.0), lam=_log_uniform(0.1, 10.0))
@example(family="gamma", y=10.0, a=1.5, b=2.0, lam=0.8)
@example(family="gamma", y=20.0, a=1.5, b=2.0, lam=0.8)
@example(family="gamma", y=30.0, a=1.5, b=2.0, lam=0.8)
@example(family="gamma", y=1.0, a=1.0, b=2.0, lam=1.0)        # F at z = 2
@example(family="gamma", y=150.0, a=1.0, b=2.0, lam=1.0)      # z = 300
@example(family="gamma", y=300.0, a=10.0, b=10.0, lam=0.1)    # underflows
@example(family="cp-exponential", y=10.0, a=3.0, b=1.5, lam=0.8)
@example(family="cp-exponential", y=300.0, a=1.0, b=2.0, lam=1.0)
def test_closed_tails_match_mpmath(family, y, a, b, lam):
    """The gamma tail (2a/lam) G^{3,0}_{2,3}(b y | 1, 1; 0, 0, 0) and the
    exponential-jump tail (2 eta/lam) E1(r y), with (a, b) as the shape
    and rate or as eta and r, within 1e-13 of 30-digit values."""
    mpmath = pytest.importorskip("mpmath")
    if family == "gamma":
        driver = gamma_subordinator(a, b)
        if b * y > 700.0:
            # meijerg takes seconds out here; F(z) <= e^{-z}/z^2 underflows
            want = 2.0 * a / lam * math.exp(-b * y) / (b * y) ** 2
        else:
            with mpmath.workdps(30):
                want = 2 * a / mpmath.mpf(lam) * mpmath.meijerg([[], [1, 1]], [[0, 0, 0], []],
                                                                b * y)
    else:
        driver = compound_poisson(a, ExponentialJumps(b))
        with mpmath.workdps(30):
            want = 2 * a / mpmath.mpf(lam) * mpmath.e1(b * y)
    got = triplet_of_x(driver, lam).measure.tail_pos(y)
    if want > _UNDERFLOW:
        assert abs(got / want - 1) <= 1e-13
    else:
        assert 0.0 <= got <= 2 * _UNDERFLOW


def test_gamma_log_tail_branches_meet_at_two():
    """The series (z <= 2) and the Gauss-Laguerre sum (z > 2) agree where
    they meet; F changes by 1e-15 relative over the one ulp between."""
    series, laguerre = _gamma_log_tail(2.0), _gamma_log_tail(math.nextafter(2.0, 3.0))
    assert abs(laguerre / series - 1) <= 1e-14


@pytest.mark.parametrize("driver", [gamma_subordinator(1.0, 0.01),
                                    compound_poisson(1.0, ExponentialJumps(0.01))])
def test_closed_tails_where_the_rate_times_y_underflows(driver):
    """At y = 5e-324 the argument r y is 0: both closed tails give E1(0)'s
    inf, where 1e-320 still gives a finite value."""
    meas = triplet_of_x(driver, 1.0).measure
    assert math.isfinite(meas.tail_pos(1e-320))
    assert meas.tail_pos(5e-324) == math.inf


def test_normal_jump_far_tail_meets_a_relative_tolerance():
    """The quad branch resolves the far tail to its own size: eta = 2,
    N(0.5, 1), lam = 0.8 at y = 10, against a 30-digit quadrature."""
    mpmath = pytest.importorskip("mpmath")
    y, lam = 10.0, 0.8
    with mpmath.workdps(30):
        f = lambda x: mpmath.log(x / y) * 2 * mpmath.npdf(x, 0.5, 1)
        want = 2 / mpmath.mpf(lam) * mpmath.quad(f, [y, y + 1, y + 4, mpmath.inf])
    got = triplet_of_x(compound_poisson(2.0, NormalJumps(0.5, 1.0)), lam).measure.tail_pos(y)
    assert abs(got / want - 1) <= 1e-10


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
    m2_driver = measure_moment_quad(driver.triplet.measure, 2, (0.0, np.inf))
    m2_mapped = measure_moment_quad(triplet_of_x(driver, lam).measure, 2, (0.0, np.inf))
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
    """The driver run at rate lam (gamma shape a lam) gives the marginal
    law of lam = 1, so the time-scaled CF is char_fn_x(driver, 1.0, u)."""
    u = 1.7
    for lam in (0.5, 2.0):
        at_rate = gamma_subordinator(GAMMA.shape * lam, GAMMA.rate)
        assert char_fn_x(at_rate, lam, u) == pytest.approx(char_fn_x(GAMMA, 1.0, u), rel=1e-12)


def test_cf_against_simulated_marginal():
    grid = SimulationGrid(0.1, 0.1)
    ens = simulate_wbou_ensemble(GAMMA, 1.0, grid, 20_000, rng=substream(71))
    x0 = ens.x[:, 0]
    for u in (0.5, 1.5, 3.0):
        assert abs(char_fn_x(GAMMA, 1.0, u) - complex(ecf(x0, u))) < 0.02


ORACLE_LAMS = [1e-3, 0.05, 0.8, 5.0]
U_GRID = np.r_[-np.geomspace(1e-3, 200.0, 30), 0.0, np.geomspace(1e-3, 200.0, 30),
               np.linspace(-200.0, 200.0, 41)]


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("driver, oracle", [
    (GAMMA, lambda lam, u: cf_gamma_oracle(1.2, 0.8, lam, u)),
    (CPEXP, lambda lam, u: cf_cp_exp_oracle(4.0, 2.0, lam, u)),
    (brownian(0.4, 1.3), lambda lam, u: cf_brownian_oracle(0.4, 1.3, lam, u)),
], ids=["gamma", "cp-exp", "brownian"])
def test_cf_matches_closed_form(driver, oracle, lam):
    err = np.abs(char_fn_x(driver, lam, U_GRID) - oracle(lam, U_GRID))
    assert err.max() <= 1e-12


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("driver", [CPNORM, compound_poisson(1.5, PointMassJumps(-1.3))],
                         ids=["cp-normal", "cp-point-mass"])
def test_cf_matches_quad_exponent(driver, lam):
    u = np.array([-200.0, -7.5, -0.3, -1e-3, 0.02, 1.0, 40.0, 200.0])
    want = np.exp([cf_exponent_quad(driver, lam, v) for v in u])
    assert np.abs(char_fn_x(driver, lam, u) - want).max() <= 1e-12


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("scale", [1e-3, 0.05, 1.0, 20.0])
def test_joint_cf_matches_gaussian_closed_form(lam, scale):
    """The oracle is the whole-line Gaussian law: nothing is truncated."""
    times, us = [0.0, 0.7, 2.0], scale * np.array([0.5, -1.0, 0.8])
    want = joint_cf_brownian_oracle(0.4, 1.3, lam, times, us)
    assert abs(char_fn_joint(brownian(0.4, 1.3), lam, times, us) - want) <= 1e-12


@pytest.mark.parametrize("times, us", [
    ([0.0], [0.9]),                                  # no window, two half-lines
    ([0.0, 1.0], [1.0, -2.0]),                       # c_L = 1 - 2 e^{-ln 2} = 0
    ([0.0, 0.1, 0.15, 1.9, 4.0], [0.3, -0.7, 1.1, 0.2, -0.4]),
])
def test_joint_cf_whole_line_edge_cases(times, us):
    lam = math.log(2.0)
    want = joint_cf_brownian_oracle(0.4, 1.3, lam, times, us)
    assert abs(char_fn_joint(brownian(0.4, 1.3), lam, times, us) - want) <= 1e-12


def test_cf_keeps_the_shape_of_u():
    u = np.array([[0.5, -1.0, 0.0], [2.0, 3.5, -0.25]])
    flat = char_fn_x(GAMMA, 0.9, u.ravel())
    grid = char_fn_x(GAMMA, 0.9, u)
    assert grid.shape == (2, 3)
    assert np.array_equal(grid.ravel(), flat)
    scalar = char_fn_x(GAMMA, 0.9, np.float64(2.0))
    assert type(scalar) is complex and scalar == flat[3]
    assert type(char_fn_x(GAMMA, 0.9, np.array(2.0))) is complex
    assert char_fn_x(GAMMA, 0.9, np.zeros((0, 2))).shape == (0, 2)


def test_cf_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="wbou"):
        char_fn_x(GAMMA, 1.0, [0.5, 2.0])
        char_fn_joint(GAMMA, 1.0, [0.0, 1.0], [0.7, -0.4])
    msgs = [r.getMessage() for r in caplog.records]
    assert len(msgs) == 2
    assert msgs[0].startswith("char_fn_x: 2 integrals")
    # the two outer half-lines and the window between the times
    assert msgs[1].startswith("char_fn_joint: 3 integrals")
    assert all("largest error estimate" in m for m in msgs)


def test_cf_piece_cap_logs_a_warning(caplog):
    """About 10^5 oscillations of psi(v)/v cannot be resolved in 300 pieces."""
    driver = compound_poisson(1.0, PointMassJumps(1.0))
    with caplog.at_level(logging.WARNING, logger="wbou"), warnings.catch_warnings():
        warnings.simplefilter("error")
        val = char_fn_x(driver, 1.0, [1.0, 1e6])
    assert np.all(np.isfinite(val))
    assert val[0] == pytest.approx(np.exp(cf_exponent_quad(driver, 1.0, 1.0)), abs=1e-12)
    [rec] = caplog.records
    assert rec.levelno == logging.WARNING
    assert "1 of 2 integrals hit the 300-piece cap" in rec.getMessage()


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
def test_cf_rejects_non_finite_u(u):
    with pytest.raises(DomainError):
        char_fn_x(GAMMA, 1.0, u)


@pytest.mark.parametrize("times, us", [
    ([0.0, math.nan], [0.5, 0.5]),
    ([0.0, math.inf], [0.5, 0.5]),
    ([0.0, 1.0], [0.5, math.nan]),
    ([0.0, 1.0], [-math.inf, 0.5]),
])
def test_joint_cf_rejects_non_finite_inputs(times, us):
    with pytest.raises(DomainError):
        char_fn_joint(GAMMA, 1.0, times, us)


@pytest.mark.parametrize("call", [
    lambda: char_fn_x(brownian(0.0, 1.0), 1.0, 1e200),
    lambda: char_fn_x(brownian(0.0, 1.0), 1.0, [0.5, -1e200]),
    lambda: char_fn_x(compound_poisson(1.0, NormalJumps(0.0, 1.0)), 1.0, 1e200),
    lambda: char_fn_joint(brownian(0.0, 1.0), 1.0, [0.0, 1.0], [1e200, 0.5]),
], ids=["brownian", "brownian-array", "cp-normal", "joint"])
def test_cf_whose_exponent_overflows_raises_domain_error(call):
    """A finite u so large that psi's u^2 overflows raises DomainError
    naming the exponent and its inputs, not a NumPy warning or NaN."""
    with pytest.raises(DomainError, match="exponent.*overflows the float range"):
        call()


def test_cf_rejects_infinite_lambda():
    with pytest.raises(InvalidLambda):
        triplet_of_x(GAMMA, math.inf)
    with pytest.raises(WbouError):
        char_fn_x(GAMMA, math.inf, 1.0)


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
    assert kbar(brownian(1.5, 0.0), 2.0) == kbar(deterministic_drift(1.5), 2.0)
    for driver in (brownian(1.5, 0.5), brownian(-1.5, 0.0)):
        with pytest.raises(NotASubordinator):
            kbar(driver, 2.0)


def test_tails_and_kbar_log_their_quad_error(caplog):
    """Normal jumps integrate their tails by quad; the gamma and
    exponential-jump tails are closed forms, with nothing to log."""
    tails = triplet_of_x(CPNORM, 1.0).measure
    with caplog.at_level(logging.DEBUG, logger="wbou"):
        triplet_of_x(GAMMA, 1.0).measure.tail_pos(0.5)
        triplet_of_x(CPEXP, 1.0).measure.tail_pos(0.5)
        tails.tail_pos(0.5)
        tails.tail_neg(0.5)
        kbar(GAMMA, 1.0)
        kbar(GAMMA, 0.0)           # nothing to integrate, nothing logged
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 3
    msgs = [r.getMessage() for r in caplog.records]
    assert msgs[0].startswith("tail_pos: quad over [0.5, inf]")
    assert msgs[1].startswith("tail_neg: quad over [-inf, -0.5]")
    assert msgs[2].startswith("kbar: quad over [0, 1]")
    assert all("error estimate" in m for m in msgs)


class _WigglyDriver(DriverSpec):
    """Jump density 1 + sin(1e5 x) on (0, 1): too many oscillations for
    quad's 300 subintervals."""

    @property
    def triplet(self):
        return LevyTriplet(0.0, 0.0, LevyMeasure(
            density=lambda x: 1.0 + math.sin(1e5 * x), support=(0.0, 1.0),
            tail_pos_closed=lambda y: (1.0 - y) + (math.cos(1e5 * y) - math.cos(1e5)) / 1e5
            if y < 1.0 else 0.0,
            tail_neg_closed=lambda y: 0.0))


def test_tail_quad_error_above_tolerance_logs_a_warning(caplog):
    tails = triplet_of_x(_WigglyDriver(), 1.0).measure
    with caplog.at_level(logging.WARNING, logger="wbou"), pytest.warns(IntegrationWarning):
        val = tails.tail_pos(0.5)
    # the value is still returned, (2/lam)(ln 2 - 1/2) up to the O(1e-5)
    # oscillating part and quad's error, which it estimates at about 4e-3
    assert val == pytest.approx(2.0 * (math.log(2.0) - 0.5), abs=1e-2)
    [rec] = caplog.records
    assert rec.levelno == logging.WARNING
    msg = rec.getMessage()
    assert msg.startswith("tail_pos: quad error estimate") and "above the 1e-12 tolerance" in msg


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_kbar_rejects_non_finite_theta(theta):
    with pytest.raises(DomainError):
        kbar(GAMMA, theta)


@pytest.mark.parametrize("side", ["tail_pos", "tail_neg"])
@pytest.mark.parametrize("y", [math.nan, math.inf])
def test_mapped_tail_rejects_non_finite_argument(side, y):
    with pytest.raises(DomainError):
        getattr(triplet_of_x(GAMMA, 1.0).measure, side)(y)


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

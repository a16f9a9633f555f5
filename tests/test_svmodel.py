"""Stochastic-volatility layer: simulation, the integrated-vol identity,
and the second-order theory for integrated volatility and squared returns."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, dblquad

from wbou import (
    DomainError,
    ExponentialJumps,
    InvalidLambda,
    MissingComponents,
    NormalJumps,
    NotASubordinator,
    PointMassJumps,
    SecondOrderParams,
    SimulationGrid,
    SvSpec,
    acf_x,
    big_r,
    brownian,
    compound_poisson,
    corr_squared_returns,
    cov_integrated_vol,
    deterministic_drift,
    gamma_subordinator,
    integrated_vol_explicit,
    rbar_fn,
    simulate_sv,
    simulate_sv_ensemble,
    simulate_wbou,
    spot_vol_moments,
    substream,
    write_sv_csv,
)
from wbou.svmodel import _euler_y

from helpers import coarsen_draws, dense_draws, mean_se, rbar_array, replay_dense, var_se

GAMMA11 = gamma_subordinator(1.0, 1.0)


def r_of(lam, t):
    """ACF of the spot volatility, r(t) = (lam t + 1) e^{-lam t}."""
    return acf_x(SecondOrderParams(lam), t)


def spec_with(driver=GAMMA11, alpha=0.0, beta=0.0, lam=1.0):
    return SvSpec(alpha=alpha, beta=beta, lam=lam, driver=driver)


# ---------------------------------------------------------------------------
# model gate and simulation basics
# ---------------------------------------------------------------------------

def test_spec_requires_subordinator_driver():
    with pytest.raises(NotASubordinator):
        spec_with(driver=brownian())
    with pytest.raises(NotASubordinator):
        spec_with(driver=compound_poisson(2.0, NormalJumps(0.0, 1.0)))
    for driver in (deterministic_drift(-1.0), brownian(1.0, 0.5), brownian(-1.0, 0.0)):
        with pytest.raises(NotASubordinator):
            spec_with(driver=driver)
    # nonnegative drift, also written as Brownian with sigma^2 = 0, and
    # positive compound Poisson are fine
    spec_with(driver=deterministic_drift(1.0))
    spec_with(driver=brownian(1.0, 0.0))
    spec_with(driver=compound_poisson(2.0, ExponentialJumps(1.0)))


def test_spec_requires_positive_lambda():
    with pytest.raises(InvalidLambda):
        spec_with(lam=0.0)


def test_zero_intensity_freezes_the_price_drift():
    spec = spec_with(driver=compound_poisson(0.0, ExponentialJumps(1.0)),
                     alpha=0.25)
    path = simulate_sv(spec, SimulationGrid(2.0, 0.1), rng=substream(90))
    assert np.all(path.x == 0.0)
    assert np.allclose(path.y, 0.25 * path.grid.times, rtol=1e-12)


def test_volatility_is_nonnegative():
    path = simulate_sv(spec_with(lam=0.5), SimulationGrid(5.0, 0.01),
                       rng=substream(91))
    assert np.all(path.x >= 0.0)
    assert np.all(path.x_minus >= 0.0) and np.all(path.x_plus >= 0.0)


def test_spot_moments_are_lambda_free():
    """Time scaling pins E X = 2 mu and Var X = V whatever lam is."""
    mu, v = GAMMA11.moments()
    for lam in (0.25, 2.0):
        ens = simulate_sv_ensemble(spec_with(lam=lam), SimulationGrid(0.5, 0.25),
                                   4000, rng=substream(92, int(lam * 4)))
        x0 = ens.x[:, 0]
        assert abs(x0.mean() - 2 * mu) < 4 * mean_se(x0)
        assert abs(x0.var(ddof=1) - v) < 4 * var_se(x0)


def test_spot_vol_moments_helper():
    assert spot_vol_moments(GAMMA11) == (2.0, 1.0)
    d = compound_poisson(5.0, ExponentialJumps(1.0))
    mu, v = d.moments()
    assert spot_vol_moments(d) == (2 * mu, v)
    with pytest.raises(NotASubordinator):
        spot_vol_moments(brownian())


def test_price_moments_match_theory():
    """E Y_t = (alpha + 2 beta mu) t and, with zero drift, E Y_t^2 = 2 mu t."""
    mu, _ = GAMMA11.moments()
    grid = SimulationGrid(1.0, 0.05)

    drifty = simulate_sv_ensemble(spec_with(alpha=0.1, beta=0.5), grid, 4000,
                                  rng=substream(93))
    yt = drifty.y[:, -1]
    assert abs(yt.mean() - (0.1 + 0.5 * 2 * mu)) < 4 * mean_se(yt)

    pure = simulate_sv_ensemble(spec_with(), grid, 4000, rng=substream(94))
    sq = pure.y[:, -1] ** 2
    assert abs(sq.mean() - 2 * mu) < 4 * mean_se(sq)


def test_same_seed_same_joint_path():
    grid = SimulationGrid(1.0, 0.1)
    a = simulate_sv(spec_with(alpha=0.1, beta=0.2), grid, rng=substream(95))
    b = simulate_sv(spec_with(alpha=0.1, beta=0.2), grid, rng=substream(95))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


@pytest.mark.parametrize("driver", [
    GAMMA11, deterministic_drift(1.0), compound_poisson(5.0, ExponentialJumps(1.0)),
    compound_poisson(5.0, PointMassJumps(0.5)),
], ids=["gamma", "drift", "cp-exponential", "cp-point"])
def test_single_path_is_row_zero_of_one_path_ensemble(driver):
    """simulate_sv is row 0 of a one-path simulate_sv_ensemble, bitwise.
    The layout: X is the simulate_wbou path from the first child of
    spawn(2) on the lam-scaled grid, W from the second child.
    Subordinator drivers only: the model rejects the other kinds."""
    spec = spec_with(driver=driver, alpha=0.1, beta=0.2, lam=0.7)
    grid = SimulationGrid(2.0, 0.01)
    path = simulate_sv(spec, grid, rng=substream(96, 1))
    ens = simulate_sv_ensemble(spec, grid, 1, rng=substream(96, 1))
    for field in ("y", "x", "int_x"):
        assert np.array_equal(getattr(path, field), getattr(ens, field)[0])
    inner_grid = SimulationGrid(spec.lam * grid.t_max, spec.lam * grid.dt)
    inner = simulate_wbou(driver, 1.0, inner_grid, rng=substream(96, 1).spawn(2)[0])
    assert np.array_equal(path.x, inner.x)
    assert np.array_equal(path.x_minus, inner.x_minus)
    assert np.array_equal(path.l_cum, inner.l_cum)
    dw = substream(96, 1).spawn(2)[1].normal(0.0, math.sqrt(grid.dt), (1, grid.n))
    assert np.array_equal(ens.y, _euler_y(spec, grid, ens.x, dw))
    assert np.array_equal(ens.int_x, cumulative_trapezoid(ens.x, dx=grid.dt, initial=0.0,
                                                          axis=-1))


@pytest.mark.parametrize("t_max, dt, n_paths", [(0.5, 0.5, 3), (1.0, 0.01, 1), (3.0, 0.003, 4)])
def test_int_x_is_scipys_cumulative_trapezoid(t_max, dt, n_paths):
    """int_x is scipy's cumulative_trapezoid(x, initial=0), bitwise."""
    grid = SimulationGrid(t_max, dt)
    ens = simulate_sv_ensemble(spec_with(), grid, n_paths, rng=substream(98))
    path = simulate_sv(spec_with(), grid, rng=substream(98))
    for x, int_x in ((ens.x, ens.int_x), (path.x, path.int_x)):
        ref = cumulative_trapezoid(x, dx=grid.dt, initial=0.0, axis=-1)
        assert int_x.tobytes() == ref.tobytes()


def test_ensemble_shapes():
    ens = simulate_sv_ensemble(spec_with(), SimulationGrid(1.0, 0.5), 6,
                               rng=substream(96))
    assert ens.y.shape == ens.x.shape == ens.int_x.shape == (6, 3)


# ---------------------------------------------------------------------------
# the explicit integrated-volatility identity
# ---------------------------------------------------------------------------

def test_integrated_vol_identity_starts_at_zero():
    path = simulate_sv(spec_with(), SimulationGrid(1.0, 0.01), rng=substream(97))
    explicit = integrated_vol_explicit(path)
    assert explicit[0] == 0.0
    assert path.int_x[0] == 0.0


def test_integrated_vol_identity_close_to_trapezoid():
    path = simulate_sv(spec_with(lam=1.0), SimulationGrid(2.0, 0.01),
                       rng=substream(98))
    gap = np.abs(integrated_vol_explicit(path) - path.int_x).max()
    assert gap < 1e-3


def test_integrated_vol_identity_for_pure_drift():
    """Constant spot vol: both routes nearly coincide (O(dt^2) bias only)."""
    spec = spec_with(driver=deterministic_drift(1.5), lam=2.0)
    path = simulate_sv(spec, SimulationGrid(1.0, 0.01), rng=substream(99))
    gap = np.abs(integrated_vol_explicit(path) - path.int_x).max()
    assert gap < 1e-4


def test_integrated_vol_gap_is_second_order_in_dt():
    """Refining the grid with common randomness quarters the quadrature gap.

    The process has continuous paths, so the trapezoid rule is second-order
    accurate against the exact explicit antiderivative: each increment atom
    biases the decaying component's step integral by -dl*dt/2 and the growing
    component's by +dl*dt/2, and the two cancel exactly, leaving only the
    O(dt^2) curvature error.  Halving dt should therefore scale the sup gap
    by ~0.25, not ~0.5.
    """
    lam, t_max, dt = 1.0, 2.0, 0.005
    draws = dense_draws(GAMMA11, lam, SimulationGrid(t_max, dt), rng=substream(100))
    fine = replay_dense(lam, SimulationGrid(t_max, dt), draws)
    coarse = replay_dense(lam, SimulationGrid(t_max, 2 * dt), coarsen_draws(draws))

    def gap(path, dt_):
        trap = np.concatenate(
            [[0.0], np.cumsum(0.5 * (path.x[1:] + path.x[:-1]) * dt_)])
        return np.abs(integrated_vol_explicit(path) - trap).max()

    ratio = gap(fine, dt) / gap(coarse, 2 * dt)
    assert 0.15 < ratio < 0.35


def test_integrated_vol_missing_components():
    class Bare:
        pass

    with pytest.raises(MissingComponents):
        integrated_vol_explicit(Bare())
    b = Bare()
    b.x_minus = b.x_plus = b.l_cum = np.zeros(3)
    with pytest.raises(MissingComponents):
        integrated_vol_explicit(b)  # no rate anywhere
    b.lam = 1.0
    assert np.array_equal(integrated_vol_explicit(b), np.zeros(3))


# ---------------------------------------------------------------------------
# second-order theory
# ---------------------------------------------------------------------------

def test_r_anchors():
    assert r_of(1.0, 0.0) == 1.0
    assert rbar_fn(1.0, 0.0) == 0.0
    assert r_of(2.0, np.array([0.0, 1.0])).shape == (2,)


def test_r_matches_process_acf():
    t = np.linspace(0.0, 4.0, 17)
    assert np.allclose(r_of(1.7, t), (1.7 * t + 1.0) * np.exp(-1.7 * t), rtol=1e-14)


BITWISE_LAMS = (1e-3, 0.05, 0.8, 1.2564, 3.0, 40.0)


@pytest.mark.parametrize("lam", BITWISE_LAMS)
def test_rbar_scalar_path_is_bitwise_the_array_route(lam):
    ts = (0.0, 1, 2, True, 0.25, 1.0, 7.3, 100.0, np.float64(0.5), np.int64(3),
          np.array(2.0), np.array([0.0, 0.5, 9.0]), [1.0, 2.0])
    for t in ts:
        got, want = rbar_fn(lam, t), rbar_array(lam, t)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        if np.ndim(t) == 0:
            assert type(got) is float


@pytest.mark.parametrize("lam", BITWISE_LAMS)
@pytest.mark.parametrize("mu, v, delta", [(3.0, 2.0, 1.0), (0.7, 0.1, 0.25), (0.0, 5.0, 2)])
def test_corr_squared_returns_is_bitwise_the_array_route(lam, mu, v, delta):
    for s in range(1, 11):
        want = big_r(lam, delta, s) / (6.0 * rbar_array(lam, delta) + 2.0 * delta**2 * mu**2 / v)
        got = corr_squared_returns(mu, v, lam, delta, s)
        assert type(got) is float and got == want


@pytest.mark.parametrize("t", [-1e-300, -0.5, -2, np.float64(-1.0), np.array(-1.0),
                               np.array([1.0, -1.0])])
def test_rbar_rejects_negative_t(t):
    with pytest.raises(DomainError):
        rbar_fn(1.0, t)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
def test_rbar_and_corr_squared_returns_reject_bad_lambda(lam):
    for t in (1.0, np.array([1.0])):
        with pytest.raises(InvalidLambda):
            rbar_fn(lam, t)
    with pytest.raises(InvalidLambda):
        corr_squared_returns(1.0, 1.0, lam, 1.0, 1)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
def test_rbar_is_the_double_integral_of_r(lam, t):
    want, _ = dblquad(lambda x, u: r_of(lam, x), 0.0, t, 0.0, lambda u: u,
                      epsabs=1e-12, epsrel=1e-12)
    assert rbar_fn(lam, t) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_big_r_internal_consistency_grid(lam, delta):
    """The closed form equals the literal second difference of rbar."""
    for s in range(1, 11):
        closed = big_r(lam, delta, s)
        diff2 = (rbar_fn(lam, delta * (s + 1)) - 2.0 * rbar_fn(lam, delta * s)
                 + rbar_fn(lam, delta * (s - 1)))
        assert abs(closed - diff2) <= 1e-10 * max(1.0, abs(closed))


def _mp_rbar(mp, lam, t):
    lt = lam * t
    return (lt * mp.exp(-lt) + 2 * lt + 3 * mp.exp(-lt) - 3) / lam**2


def _mp_big_r(mp, lam, delta, s):
    lam, delta = mp.mpf(lam), mp.mpf(delta)
    return (_mp_rbar(mp, lam, delta * (s + 1)) - 2 * _mp_rbar(mp, lam, delta * s)
            + _mp_rbar(mp, lam, delta * (s - 1)))


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2, 1.0, 3.0])
def test_big_r_and_cov_iv_against_mpmath(lam):
    """R and cov_iv to 1e-13 relative down to lam = 1e-4, where both
    brackets of the exponential form cancel."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for s in range(1, 11):
            want = _mp_big_r(mpmath, lam, 1.0, s)
            assert big_r(lam, 1.0, s) == pytest.approx(float(want), rel=1e-13)
            assert cov_integrated_vol(2.5, lam, 1.0, s) == pytest.approx(
                float(2.5 * want), rel=1e-13)


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1.0, 3.0])
def test_corr_squared_returns_against_mpmath(lam):
    """The denominator's rbar keeps its own cancellation (about 5e-11
    relative at lam = 1e-3), hence the looser tolerance."""
    mpmath = pytest.importorskip("mpmath")
    mu, v = spot_vol_moments(GAMMA11)
    with mpmath.workdps(50):
        den = 6 * _mp_rbar(mpmath, mpmath.mpf(lam), mpmath.mpf(1)) + 2 * mpmath.mpf(mu)**2 / v
        for s in range(1, 11):
            want = _mp_big_r(mpmath, lam, 1.0, s) / den
            assert corr_squared_returns(mu, v, lam, 1.0, s) == pytest.approx(
                float(want), rel=1e-9)


def test_big_r_matches_window_covariance_integral():
    """R(delta s) is the double integral of r over two windows s apart."""
    lam, delta = 1.0, 1.0
    for s in (1, 2, 3):
        want, _ = dblquad(
            lambda u, w: r_of(lam, abs(u - w)),
            s * delta, (s + 1) * delta,   # outer: the later window
            0.0, delta,                   # inner: the first window
            epsabs=1e-11, epsrel=1e-11,
        )
        assert big_r(lam, delta, s) == pytest.approx(want, rel=1e-8)


def test_big_r_validation():
    with pytest.raises(DomainError):
        big_r(1.0, 0.0, 1)
    with pytest.raises(DomainError):
        big_r(1.0, 1.0, 0)
    with pytest.raises(InvalidLambda):
        big_r(-1.0, 1.0, 1)


@pytest.mark.parametrize("call", [
    lambda: big_r(1.0, 1e308, 1),
    lambda: big_r(1e-300, 1.0, 1),
    lambda: rbar_fn(1.0, 1e308),
    lambda: rbar_fn(1e-300, 1.0),
    lambda: rbar_fn(1.0, np.array([1.0, 1e308])),
    lambda: cov_integrated_vol(1e308, 0.01, 10.0, 1),
    lambda: corr_squared_returns(1e308, 1.0, 1.0, 1.0, 1),
    lambda: corr_squared_returns(1.0, 1.0, 1.0, 1e-300, 1),
], ids=["big_r-delta", "big_r-lambda", "rbar-t", "rbar-lambda", "rbar-array-t", "cov-v",
        "corr-mu", "corr-delta"])
def test_closed_forms_that_overflow_raise_domain_error(call):
    """Finite inputs whose closed form leaves the float range (sinh or
    mu^2 overflows, lam^2 underflows to a zero divisor) raise DomainError
    naming the closed form and its inputs, not OverflowError,
    ZeroDivisionError, a NumPy warning or inf."""
    with pytest.raises(DomainError, match=r"\(.*\) overflows the float range"):
        call()


def test_closed_forms_near_the_float_range_stay_finite():
    assert math.isfinite(big_r(1.0, 700.0, 1))
    assert math.isfinite(rbar_fn(1.0, 1e300))
    assert math.isfinite(corr_squared_returns(1e150, 1.0, 1.0, 1.0, 1))


def test_cov_integrated_vol_scaling():
    assert cov_integrated_vol(2.0, 1.0, 1.0, 1) == pytest.approx(
        2 * cov_integrated_vol(1.0, 1.0, 1.0, 1))
    assert cov_integrated_vol(1.0, 1.0, 1.0, 40) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        cov_integrated_vol(0.0, 1.0, 1.0, 1)


def test_cov_integrated_vol_matches_simulation():
    """Monte Carlo covariance of adjacent unit windows of integrated vol."""
    lam, delta = 1.0, 1.0
    mu, v = GAMMA11.moments()
    grid = SimulationGrid(2.0, 0.02)
    ens = simulate_sv_ensemble(spec_with(lam=lam), grid, 4000,
                               rng=substream(101))
    k = round(delta / grid.dt)
    a = ens.int_x[:, k]
    b = ens.int_x[:, 2 * k] - ens.int_x[:, k]
    cov_hat = np.cov(a, b)[0, 1]
    prods = (a - a.mean()) * (b - b.mean())
    se = prods.std(ddof=1) / math.sqrt(len(prods))
    assert abs(cov_hat - cov_integrated_vol(v, lam, delta, 1)) < 5 * se


def test_corr_squared_returns_properties():
    mu, v = spot_vol_moments(GAMMA11)
    vals = [corr_squared_returns(mu, v, 1.0, 1.0, s) for s in range(1, 8)]
    assert all(0.0 < c < 1.0 for c in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # zero-mean spot vol leaves a finite value
    assert corr_squared_returns(0.0, v, 1.0, 1.0, 1) > vals[0]
    with pytest.raises(DomainError):
        corr_squared_returns(1.0, 0.0, 1.0, 1.0, 1)


def test_corr_squared_returns_against_quadrature():
    """Rebuild the ratio from the dblquad covariance and closed rbar."""
    lam, delta, s = 1.0, 1.0, 2
    mu, v = spot_vol_moments(GAMMA11)
    r_quad, _ = dblquad(lambda u, w: r_of(lam, abs(u - w)),
                        s * delta, (s + 1) * delta, 0.0, delta,
                        epsabs=1e-11, epsrel=1e-11)
    want = r_quad / (6.0 * rbar_fn(lam, delta) + 2.0 * delta**2 * mu**2 / v)
    got = corr_squared_returns(mu, v, lam, delta, s)
    assert got == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_sv_csv(tmp_path):
    path = simulate_sv(spec_with(alpha=0.1), SimulationGrid(0.4, 0.1),
                       rng=substream(102))
    f = tmp_path / "sv.csv"
    write_sv_csv(path, f)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,y,x,int_x"
    assert len(lines) == path.grid.n + 2
    cells = lines[3].split(",")
    assert float(cells[0]) == path.grid.times[2]
    assert float(cells[1]) == path.y[2]
    assert float(cells[2]) == path.x[2]
    assert float(cells[3]) == path.int_x[2]

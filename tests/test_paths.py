"""Simulation-layer checks: grids, truncation, the split, replay, CSV."""

import csv
import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest

from wbou import (
    CompactPath,
    DimensionMismatch,
    DomainError,
    ExponentialJumps,
    GridError,
    InvalidLambda,
    NormalJumps,
    PointMassJumps,
    SimulationGrid,
    TruncationPolicy,
    brownian,
    compact_cov,
    compound_poisson,
    derivative_identity_residual,
    deterministic_drift,
    gamma_subordinator,
    max_abs_increment,
    path_total_variation,
    simulate_compact_kernel,
    simulate_wbou,
    simulate_wbou_ensemble,
    substream,
    wbou_from_increments,
    write_path_csv,
)

from helpers import (coarsen_draws, dense_draws, hook_records, mean_se, replay_dense, rng_for,
                     var_se)

GAMMA11 = gamma_subordinator(1.0, 1.0)

#: One driver of each kind the samplers distinguish.
SIX_DRIVERS = {
    "gamma": GAMMA11,
    "brownian": brownian(0.3, 1.0),
    "drift": deterministic_drift(2.0),
    "cp-normal": compound_poisson(5.0, NormalJumps(0.0, 1.0)),
    "cp-exponential": compound_poisson(5.0, ExponentialJumps(1.0)),
    "cp-point": compound_poisson(5.0, PointMassJumps(0.5)),
}


# ---------------------------------------------------------------------------
# grid and truncation plumbing
# ---------------------------------------------------------------------------

class TestGrid:
    def test_points(self):
        g = SimulationGrid(2.0, 0.5)
        assert g.n == 4
        assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.times[-1] == pytest.approx(2.0)

    def test_non_divisor_rejected(self):
        with pytest.raises(GridError):
            SimulationGrid(1.0, 0.3)

    @pytest.mark.parametrize("t_max,dt", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1),
                                          (1.0, -0.1), (0.05, 0.1), (math.nan, 0.1),
                                          (1.0, math.nan), (math.inf, 0.1), (1.0, math.inf)])
    def test_bad_arguments_rejected(self, t_max, dt):
        with pytest.raises(GridError):
            SimulationGrid(t_max, dt)

    def test_float_multiple_accepted(self):
        # 0.7 / 0.1 is not exact in binary; the tolerance must absorb that
        assert SimulationGrid(0.7, 0.1).n == 7

    @pytest.mark.parametrize("t_max,dt", [(1e300, 1e-10), (1e300, 1e-5), (2.0 ** 63, 1.0)])
    def test_step_count_numpy_cannot_index_rejected(self, t_max, dt):
        with pytest.raises(GridError, match="more than NumPy can index"):
            SimulationGrid(t_max, dt)

    def test_largest_float_step_count_below_the_index_limit_accepted(self):
        assert SimulationGrid(2.0 ** 62, 1.0).n == 2 ** 62


class TestTruncation:
    def test_horizon_scales_inversely_with_lambda(self):
        pol = TruncationPolicy(tol=1e-12)
        assert pol.horizon(2.0) == pytest.approx(pol.horizon(1.0) / 2)

    def test_squaring_tol_doubles_horizon(self):
        pol = TruncationPolicy(tol=1e-8)
        pol2 = TruncationPolicy(tol=1e-16)
        assert pol2.horizon(1.3) == pytest.approx(2 * pol.horizon(1.3))

    def test_kernel_weight_at_horizon(self):
        pol = TruncationPolicy(tol=1e-6)
        assert math.exp(-0.7 * pol.horizon(0.7)) == pytest.approx(1e-6)

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5, 2.0, math.nan, math.inf])
    def test_bad_tol(self, tol):
        with pytest.raises(GridError):
            TruncationPolicy(tol=tol)

    @pytest.mark.parametrize("lam,dt", [(1e-300, 0.1), (1e-300, 1e-10), (1e-18, 1.0)])
    def test_horizon_numpy_cannot_index_rejected(self, lam, dt):
        with pytest.raises(GridError, match="more than NumPy can index"):
            TruncationPolicy().n_steps(lam, dt)

    @pytest.mark.parametrize("name", ["gamma", "brownian", "cp-exponential"])
    def test_simulations_refuse_an_unindexable_horizon(self, name):
        grid = SimulationGrid(1.0, 0.1)
        with pytest.raises(GridError):
            simulate_wbou(SIX_DRIVERS[name], 1e-300, grid, rng=substream(1))
        with pytest.raises(GridError):
            simulate_wbou_ensemble(SIX_DRIVERS[name], 1e-300, grid, 2, rng=substream(1))


def test_compact_kernel_refuses_an_unindexable_window():
    with pytest.raises(GridError, match="more than NumPy can index"):
        simulate_compact_kernel(GAMMA11, 1.0, 1e300, SimulationGrid(1.0, 1e-10), rng=1)


# ---------------------------------------------------------------------------
# the two-sided split
# ---------------------------------------------------------------------------

def test_split_sums_to_path():
    path = simulate_wbou(GAMMA11, 1.0, SimulationGrid(3.0, 0.01), rng=substream(1))
    assert np.array_equal(path.x, path.x_minus + path.x_plus)
    assert path.x_minus[0] == path.g
    assert path.x_plus[0] == path.h


def test_components_nonnegative_for_subordinators():
    for d in (GAMMA11, compound_poisson(5.0, ExponentialJumps(1.0)),
              deterministic_drift(1.0)):
        path = simulate_wbou(d, 0.7, SimulationGrid(4.0, 0.02),
                             rng=rng_for("nonneg-path", repr(d)))
        assert np.all(path.x_minus >= 0.0)
        assert np.all(path.x_plus >= 0.0)


@pytest.mark.parametrize("driver,lam", [(GAMMA11, 1.0), (brownian(0.3, 1.0), 0.5)])
def test_exponential_forms_of_the_split(driver, lam):
    """x^- = e^{-lam t}(G + I_t) and x^+ = e^{lam t}(H - J_t) on the grid."""
    grid = SimulationGrid(4.0, 0.01)
    path = simulate_wbou(driver, lam, grid, rng=rng_for("expform", repr(driver)))
    t = grid.times
    # I_t = int_0^t e^{lam s} dL_s and J_t = int_0^t e^{-lam s} dL_s as
    # left-endpoint sums; I carries e^{+lam t}, so lam * t_max stays small
    i_vals = np.concatenate([[0.0], np.cumsum(np.exp(lam * t[:-1]) * path.dl)])
    j_vals = np.concatenate([[0.0], np.cumsum(np.exp(-lam * t[:-1]) * path.dl)])
    lhs_minus = np.exp(-lam * t) * (path.g + i_vals)
    lhs_plus = np.exp(lam * t) * (path.h - j_vals)
    scale_m = np.abs(path.x_minus).max()
    scale_p = np.abs(path.x_plus).max()
    assert np.abs(lhs_minus - path.x_minus).max() <= 1e-10 * scale_m
    assert np.abs(lhs_plus - path.x_plus).max() <= 1e-10 * scale_p


def test_cumulative_driver_path():
    path = simulate_wbou(GAMMA11, 1.0, SimulationGrid(1.0, 0.1), rng=substream(4))
    assert path.l_cum[0] == 0.0
    assert np.allclose(path.l_cum, np.concatenate([[0.0], np.cumsum(path.dl)]),
                       rtol=0, atol=0)


@pytest.mark.parametrize("name", list(SIX_DRIVERS))
def test_squaring_tol_moves_replayed_path_by_neglected_mass(name):
    """Squaring tol (doubling the horizon) only appends far-away mass.

    The engine draws G and X^+_{t_max} whole, so two tolerances give
    independent draws; the dense reference shares its increments between
    them (the samplers are prefix-consistent), and its replays differ by
    at most the neglected-mass bound."""
    driver = SIX_DRIVERS[name]
    grid = SimulationGrid(2.0, 0.01)
    lam, tol = 1.0, 1e-8
    a = dense_draws(driver, lam, grid, trunc=TruncationPolicy(tol=tol), rng=substream(77))
    b = dense_draws(driver, lam, grid, trunc=TruncationPolicy(tol=tol ** 2),
                    rng=substream(77))
    assert np.array_equal(a[1], b[1])
    m = len(a[0])
    assert len(b[0]) > m
    assert np.array_equal(a[0], b[0][:m]) and np.array_equal(a[2], b[2][:m])
    mu, v = driver.moments()
    bound = 10 * tol * (abs(mu) + math.sqrt(v)) / lam
    assert np.abs(replay_dense(lam, grid, a).x - replay_dense(lam, grid, b).x).max() <= bound


# ---------------------------------------------------------------------------
# one engine: a single path is row 0 of a one-path ensemble
# ---------------------------------------------------------------------------

#: (driver, grid) per case: the six drivers where gamma takes its series,
#: and gamma on a coarse grid, where the hook takes its dense default
ROW0_CASES = {**{name: (drv, SimulationGrid(2.0, 0.01)) for name, drv in SIX_DRIVERS.items()},
              "gamma-coarse": (GAMMA11, SimulationGrid(2.0, 0.2))}


@pytest.mark.parametrize("name", list(ROW0_CASES))
def test_single_path_is_row_zero_of_one_path_ensemble(name, caplog):
    """simulate_wbou is row 0 of a one-path ensemble, bitwise.  The layout: dl is the (1, n) draw
    of the main child; G and X^+_{t_max} are the hook's draws from the
    past and tail children, G one kernel step further out."""
    driver, grid = ROW0_CASES[name]
    lam, trunc = 1.3, TruncationPolicy(tol=1e-6)
    path = simulate_wbou(driver, lam, grid, trunc=trunc, rng=substream(5, 2))
    ens = simulate_wbou_ensemble(driver, lam, grid, 1, trunc=trunc, rng=substream(5, 2))
    for field in ("x", "x_minus", "x_plus", "g", "h"):
        assert np.array_equal(getattr(path, field), getattr(ens, field)[0])
    m = trunc.n_steps(lam, grid.dt)
    past, main, tail = substream(5, 2).spawn(3)
    assert np.array_equal(path.dl, driver.sample_increments(grid.dt, main, (1, grid.n))[0])
    hook = lambda gen: driver.sample_weighted_sum(grid.dt, lam, m, gen, 1, trunc.tol)
    with caplog.at_level(logging.DEBUG, logger="wbou"):
        g = math.exp(-lam * grid.dt) * hook(past)
    assert (hook_records(caplog.records)[0][0] == "dense") == (name == "gamma-coarse")
    assert np.array_equal(ens.g, g)
    assert np.array_equal(ens.x_plus[:, -1], hook(tail))


def test_simulate_logs_route_and_budget(caplog):
    """Each simulate call logs one engine line (sizes, horizon and the
    horizon mass tol |mu| / lam), then one record per hook call, past
    side first: route, rows, the terms actually drawn and the mass the
    series neglects (tol mu / lam on the gamma series, 0 elsewhere).  On
    the scatter routes the terms are the Poisson total that the hook's
    child generator draws first.  Pure drift is Brownian with sigma^2 = 0
    and takes the normal route."""
    fine, coarse = SimulationGrid(1.0, 1e-3), SimulationGrid(1.0, 0.1)
    runs = [(GAMMA11, fine, 2, "series"), (SIX_DRIVERS["cp-exponential"], fine, 3, "jumps"),
            (GAMMA11, coarse, 1, "dense"), (SIX_DRIVERS["brownian"], fine, 2, "normal"),
            (SIX_DRIVERS["drift"], fine, 2, "normal")]
    for driver, grid, n_paths, route in runs:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="wbou"):
            if n_paths == 1:
                simulate_wbou(driver, 1.0, grid, rng=substream(1))
            else:
                simulate_wbou_ensemble(driver, 1.0, grid, n_paths, rng=substream(1))
        lines = [r.getMessage() for r in caplog.records if r.name == "wbou"]
        m = TruncationPolicy().n_steps(1.0, grid.dt)
        assert len(lines) == 3
        assert lines[0] == (
            f"simulate: n_paths={n_paths} n={grid.n} lam=1 dt={grid.dt:.6g} m_half={m} "
            f"horizon={m * grid.dt:.6g} horizon_mass<={1e-12 * abs(driver.moments()[0]):.3g}")
        past, _, tail = substream(1).spawn(3)
        records = hook_records(caplog.records)
        assert len(records) == 2
        for (got, rows, terms, mass), gen in zip(records, (past, tail)):
            assert (got, rows) == (route, n_paths)
            if route == "series":
                want = gen.poisson(GAMMA11._gamma_max(grid.dt, 1.0, m, 1e-12), n_paths).sum()
            elif route == "jumps":
                want = gen.poisson(5.0 * grid.dt * m, n_paths).sum()
            else:
                want = {"dense": n_paths * m, "normal": n_paths}[route]
            assert terms == want
            assert mass == ("1e-12" if route == "series" else "0")


#: SHA-256 of simulate_wbou_ensemble(...).x for five drivers at a fixed
#: seed (numpy 2.4, x86-64), half-lines drawn by law and the recursions
#: run by the block scan.  The compound Poisson digests hold the scatter
#: sums, which weight only the cells they draw, to the bits of indexing
#: the full m_half weight array.  The drift digest holds pure drift, the
#: Brownian driver at sigma^2 = 0, to the bits of filling every increment
#: with gamma * dt.
FROZEN_ENSEMBLES = {
    "gamma": "0d74963e8c9c36c47362433b58c02289f8f3cf68b46c8e448cf37a8a92f1bb59",
    "brownian": "1af4f675b5e2cfd28f71c7f319360c8a41e598bec824e47764d48227fd646cc1",
    "cp-exponential": "bcd53b6a282d59f2eb5d7fb5f05a88721107a96f2e6294ed715580ac170c7bfb",
    "cp-normal": "e7e49b967067ed8d8ca4f19e53f88c281a4d926b11d33201924e67739f2a540f",
    "drift": "ee1f21b44bf119db785a249441bb9a080ca2c8633adaa1139bdf2482f7738221",
}


@pytest.mark.parametrize("name", list(FROZEN_ENSEMBLES))
def test_frozen_ensemble_digest(name):
    ens = simulate_wbou_ensemble(SIX_DRIVERS[name], 1.0, SimulationGrid(2.0, 0.01), 5,
                                 rng=substream(2024))
    assert hashlib.sha256(ens.x.tobytes()).hexdigest() == FROZEN_ENSEMBLES[name]


def test_replay_reproduces_path_exactly():
    """On a coarse grid the gamma hook takes its dense default, so
    replaying the dense reference rebuilds the simulated path bitwise."""
    grid = SimulationGrid(2.0, 0.05)
    path = simulate_wbou(GAMMA11, 1.3, grid, rng=substream(9))
    draws = dense_draws(GAMMA11, 1.3, grid, rng=substream(9))
    replay = replay_dense(1.3, grid, draws)
    assert np.array_equal(replay.dl, path.dl)
    assert np.array_equal(replay.x, path.x)
    assert np.array_equal(replay.x_plus, path.x_plus)
    assert np.array_equal(replay.x_minus, path.x_minus)
    assert replay.g == path.g and replay.h == path.h


def test_replay_validates_increment_count():
    """Every replayed array is 1-D, finite and of the expected length:
    a wrong shape is a DimensionMismatch, a NaN or inf a DomainError."""
    grid = SimulationGrid(0.4, 0.1)
    zeros = np.zeros(grid.n)
    for dl in (np.zeros(5), np.zeros((1, grid.n))):
        with pytest.raises(DimensionMismatch):
            wbou_from_increments(1.0, grid, dl)
    for side in ("dl_past", "dl_tail"):
        with pytest.raises(DimensionMismatch, match=side):
            wbou_from_increments(1.0, grid, zeros, **{side: np.ones((2, 3))})
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="dl must be finite"):
            wbou_from_increments(1.0, grid, [0.0, bad, 0.0, 0.0])
        for side in ("dl_past", "dl_tail"):
            with pytest.raises(DomainError, match=f"{side} must be finite"):
                wbou_from_increments(1.0, grid, zeros, **{side: [1.0, bad]})


def test_deterministic_drift_levels():
    """Pure drift gives the exact discrete two-sided geometric mass."""
    gam, lam, dt = 2.0, 1.5, 0.01
    tol = 1e-12
    grid = SimulationGrid(1.0, dt)
    path = simulate_wbou(deterministic_drift(gam), lam, grid,
                         trunc=TruncationPolicy(tol=tol), rng=substream(0))
    alpha = math.exp(-lam * dt)
    level = gam * dt * (1 + alpha) / (1 - alpha)
    assert np.abs(path.x - level).max() <= 3 * gam * tol / lam + 1e-12
    # and the discrete level itself converges to 2 gamma / lam as dt -> 0
    assert level == pytest.approx(2 * gam / lam, rel=1e-4)


def test_zero_intensity_gives_zero_path():
    d = compound_poisson(0.0, ExponentialJumps(1.0))
    path = simulate_wbou(d, 1.0, SimulationGrid(1.0, 0.1), rng=substream(2))
    assert np.all(path.x == 0.0)


def test_marginal_moments_are_stationary():
    """Ensemble mean 2 mu / lam and variance v / lam at several grid times."""
    lam = 2.0
    mu, v = GAMMA11.moments()
    ens = simulate_wbou_ensemble(GAMMA11, lam, SimulationGrid(2.0, 0.05), 4000,
                                 rng=substream(31))
    for k in (0, ens.x.shape[1] // 2, -1):
        col = ens.x[:, k]
        assert abs(col.mean() - 2 * mu / lam) < 4 * mean_se(col)
        assert abs(col.var(ddof=1) - v / lam) < 4 * var_se(col)


@pytest.mark.parametrize("name", list(SIX_DRIVERS))
def test_ensemble_when_the_kernel_underflows(name):
    """lam * dt = 1000: alpha = e^{-lam dt} is 0.0 and every route must cope."""
    ens = simulate_wbou_ensemble(SIX_DRIVERS[name], 1.0, SimulationGrid(2000.0, 1000.0), 2,
                                 rng=substream(3))
    assert np.all(np.isfinite(ens.x)) and np.array_equal(ens.x, ens.x_minus + ens.x_plus)


def test_ensemble_shapes():
    ens = simulate_wbou_ensemble(GAMMA11, 1.0, SimulationGrid(1.0, 0.25), 7,
                                 rng=substream(5))
    assert ens.x.shape == (7, 5)
    assert np.array_equal(ens.x, ens.x_minus + ens.x_plus)
    with pytest.raises(DimensionMismatch):
        simulate_wbou_ensemble(GAMMA11, 1.0, SimulationGrid(1.0, 0.25), 0)


def test_same_seed_same_path():
    grid = SimulationGrid(1.0, 0.1)
    a = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(123))
    b = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(123))
    c = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(124))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_lambda_validation():
    with pytest.raises(InvalidLambda):
        simulate_wbou(GAMMA11, 0.0, SimulationGrid(1.0, 0.1))
    with pytest.raises(InvalidLambda):
        simulate_wbou(GAMMA11, -2.0, SimulationGrid(1.0, 0.1))
    for lam in (math.nan, math.inf):
        with pytest.raises(InvalidLambda):
            simulate_wbou_ensemble(GAMMA11, lam, SimulationGrid(1.0, 0.1), 2)


# ---------------------------------------------------------------------------
# one-sided comparison process
# ---------------------------------------------------------------------------

def test_x_minus_is_the_ou_recursion_from_g():
    """x^-_{k+1} = alpha (x^-_k + dL_k) from x^-_0 = G = alpha dl_past[0]."""
    grid = SimulationGrid(0.3, 0.1)
    lam = math.log(2.0) / 0.1  # alpha = 1/2
    path = wbou_from_increments(lam, grid, [1.0, 0.0, 2.0], dl_past=[8.0])
    assert path.g == 4.0
    assert np.allclose(path.x_minus, [4.0, 2.5, 1.25, 1.625])


def test_ou_inherits_upward_jumps_without_smoothing():
    """A subordinator driver makes the one-sided process jump upward."""
    d = compound_poisson(1.0, ExponentialJumps(0.5))
    ou = simulate_wbou(d, 1.0, SimulationGrid(20.0, 0.01), rng=substream(8)).x_minus
    up = np.diff(ou).max()
    down = -np.diff(ou).min()
    # decay between jumps is O(lam dt), jumps are O(1)
    assert up > 10 * down


# ---------------------------------------------------------------------------
# compact window
# ---------------------------------------------------------------------------

def test_compact_window_drift_mass():
    gam, lam, dt, a = 3.0, 1.2, 0.01, 0.5
    path = simulate_compact_kernel(deterministic_drift(gam), lam, a,
                                   SimulationGrid(1.0, dt), rng=substream(6))
    w = round(a / dt)
    alpha = math.exp(-lam * dt)
    mass = gam * dt * alpha * (1 - alpha ** w) / (1 - alpha)
    assert np.abs(path.x - mass).max() < 1e-12
    assert mass == pytest.approx(gam * (1 - math.exp(-lam * a)) / lam, rel=1e-2)


def test_compact_window_brownian_second_moment():
    lam, a, dt = 1.0, 1.0, 0.05
    path = simulate_compact_kernel(brownian(0.0, 1.0), lam, a,
                                   SimulationGrid(2000.0, dt), rng=substream(61))
    w = round(a / dt)
    alpha2 = math.exp(-2 * lam * dt)
    want = dt * alpha2 * (1 - alpha2 ** w) / (1 - alpha2)
    got = np.mean(path.x ** 2)
    assert got == pytest.approx(want, rel=0.05)
    assert want == pytest.approx((1 - math.exp(-2 * lam * a)) / (2 * lam), rel=0.1)


def test_compact_window_independence_beyond_window():
    lam, a, dt = 1.0, 0.5, 0.05
    path = simulate_compact_kernel(brownian(0.0, 1.0), lam, a,
                                   SimulationGrid(3000.0, dt), rng=substream(62))
    k = round(a / dt)
    x = path.x
    r = np.corrcoef(x[:-k], x[k:])[0, 1]
    assert abs(r) < 4.0 / math.sqrt(len(x) - k)


def test_compact_window_autocovariance_is_the_discrete_sum():
    """At a lag of l steps a Brownian compact-window path has the
    autocovariance sigma^2 dt sum_{j=l}^{w-1} e^{-lam dt (j+1)}
    e^{-lam dt (j-l+1)}, w = a / dt, and 0 from l = w on; compact_cov is
    its dt -> 0 limit.  The band is 4 standard errors of the sample
    autocovariance by Bartlett's formula for a Gaussian series."""
    lam, a, dt, s2 = 1.0, 1.0, 0.05, 1.5
    path = simulate_compact_kernel(brownian(0.3, s2), lam, a,
                                   SimulationGrid(4000.0, dt), rng=substream(63))
    w = round(a / dt)
    kern = lambda j: np.exp(-lam * dt * (j + 1))
    j = np.arange(w)
    exact = np.array([s2 * dt * kern(j[l:]) @ kern(j[l:] - l) for l in range(w)])
    cov = lambda k: exact[abs(k)] if abs(k) < w else 0.0
    x = path.x - path.x.mean()
    n = len(x)
    for l in (0, w // 2, w, 2 * w):
        want = cov(l)
        assert want == pytest.approx(s2 * compact_cov(lam, a, l * dt, 0.0), rel=0.1, abs=1e-12)
        se = math.sqrt(sum(cov(k) ** 2 + cov(k + l) * cov(k - l)
                           for k in range(-w - l, w + l + 1)) / n)
        assert abs(x[: n - l] @ x[l:] / n - want) <= 4 * se


def test_compact_window_validation():
    grid = SimulationGrid(1.0, 0.1)
    with pytest.raises(GridError):
        simulate_compact_kernel(GAMMA11, 1.0, 0.25, grid)
    for a in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(GridError):
            simulate_compact_kernel(GAMMA11, 1.0, a, grid)


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------

def test_functionals_of_a_batch_reduce_over_rows():
    """On a batch the residual and the largest increment are the largest
    over rows, the total variation the sum over rows."""
    batch = simulate_wbou_ensemble(GAMMA11, 1.0, SimulationGrid(1.0, 0.05), 3,
                                   rng=substream(22))
    rows = [dataclasses.replace(batch, x=batch.x[i], x_minus=batch.x_minus[i],
                                x_plus=batch.x_plus[i], g=float(batch.g[i]),
                                h=float(batch.h[i])) for i in range(3)]
    assert derivative_identity_residual(batch) == max(map(derivative_identity_residual, rows))
    assert max_abs_increment(batch.x) == max(max_abs_increment(r.x) for r in rows)
    assert path_total_variation(batch.x) == pytest.approx(
        sum(path_total_variation(r.x) for r in rows), rel=1e-14)


def test_variation_functionals_on_known_path():
    x = [0.0, 2.0, 1.0, 1.0, -1.0]
    assert path_total_variation(x) == pytest.approx(5.0)
    assert max_abs_increment(x) == pytest.approx(2.0)
    for f in (path_total_variation, max_abs_increment):
        for short in (1.0, [1.0], [[1.0], [2.0]]):
            with pytest.raises(DimensionMismatch, match="two grid points"):
                f(short)


def test_derivative_identity_residual_shrinks_with_dt():
    """The left-endpoint residual of dx = lam (x^+ - x^-) dt is O(dt)."""
    lam, t_max, dt = 1.0, 2.0, 0.005
    fine_grid = SimulationGrid(t_max, dt)
    draws = dense_draws(GAMMA11, lam, fine_grid, rng=substream(21))
    fine = replay_dense(lam, fine_grid, draws)
    res_fine = derivative_identity_residual(fine)

    coarse = replay_dense(lam, SimulationGrid(t_max, 2 * dt), coarsen_draws(draws))
    res_coarse = derivative_identity_residual(coarse)
    assert 0.0 < res_fine < res_coarse
    assert res_fine < 0.1


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_path_csv_round_trip(tmp_path):
    path = simulate_wbou(GAMMA11, 1.0, SimulationGrid(0.5, 0.1), rng=substream(12))
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == path.grid.n + 1
    for k, row in enumerate(rows):
        assert float(row["t"]) == path.grid.times[k]
        assert float(row["x"]) == path.x[k]
        assert float(row["x_minus"]) == path.x_minus[k]
        assert float(row["x_plus"]) == path.x_plus[k]


def test_path_csv_refuses_a_batch(tmp_path):
    """Even a batch with as many rows as grid points, whose columns have
    the row count as their length."""
    grid = SimulationGrid(1.0, 0.25)
    batch = simulate_wbou_ensemble(GAMMA11, 1.0, grid, grid.n + 1, rng=substream(14))
    out = tmp_path / "batch.csv"
    with pytest.raises(DimensionMismatch, match="must be 1-D"):
        write_path_csv(batch, out)
    assert not out.exists()


def test_path_csv_components_optional(tmp_path):
    compact = simulate_compact_kernel(GAMMA11, 1.0, 0.2, SimulationGrid(0.5, 0.1),
                                      rng=substream(13))
    assert isinstance(compact, CompactPath)
    out = tmp_path / "compact.csv"
    write_path_csv(compact, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["x_minus"] == "" and rows[0]["x_plus"] == ""
    assert float(rows[3]["x"]) == compact.x[3]

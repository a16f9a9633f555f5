"""State-space representation checks."""

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbou import (
    CarmaSpec,
    DimensionMismatch,
    DomainError,
    ExponentialJumps,
    GridMismatch,
    InvalidLambda,
    SimulationGrid,
    brownian,
    carma_from_wbou,
    compound_poisson,
    gamma_subordinator,
    simulate_carma,
    simulate_wbou,
    simulate_wbou_ensemble,
    substream,
)
from wbou.carma import REPLAY_TOL

from helpers import carma_loop, mat_exp_at

GAMMA11 = gamma_subordinator(1.0, 1.0)
DRIVERS = {
    "gamma": GAMMA11,
    "brownian": brownian(0.3, 1.0),
    "cpoisson": compound_poisson(5.0, ExponentialJumps(1.0)),
}


def rounding_bound(path):
    """B = 3 eps max|X^+| (e^{lam t_max} - 1) / (e^{lam dt} - 1): the
    first-order bound on the replay's gap to path.x."""
    lam, grid = path.lam, path.grid
    growth = math.expm1(lam * grid.t_max) / math.expm1(lam * grid.dt)
    return 3 * np.finfo(float).eps * np.abs(path.x_plus).max() * growth


def series_exp(a, t, terms=30):
    """Plain truncated matrix-exponential series, the slow reference."""
    acc = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ (a * t) / k
        acc = acc + term
    return acc


class TestMatrixExponential:
    def test_identity_at_zero(self):
        assert np.array_equal(mat_exp_at(1.3, 0.0), np.eye(2))

    @pytest.mark.parametrize("lam,t", [(0.5, 1.0), (1.0, 3.0), (2.0, 1.5),
                                       (1.7, 0.01)])
    def test_matches_series(self, lam, t):
        spec = CarmaSpec(lam, (0.0, 0.0))
        want = series_exp(spec.a_matrix, t)
        assert np.allclose(mat_exp_at(lam, t), want, rtol=1e-12, atol=1e-12)

    def test_semigroup(self):
        lam, t, s = 1.2, 0.7, 1.9
        prod = mat_exp_at(lam, t) @ mat_exp_at(lam, s)
        assert np.allclose(mat_exp_at(lam, t + s), prod, rtol=1e-12)

    def test_eigenstructure(self):
        lam = 0.8
        vals = np.linalg.eigvals(CarmaSpec(lam, (0.0, 0.0)).a_matrix)
        assert sorted(vals.real) == pytest.approx([-lam, lam])

    def test_lambda_validation(self):
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidLambda):
                mat_exp_at(lam, 1.0)
            with pytest.raises(InvalidLambda):
                CarmaSpec(lam, (0.0, 0.0))


class TestInitialState:
    def test_observation_recovers_x0(self):
        path = simulate_wbou(GAMMA11, 1.0, SimulationGrid(2.0, 0.1),
                             rng=substream(81))
        spec = carma_from_wbou(path)
        assert spec.b @ spec.r0 == pytest.approx(path.x[0], rel=1e-14)

    def test_batch_is_refused(self):
        batch = simulate_wbou_ensemble(GAMMA11, 1.0, SimulationGrid(2.0, 0.1), 2,
                                       rng=substream(81))
        with pytest.raises(DimensionMismatch, match="single path"):
            carma_from_wbou(batch)

    def test_symmetric_split_zeroes_second_state(self):
        spec = CarmaSpec(1.0, (-(3.0 + 3.0) / 2.0, (3.0 - 3.0) / 2.0))
        assert spec.r0[1] == 0.0

    def test_example_values(self):
        # lam = 1, G = 2, H = 0 -> R0 = (-1, 1)
        spec = CarmaSpec(1.0, (-(2.0 + 0.0) / 2.0, (2.0 - 0.0) / 2.0))
        assert spec.r0 == (-1.0, 1.0)
        assert spec.b @ spec.r0 == pytest.approx(2.0)


class TestRecursion:
    def test_zero_input_zero_state_stays_zero(self):
        """At any lam * t_max: the growing mode stays 0, and so does its
        rounding bound."""
        for grid in (SimulationGrid(1.0, 0.1), SimulationGrid(40.0, 0.1)):
            out = simulate_carma(CarmaSpec(1.0, (0.0, 0.0)), np.zeros(grid.n), grid)
            assert np.all(out == 0.0)

    @pytest.mark.parametrize("driver,lam", [(GAMMA11, 1.0),
                                            (brownian(0.2, 1.0), 0.6)])
    def test_reproduces_path_with_replayed_increments(self, driver, lam):
        grid = SimulationGrid(5.0, 0.01)
        path = simulate_wbou(driver, lam, grid, rng=substream(83, int(lam * 10)))
        out = simulate_carma(carma_from_wbou(path), path.dl, grid)
        scale = np.abs(path.x).max()
        assert np.abs(out - path.x).max() <= 1e-9 * scale

    def test_states_track_the_split(self):
        """R1 = -X/(2 lam) and R2 = (X^- - X^+)/2 along the whole path."""
        grid = SimulationGrid(3.0, 0.02)
        lam = 1.3
        path = simulate_wbou(GAMMA11, lam, grid, rng=substream(84))
        _, states = simulate_carma(carma_from_wbou(path), path.dl, grid,
                                   return_states=True)
        assert np.allclose(states[:, 0], -path.x / (2 * lam), rtol=1e-9,
                           atol=1e-9 * np.abs(path.x).max())
        assert np.allclose(states[:, 1], (path.x_minus - path.x_plus) / 2,
                           rtol=1e-9, atol=1e-9 * np.abs(path.x).max())

    def test_increment_shape_checked(self):
        grid = SimulationGrid(1.0, 0.1)
        spec = CarmaSpec(1.0, (0.0, 0.0))
        for dl in (np.zeros(3), np.zeros((1, grid.n)), np.zeros((2, 5)), 1.0):
            with pytest.raises(GridMismatch):
                simulate_carma(spec, dl, grid)
        for bad in (math.nan, math.inf, -math.inf):
            dl = np.zeros(grid.n)
            dl[4] = bad
            with pytest.raises(DomainError, match="finite"):
                simulate_carma(spec, dl, grid)

    def test_initial_state_checked(self):
        for r0 in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                CarmaSpec(1.0, r0)
        with pytest.raises(DimensionMismatch):
            CarmaSpec(1.0, (0.0, 0.0, 0.0))


class TestRoundingBound:
    def test_gamma_path_refused_at_lam_t_25(self):
        """The growing mode carries a rounding error of order
        eps e^{lam t}: at lam * t_max = 25 and dt = 1e-2 it is ~1e-3 of
        max|x|, far above REPLAY_TOL."""
        grid = SimulationGrid(25.0, 0.01)
        path = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(85))
        assert rounding_bound(path) > 1e3 * REPLAY_TOL * np.abs(path.x).max()
        with pytest.raises(DomainError, match="rounding bound"):
            simulate_carma(carma_from_wbou(path), path.dl, grid)

    @pytest.mark.parametrize("name", ["gamma", "brownian"])
    def test_overflow_refused_without_warnings(self, name):
        """At lam * t_max = 800 the growing mode overflows to inf; the
        replay is refused and no RuntimeWarning escapes."""
        grid = SimulationGrid(100.0, 0.1)
        path = simulate_wbou(DRIVERS[name], 8.0, grid, rng=substream(86))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="rounding bound"):
                simulate_carma(carma_from_wbou(path), path.dl, grid)

    @pytest.mark.parametrize("lam", [8.0, 1000.0])
    def test_refused_unrun_past_lam_t_700(self, lam):
        """Past lam * t_max = 700 the bound is not a float, so the replay
        is refused before it runs, also where e^{lam dt} is not a float
        and e^{-lam dt} is 0.0."""
        grid = SimulationGrid(100.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="rounding bound inf"):
                simulate_carma(CarmaSpec(lam, (0.1, 0.2)), np.ones(grid.n), grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_matrix_loop(self, seed):
        """The two-mode replay and the 2x2 matrix loop are both within B
        of path.x, and so within B of each other, states included."""
        grid = SimulationGrid(8.0, 0.01)
        path = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(87, seed))
        spec = carma_from_wbou(path)
        out, states = simulate_carma(spec, path.dl, grid, return_states=True)
        want, want_states = carma_loop(spec, path.dl, grid.dt)
        bound = rounding_bound(path)
        assert np.abs(out - path.x).max() <= bound
        assert np.abs(want - path.x).max() <= bound
        assert np.abs(out - want).max() <= bound
        assert np.abs(states - want_states).max() <= bound

    def test_logs_the_bound(self, caplog):
        grid = SimulationGrid(5.0, 0.01)
        path = simulate_wbou(GAMMA11, 1.0, grid, rng=substream(88))
        with caplog.at_level(logging.DEBUG, logger="wbou"):
            simulate_carma(carma_from_wbou(path), path.dl, grid)
        lines = [r.getMessage() for r in caplog.records if r.name == "wbou"]
        assert len(lines) == 1
        assert "n=500 lam*t_max=5 " in lines[0]
        rel = float(lines[0].rsplit("=", 1)[1])
        assert rel == pytest.approx(rounding_bound(path) / np.abs(path.x).max(), rel=1e-2)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DRIVERS)),
    lam=st.floats(0.3, 3.0),
    dt=st.sampled_from([0.1, 0.02, 0.01]),
    lam_t=st.floats(1.0, 25.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_is_refused_or_within_the_bound(name, lam, dt, lam_t, seed):
    """Each replay either raises DomainError, when B > REPLAY_TOL max|x|,
    or reproduces path.x within B."""
    grid = SimulationGrid(dt * max(1, round(lam_t / (lam * dt))), dt)
    path = simulate_wbou(DRIVERS[name], lam, grid, rng=substream(89, seed))
    bound, scale = rounding_bound(path), np.abs(path.x).max()
    try:
        out = simulate_carma(carma_from_wbou(path), path.dl, grid)
    except DomainError:
        assert bound > 0.5 * REPLAY_TOL * scale
    else:
        assert bound <= 2 * REPLAY_TOL * scale
        assert np.abs(out - path.x).max() <= bound


def test_single_step_closed_form():
    """One recursion step against a hand-computed matrix product."""
    lam, dt = 2.0, 0.25
    spec = CarmaSpec(lam, (0.5, -0.3))
    grid = SimulationGrid(dt, dt)
    out, states = simulate_carma(spec, np.array([0.7]), grid, return_states=True)
    want = mat_exp_at(lam, dt) @ (np.array([0.5, -0.3]) + np.array([0.0, 0.7]))
    assert np.allclose(states[1], want, rtol=1e-15)
    assert out[1] == pytest.approx(spec.b @ want)

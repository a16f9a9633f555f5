"""State-space representation checks."""

import math

import numpy as np
import pytest

from wbou import (
    CarmaSpec,
    DimensionMismatch,
    DomainError,
    GridMismatch,
    InvalidLambda,
    SimulationGrid,
    brownian,
    carma_from_wbou,
    gamma_subordinator,
    mat_exp_at,
    simulate_carma,
    simulate_wbou,
    simulate_wbou_ensemble,
    substream,
)

GAMMA11 = gamma_subordinator(1.0, 1.0)


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
        grid = SimulationGrid(1.0, 0.1)
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

    def test_growth_cap_enforced(self):
        grid = SimulationGrid(40.0, 0.1)
        with pytest.raises(DomainError):
            simulate_carma(CarmaSpec(1.0, (0.0, 0.0)), np.zeros(grid.n), grid)
        # a raised cap lets the same call run
        out = simulate_carma(CarmaSpec(1.0, (0.0, 0.0)), np.zeros(grid.n), grid,
                             lam_t_cap=50.0)
        assert out.shape == (grid.n + 1,)

    def test_increment_shape_checked(self):
        grid = SimulationGrid(1.0, 0.1)
        with pytest.raises(GridMismatch):
            simulate_carma(CarmaSpec(1.0, (0.0, 0.0)), np.zeros(3), grid)


def test_single_step_closed_form():
    """One recursion step against a hand-computed matrix product."""
    lam, dt = 2.0, 0.25
    spec = CarmaSpec(lam, (0.5, -0.3))
    grid = SimulationGrid(dt, dt)
    out, states = simulate_carma(spec, np.array([0.7]), grid, return_states=True)
    want = mat_exp_at(lam, dt) @ (np.array([0.5, -0.3]) + np.array([0.0, 0.7]))
    assert np.allclose(states[1], want, rtol=1e-15)
    assert out[1] == pytest.approx(spec.b @ want)

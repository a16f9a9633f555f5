"""One result type per model: a WbouPath and an SvPath each hold either
one path, with (n+1,) arrays, or a batch, with (n_paths, n+1) arrays.
A single path keeps what replay and the integrated-volatility identity
need; a batch keeps only its paths."""

import inspect

import pytest

import wbou
from wbou import (
    DimensionMismatch,
    MissingComponents,
    SimulationGrid,
    SvSpec,
    gamma_subordinator,
    integrated_vol_explicit,
    simulate_sv,
    simulate_sv_ensemble,
    simulate_wbou,
    simulate_wbou_ensemble,
    substream,
    write_sv_csv,
)

GAMMA11 = gamma_subordinator(1.0, 1.0)
GRID = SimulationGrid(1.0, 0.25)
ROW = (GRID.n + 1,)
BATCH = (3, GRID.n + 1)


def test_wbou_path_holds_one_path_or_a_batch():
    path = simulate_wbou(GAMMA11, 1.0, GRID, rng=substream(1))
    batch = simulate_wbou_ensemble(GAMMA11, 1.0, GRID, 3, rng=substream(1))
    assert type(path) is type(batch)
    for name in ("x", "x_minus", "x_plus"):
        assert getattr(path, name).shape == ROW
        assert getattr(batch, name).shape == BATCH
    assert path.l_cum.shape == ROW
    assert path.dl.shape == (GRID.n,)
    assert type(path.g) is float and type(path.h) is float
    assert batch.g.shape == batch.h.shape == (3,)
    assert batch.dl is None
    assert batch.l_cum is None


def test_sv_path_holds_one_path_or_a_batch(tmp_path):
    spec = SvSpec(0.0, 0.0, 1.0, GAMMA11)
    path = simulate_sv(spec, GRID, rng=substream(2))
    batch = simulate_sv_ensemble(spec, GRID, 3, rng=substream(2))
    assert type(path) is type(batch)
    for name in ("y", "x", "int_x", "x_minus", "x_plus", "l_cum"):
        assert getattr(path, name).shape == ROW
    for name in ("y", "x", "int_x"):
        assert getattr(batch, name).shape == BATCH
    assert batch.x_minus is None and batch.x_plus is None and batch.l_cum is None
    with pytest.raises(MissingComponents):
        integrated_vol_explicit(batch)
    with pytest.raises(DimensionMismatch):
        write_sv_csv(batch, tmp_path / "sv.csv")


@pytest.mark.parametrize("name", ["WbouEnsemble", "SvEnsemble", "YPath", "simulate_y",
                                  "MarginalLaw"])
def test_merged_and_removed_names_are_gone(name):
    assert not hasattr(wbou, name)


DRIVER_CLASSES = (wbou.DriverSpec, wbou.BrownianDriver, wbou.CompoundPoissonDriver,
                  wbou.GammaSubordinatorDriver)


@pytest.mark.parametrize("owner, name", [
    (module, name) for module in (wbou, wbou.paths)
    for name in ("OuPath", "simulate_ou", "ou_from_increments")
] + [(wbou, "DriftDriver"), (wbou.drivers, "DriftDriver")] + [
    (owner, name) for module, names in ((wbou.law, ("existence_check", "ExistenceResult")),
                                        (wbou.analytics, ("mean_y", "var_y")),
                                        (wbou.estimation, ("Series",)))
    for owner in (wbou, module) for name in names
] + [(wbou.SecondOrderParams, "from_driver"), *[(cls, "measure") for cls in DRIVER_CLASSES]])
def test_second_routes_to_the_same_values_are_gone(owner, name):
    """The OU comparison process is WbouPath.x_minus, pure drift is
    BrownianDriver(gamma, 0.0).  X exists at every lam > 0, and
    triplet_of_x, like every function of lam, raises InvalidLambda at
    any other; Y_t = X_t - X_0 has mean 0 and variance msd(p, t); a
    series is a float array; SecondOrderParams(lam, *driver.moments())
    builds the parameters; a driver's Levy measure is
    driver.triplet.measure."""
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


@pytest.mark.parametrize("fn, param", [(wbou.char_fn_x, "time_scaled"),
                                       (wbou.integrated_vol_explicit, "lam"),
                                       (wbou.LevyMeasure.tail_pos, "include_endpoint"),
                                       (wbou.LevyMeasure.tail_neg, "include_endpoint")])
def test_switches_that_restate_a_value_are_gone(fn, param):
    """The time-scaled CF is char_fn_x(driver, 1.0, u); every path
    carries its own lam; an open tail at 1 is the closed tail less the
    atoms at 1."""
    assert param not in inspect.signature(fn).parameters


@pytest.mark.parametrize("owner, name", [
    (wbou.WbouPath, "dl_past"), (wbou.WbouPath, "dl_tail"),
    (wbou.DriverSpec, "sample_increment"), (wbou.LevyMeasure, "mean_outside_unit"),
    (wbou.LevyMeasure, "mean_inside_unit"), (wbou.LevyMeasure, "second_moment"),
    *[(cls, name) for cls in DRIVER_CLASSES
      for name in ("law_terms", "_law_is_exact", "log_moment_finite")],
    (wbou, "ExistenceViolation"), (wbou.errors, "ExistenceViolation"),
    (wbou.law, "_require_exists"), (wbou.LevyMeasure, "_quad"), (wbou.drivers, "_quad"),
    (wbou.drivers, "_QUAD_OPTS"),
])
def test_half_line_increments_and_audit_duplicates_are_gone(owner, name):
    """Paths keep no half-line increments: every path draws G and
    X^+_{t_max} whole.  The moment integrals of a measure are the test
    oracle measure_moment_quad, a scalar draw is sample_increments(dt,
    rng, ()).  The half-line hook logs its own route and terms, so the
    drivers name no route for the engine; every family has a finite
    log-moment, so existence needs only lam > 0, and a bad lam raises
    InvalidLambda like everywhere else.  Every measure with a density
    has closed tails, so no tail falls back to quadrature, and law is
    the one module that calls quad."""
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__dataclass_fields__", {})


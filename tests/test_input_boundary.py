"""The numeric input boundary of the public API.

Each numeric argument of each public function and constructor is fed
NaN, inf, -inf, 0 and -1 in turn, in place of a valid value; a sequence
argument gets each value at each position.  Every number must be
finite, so NaN and +-inf must raise a WbouError subclass; 0 and -1 must
raise one or give only finite numbers.  Warnings are errors in this
suite, so a NaN that NumPy warns about fails as well.  The numeric
methods of the drivers and jump distributions get the same treatment.
"""
import dataclasses
import math
import numbers

import numpy as np
import pytest

import wbou as W

NON_FINITE = (math.nan, math.inf, -math.inf)

GAMMA = W.gamma_subordinator(1.5, 2.0)
BM = W.brownian(0.3, 1.2)
P = W.SecondOrderParams(0.8, 0.3, 1.2)
GRID = W.SimulationGrid(0.4, 0.1)
SPEC = W.SvSpec(0.1, 0.2, 0.8, GAMMA)
SV_PATH = W.simulate_sv(SPEC, GRID, rng=W.substream(7))
EST = W.empirical_acf(np.sin(0.3 * np.arange(60)) + 0.1 * np.arange(60) % 3, 10)
TAILS = W.triplet_of_x(GAMMA, 0.8).measure
G = lambda x: 1.5 * math.exp(-2.0 * x) / x          # noqa: E731
G_PRIME = lambda x: -G(x) * (2.0 + 1.0 / x)         # noqa: E731
DL = [0.1, 0.2, 0.3, 0.4]


#: (name, callable, valid keyword arguments); arguments that are not
#: numbers or sequences of numbers (drivers, grids, models) stay fixed
CASES = [
    ("SecondOrderParams", W.SecondOrderParams, dict(lam=0.8, mu=0.3, v=1.2)),
    *[(f.__name__, f, dict(p=P, h=h)) for f in (W.acov_x, W.acf_x, W.acf_ou, W.msd)
      for h in (1.0, [0.5, 1.0])],
    *[(f.__name__, f, dict(p=P, k=k)) for f in (W.increment_acf, W.increment_acf_ou)
      for k in (2, [1, 2])],
    ("compact_cov", W.compact_cov, dict(lam=0.8, a=1.0, t=0.5, s=0.2)),
    ("hurst_constant", W.hurst_constant, dict(h_exp=0.7)),
    ("effective_hurst", W.effective_hurst, dict(rho1=0.2)),
    ("CarmaSpec", W.CarmaSpec, dict(lam=0.8, r0=(0.1, 0.2))),
    ("simulate_carma", W.simulate_carma,
     dict(spec=W.CarmaSpec(0.8, (0.1, 0.2)), dl=DL, grid=GRID)),
    *[(f.__name__, f, dict(gamma=0.3, sigma2=1.2)) for f in (W.BrownianDriver, W.brownian)],
    *[(f.__name__, f, dict(intensity=3.0, jumps=W.ExponentialJumps(1.5)))
      for f in (W.CompoundPoissonDriver, W.compound_poisson)],
    *[(f.__name__, f, dict(shape=1.5, rate=2.0))
      for f in (W.GammaSubordinatorDriver, W.gamma_subordinator)],
    ("deterministic_drift", W.deterministic_drift, dict(gamma=1.0)),
    ("NormalJumps", W.NormalJumps, dict(mean=0.1, var=0.5)),
    ("ExponentialJumps", W.ExponentialJumps, dict(rate=1.5)),
    ("PointMassJumps", W.PointMassJumps, dict(size=0.5)),
    ("tail_pos", TAILS.tail_pos, dict(y=0.5)),
    ("tail_neg", TAILS.tail_neg, dict(y=0.5)),
    ("empirical_acf", W.empirical_acf, dict(series=[1.0, 2.0, 1.5, 3.0], max_lag=2)),
    ("fit_acf", W.fit_acf, dict(acf=EST, model="wbou", lag_range=(1, 3))),
    ("model_curve", W.model_curve, dict(model="wbou", lam=0.8, lags=[0.0, 1.0, 2.0])),
    ("realized_volatility", W.realized_volatility, dict(series=[1.0, 2.0, 1.5])),
    ("signature_plot", W.signature_plot,
     dict(series=[1.0, 2.0, 1.5, 3.0, 2.5, 2.0, 1.0], max_skip=2)),
    ("triplet_of_x", lambda lam: dataclasses.astuple(W.triplet_of_x(GAMMA, lam))[:2],
     dict(lam=0.8)),
    *[("char_fn_x", W.char_fn_x, dict(driver=GAMMA, lam=0.8, u=u)) for u in (1.3, [0.5, -1.0])],
    ("char_fn_joint", W.char_fn_joint,
     dict(driver=BM, lam=0.8, times=[0.0, 0.7, 2.0], us=[0.5, -1.0, 0.8])),
    ("kbar", W.kbar, dict(driver=GAMMA, theta=0.5)),
    ("gbar_from_g", W.gbar_from_g, dict(g=G, y=0.5)),
    ("g_from_gbar", W.g_from_gbar, dict(gbar=G, gbar_prime=G_PRIME, y=0.5)),
    ("SimulationGrid", W.SimulationGrid, dict(t_max=0.4, dt=0.1)),
    ("TruncationPolicy", W.TruncationPolicy, dict(tol=1e-6)),
    ("TruncationPolicy.horizon", W.TruncationPolicy().horizon, dict(lam=0.8)),
    ("TruncationPolicy.n_steps", W.TruncationPolicy().n_steps, dict(lam=0.8, dt=0.1)),
    ("simulate_wbou", W.simulate_wbou, dict(driver=GAMMA, lam=0.8, grid=GRID, rng=1)),
    ("simulate_wbou_ensemble", W.simulate_wbou_ensemble,
     dict(driver=GAMMA, lam=0.8, grid=GRID, n_paths=2, rng=1)),
    ("wbou_from_increments", W.wbou_from_increments,
     dict(lam=0.8, grid=GRID, dl=DL, dl_past=[0.1, 0.2], dl_tail=[0.3])),
    *[(f.__name__, f, dict(x=DL)) for f in (W.path_total_variation, W.max_abs_increment)],
    ("simulate_compact_kernel", W.simulate_compact_kernel,
     dict(driver=GAMMA, lam=0.8, a=0.2, grid=GRID, rng=1)),
    ("substream", lambda seed, key: W.substream(seed, key), dict(seed=1, key=2)),
    ("as_generator", W.as_generator, dict(rng=3)),
    ("SvSpec", W.SvSpec, dict(alpha=0.1, beta=0.2, lam=0.8, driver=GAMMA)),
    ("simulate_sv", W.simulate_sv, dict(spec=SPEC, grid=GRID, rng=1)),
    ("simulate_sv_ensemble", W.simulate_sv_ensemble,
     dict(spec=SPEC, grid=GRID, n_paths=2, rng=1)),
    *[("rbar_fn", W.rbar_fn, dict(lam=0.8, t=t)) for t in (1.0, [0.5, 1.0])],
    ("big_r", W.big_r, dict(lam=0.8, delta=1.0, s=2)),
    ("cov_integrated_vol", W.cov_integrated_vol, dict(v=1.2, lam=0.8, delta=1.0, s=2)),
    ("corr_squared_returns", W.corr_squared_returns,
     dict(mu=0.6, v=1.2, lam=0.8, delta=1.0, s=2)),
]

#: the numeric driver methods: each family's psi, sample_increments and
#: sample_weighted_sum (gamma on its series and on its dense default),
#: the subordinators' cumulant_k, the jump distributions' laplace (and
#: laplace_minus_one for the jump laws of subordinators), and
#: the density and tails of the jump laws that have them
DRIVERS = {"gamma": GAMMA, "brownian": BM, "drift": W.deterministic_drift(1.0),
           "cp-exponential": W.compound_poisson(3.0, W.ExponentialJumps(1.5)),
           "cp-normal": W.compound_poisson(3.0, W.NormalJumps(0.1, 0.5))}
HALF_LINE = {name: dict(dt=0.01, lam=0.8, m=400, tol=1e-6) for name in DRIVERS}
HALF_LINE["gamma-coarse"] = dict(dt=0.1, lam=0.8, m=40, tol=1e-6)


def _weighted_sum(driver):
    return lambda dt, lam, m, n_paths, tol: driver.sample_weighted_sum(
        dt, lam, m, W.substream(1), n_paths, tol)


CASES += [
    *[(f"{name}.psi", d.psi, dict(u=u)) for name, d in DRIVERS.items() for u in (1.3, [0.5, -1.0])],
    *[(f"{name}.sample_increments", lambda dt, d=d: d.sample_increments(dt, W.substream(1), 3),
       dict(dt=0.1)) for name, d in DRIVERS.items()],
    *[(f"{name}.cumulant_k", DRIVERS[name].cumulant_k, dict(theta=0.5))
      for name in ("gamma", "drift", "cp-exponential")],
    *[(f"{type(j).__name__}.laplace", j.laplace, dict(theta=0.5))
      for j in (W.NormalJumps(0.1, 0.5), W.ExponentialJumps(1.5), W.PointMassJumps(0.5))],
    *[(f"{type(j).__name__}.laplace_minus_one", j.laplace_minus_one, dict(theta=0.5))
      for j in (W.ExponentialJumps(1.5), W.PointMassJumps(0.5))],
    *[(f"{type(j).__name__}.density", j.density, dict(x=0.5))
      for j in (W.NormalJumps(0.1, 0.5), W.ExponentialJumps(1.5))],
    *[(f"{type(j).__name__}.{tail}", getattr(j, tail), dict(y=0.5))
      for j in (W.NormalJumps(0.1, 0.5), W.ExponentialJumps(1.5))
      for tail in ("tail_pos", "tail_neg")],
    ("ExponentialJumps.log_tail_pos", W.ExponentialJumps(1.5).log_tail_pos, dict(y=0.5)),
    *[(f"{name}.sample_weighted_sum", _weighted_sum(DRIVERS[name.split("-coarse")[0]]),
       dict(kw, n_paths=2)) for name, kw in HALF_LINE.items()],
]

#: public callables outside the table, and why
NOT_NUMERIC = {
    "result records: the functions that build them check their inputs": (
        "AcfEstimate", "FitResult", "LevyTriplet", "WbouPath",
        "CompactPath", "SvPath"),
    "built from callables and an interval that may be infinite; its tails are above": (
        "LevyMeasure",),
    "the abstract driver interface": ("DriverSpec",),
    "no numeric argument": (
        "mean_x", "var_x", "lambda_sign_threshold", "carma_from_wbou", "spot_vol_moments",
        "derivative_identity_residual", "integrated_vol_explicit", "read_acf_csv",
        "read_series_csv", "write_acf_csv", "write_path_csv", "write_signature_csv",
        "write_sv_csv"),
}


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _variants(bad_values):
    """(callable, keyword arguments) with one of bad_values each."""
    for name, fn, base in CASES:
        for arg, value in base.items():
            if _is_number(value):
                slots = [None]
            elif isinstance(value, (list, tuple)) and all(map(_is_number, value)):
                slots = range(len(value))
            else:
                continue
            for i in slots:
                for bad in bad_values:
                    if i is None:
                        new = bad
                    else:
                        new = list(value)
                        new[i] = bad
                        new = type(value)(new)
                    where = arg if i is None else f"{arg}[{i}]"
                    shape = "" if i is None or isinstance(value, tuple) else "-array"
                    yield (pytest.param(fn, {**base, arg: new},
                                        id=f"{name}{shape}-{where}={bad}"))


def _all_finite(out) -> bool:
    """True when every number in out (arrays, tuples, dataclass fields)
    is finite; strings, generators and callables hold none."""
    if _is_number(out) or isinstance(out, (complex, np.ndarray)):
        return bool(np.isfinite(out).all())
    if isinstance(out, (list, tuple)):
        return all(map(_all_finite, out))
    if dataclasses.is_dataclass(out):
        return all(_all_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    return True


def test_the_table_covers_every_public_callable():
    public = {name for name in dir(W) if not name.startswith("_")
              and callable(getattr(W, name))
              and not (isinstance(getattr(W, name), type)
                       and issubclass(getattr(W, name), Exception))}
    exempt = {name for names in NOT_NUMERIC.values() for name in names}
    assert public - exempt - {name for name, _, _ in CASES} == set()
    assert exempt <= public


@pytest.mark.parametrize("name, fn, base", CASES, ids=[c[0] for c in CASES])
def test_the_valid_arguments_are_accepted(name, fn, base):
    assert _all_finite(fn(**base))


@pytest.mark.parametrize("fn, kwargs", _variants(NON_FINITE))
def test_non_finite_number_raises_a_wbou_error(fn, kwargs):
    with pytest.raises(W.WbouError):
        fn(**kwargs)


@pytest.mark.parametrize("fn, kwargs", _variants((0.0, -1.0)))
def test_zero_or_negative_raises_a_wbou_error_or_gives_finite_values(fn, kwargs):
    try:
        out = fn(**kwargs)
    except W.WbouError:
        return
    assert _all_finite(out)

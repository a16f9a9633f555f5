"""The benchmark's own tests: every output check passes on wbou's real
outputs and rejects the same outputs perturbed by a small relative amount.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wbou  # noqa: E402
import wbou.cli  # noqa: E402

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REL = 1e-6      # the perturbation every exact check must catch
NULL = tracing.NullTracer()


# ---------------------------------------------------------------------------
# Monte Carlo band


def test_clt_mean_band_follows_the_standard_error():
    s = np.random.default_rng(0).normal(2.0, 1.0, 100_000)   # se = 0.0032
    assert refs.clt_mean("m", s, 2.0) == []
    assert refs.clt_mean("m", s, 2.0 * 1.01) != []


def test_clt_mean_band_follows_a_given_standard_deviation():
    s = np.random.default_rng(0).normal(2.0, 1.0, 100_000)
    assert refs.clt_mean("m", s, 2.0, sd=1.0) == []
    assert refs.clt_mean("m", s, 2.0 * 1.01, sd=1.0) != []
    assert refs.clt_mean("m", s, 2.0 * 1.001, sd=0.1) != []   # the sample's spread is not used


def test_model_covariances():
    # lag 0: Var X = k2/lam and Var (X - m)^2 = 2 (k2/lam)^2 + k4/(2 lam)
    assert refs.lin_cov(3.0, 2.0, 0.0) == pytest.approx(1.5, rel=1e-15)
    assert refs.sq_cov(3.0, 5.0, 2.0, 0.0) == pytest.approx(2 * 1.5**2 + 1.25, rel=1e-15)
    # the grid average of a constant-covariance series keeps its variance,
    # that of white noise divides it by the number of points
    assert refs.grid_mean_var(lambda h: np.ones_like(h), 50, 0.1) == pytest.approx(1.0)
    assert refs.grid_mean_var(lambda h: np.where(h == 0, 1.0, 0.0), 50, 0.1) == pytest.approx(0.02)


def test_clt_ratio_band_follows_the_standard_error():
    rng = np.random.default_rng(1)
    den = rng.gamma(4.0, 0.25, 100_000)
    num = 0.5 * den + rng.normal(0.0, 0.05, den.size)
    assert refs.clt_ratio("r", num, den, 0.5) == []
    assert refs.clt_ratio("r", num, den, 0.5 * 1.01) != []


# ---------------------------------------------------------------------------
# mc_ensemble


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    wl = workloads.McEnsemble(wbou, 11, 0, tmp_path_factory.mktemp("mc"))
    out = wl.run("ensemble", NULL, 0)
    return wl, out


def test_mc_outputs_pass(mc):
    wl, out = mc
    assert workloads.check_mc_outputs(out, wl.LAM, wl.DT) == []


def test_mc_moments_pass_on_wbou_paths(tmp_path):
    runs = []
    for worker in range(2):
        wl = workloads.McEnsemble(wbou, 11, worker, tmp_path)
        for i in range(2):
            assert wl.check("ensemble", wl.run("ensemble", NULL, i), i) == []
        runs.append(wl.samples())
    assert len(runs[0]["gamma"]["mean"]) == 2 * wl.N_PATHS
    assert workloads.McEnsemble.check_pooled(runs) == []


@pytest.mark.parametrize("name, field", [("gamma", "mean"), ("cpoisson", "sq"),
                                         ("brownian", "cross"), ("sv_y", "y")])
def test_mc_moments_reject_shifted_samples(name, field):
    # 1e5 synthetic paths that match the model in every pooled statistic but one
    rng = np.random.default_rng(2)
    n = 100_000
    wl = workloads.McEnsemble
    samples = {}
    for key, (mu, k2, k4) in (*workloads.CUMULANTS.items(), ("sv_x", workloads.CUMULANTS["gamma"])):
        lam = 1.0 if key == "sv_x" else wl.LAM
        norm = rng.gamma(4.0, 0.25, n) * k2 / lam
        samples[key] = {
            "mean": rng.normal(2.0 * mu / lam, 0.1, n),
            "sq": rng.normal(k2 / lam, 0.1, n),
            "cross": norm * float(refs.wbou_acf(lam, wl.LAG * wl.DT)) + rng.normal(0.0, 0.01, n),
            "norm": norm,
        }
    samples["sv_y"] = {"y": rng.normal(0.0, 1.0, n) * np.sqrt(2.0 * wl.T_MAX)}
    assert wl.check_pooled([samples]) == []
    samples[name][field] = samples[name][field] * 1.05 + (0.05 if field == "y" else 0.0)
    assert wl.check_pooled([samples]) != []


@pytest.mark.parametrize("field", ["sv.int_x", "sv_path.int_x", "iv_explicit",
                                   "path.x", "path.x_minus", "carma"])
def test_mc_check_rejects_perturbed(mc, field):
    wl, out = mc
    bad = copy.copy(out)
    head, _, attr = field.partition(".")
    if attr:
        bad[head] = copy.copy(out[head])
        setattr(bad[head], attr, getattr(out[head], attr) * (1 + REL))
    else:
        bad[head] = out[head] * (1 + REL)
    assert workloads.check_mc_outputs(bad, wl.LAM, wl.DT) != []


def test_mc_negative_component_rejected(mc):
    wl, out = mc
    bad = copy.copy(out)
    bad["path"] = copy.copy(out["path"])
    bad["path"].x_minus = out["path"].x_minus.copy()
    bad["path"].x_minus[3] = -1e-300
    bad["path"].x = bad["path"].x_minus + bad["path"].x_plus
    assert workloads.check_mc_outputs(bad, wl.LAM, wl.DT) != []


# ---------------------------------------------------------------------------
# law_theory


@pytest.fixture(scope="module")
def law(tmp_path_factory):
    wl = workloads.LawTheory(wbou, 5, 0, tmp_path_factory.mktemp("law"))
    return wl, wl.run("law", NULL, 0)


def test_law_outputs_pass(law):
    wl, out = law
    assert workloads.check_law_outputs(out, wl) == []


@pytest.mark.parametrize("key", ["cf_gamma", "cf_cp", "cf_bm", "joint_bm", "kbar",
                                 "tail_gamma", "tail_cp", "acf", "iacf", "threshold", "sv"])
def test_law_check_rejects_perturbed(law, key):
    wl, out = law
    assert workloads.check_law_outputs({**out, key: out[key] * (1 + REL)}, wl) != []


def test_small_lambda_table_fails_as_stated(law):
    wl, _ = law
    with pytest.raises(wbou.WbouError, match=wl.expected_failures["sv_small_lambda"]):
        wl.run("sv_small_lambda", NULL, 0)


def test_small_lambda_check_once_mended(law):
    wl, _ = law
    mu, v = wl.spot
    table = refs.sv_table_ref(mu, v, wl.SMALL_LAM, wl.DELTA, wl.MAX_S)
    assert workloads.check_law_outputs({"sv_small": table}, wl) == []
    assert workloads.check_law_outputs({"sv_small": table * (1 + REL)}, wl) != []


# ---------------------------------------------------------------------------
# cli_pipeline


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = workloads.CliPipeline(wbou, 3, 0, tmp_path_factory.mktemp("cli"))
    out = wl.run("pipeline", NULL, 0)
    return wl, out


def _perturb_cell(path: Path, row: int, col: int) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + REL))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_outputs_pass(cli):
    wl, out = cli
    assert workloads.check_cli_outputs(out, wl.files, wl) == []


@pytest.mark.parametrize("name,row,col", [
    ("path", 6, 1), ("path", 6, 0), ("acf", 11, 1), ("sig", 2, 1), ("sv", 10, 3),
    ("th_acf", 4, 1), ("th_acf", 4, 2), ("th_iacf", 3, 1), ("th_iacf", 3, 2),
    ("th_sv", 2, 1), ("th_sv", 2, 2), ("th_sv", 2, 3),
])
def test_cli_check_rejects_perturbed_file(cli, name, row, col):
    wl, out = cli
    f = wl.files[name]
    saved = f.read_bytes()
    try:
        _perturb_cell(f, row, col)
        assert workloads.check_cli_outputs(out, wl.files, wl) != []
    finally:
        f.write_bytes(saved)


@pytest.mark.parametrize("old,new", [("winner=wbou", "winner=ou"),
                                     ("model=wbou lambda_hat=0.0", "model=wbou lambda_hat=0.1")])
def test_cli_check_rejects_wrong_fit(cli, old, new):
    wl, out = cli
    assert old in out["stdout"]
    assert workloads.check_cli_outputs({**out, "stdout": out["stdout"].replace(old, new)},
                                       wl.files, wl) != []


def test_cli_check_rejects_nonzero_exit(cli):
    wl, out = cli
    codes = list(out["codes"])
    codes[-1] = 2
    assert workloads.check_cli_outputs({**out, "codes": codes}, wl.files, wl) != []


# ---------------------------------------------------------------------------
# tracer


def test_tracer_restores_every_patched_name():
    tr = tracing.Tracer(wbou)
    before = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in tr._patches]
    tr.install()
    assert all(getattr(ns, attr) is not orig for ns, attr, orig in before)
    tr.uninstall()
    assert all(getattr(ns, attr) is orig for ns, attr, orig in before)


def test_tracer_counts_draws_and_self_time():
    tr = tracing.Tracer(wbou)
    grid = wbou.SimulationGrid(1.0, 0.01)
    drv = wbou.brownian(0.0, 1.0)
    tr.start_timed()
    tr.install()
    try:
        wbou.simulate_wbou_ensemble(tr.driver(drv), 1.0, grid, 3, rng=0)
    finally:
        tr.uninstall()
    tot = tr.totals()
    m_half = wbou.TruncationPolicy().n_steps(1.0, 0.01)
    assert tot["drivers.main_draws"] == 3 * grid.n
    assert tot["drivers.halfline_draws"] == 2 * 3 * m_half
    sampled = tot["drivers.main_sample_s"] + tot["drivers.halfline_sample_s"]
    assert tot["paths.self_s"] == pytest.approx(tot["paths.simulate_s"] - sampled, abs=1e-12)

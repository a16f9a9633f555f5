"""End-to-end tests for the command-line interface.

Every test drives ``wbou.cli.main`` in-process with an explicit argv,
checking exit codes (0 success, 1 I/O, 2 validation), the one-line
summaries on stdout, and the CSV files written to ``tmp_path``.
"""
import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys

try:
    import resource
except ImportError:     # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import wbou
from wbou.analytics import (
    SecondOrderParams,
    acf_ou,
    acf_x,
    increment_acf,
    increment_acf_ou,
)
from wbou.cli import main, parse_driver
from wbou.drivers import (
    BrownianDriver,
    CompoundPoissonDriver,
    ExponentialJumps,
    GammaSubordinatorDriver,
    NormalJumps,
    PointMassJumps,
)
from wbou.errors import DomainError
from wbou.estimation import empirical_acf, fit_acf, read_series_csv
from wbou.svmodel import big_r, corr_squared_returns, cov_integrated_vol

# ---------------------------------------------------------------------------
# driver grammar


class TestParseDriver:
    def test_gamma(self):
        drv = parse_driver("gamma:a=1.2,b=0.8")
        assert isinstance(drv, GammaSubordinatorDriver)
        assert drv.shape == 1.2 and drv.rate == 0.8

    def test_gamma_long_alias(self):
        assert parse_driver("gamma_subordinator:a=2,b=3") == parse_driver(
            "gamma:a=2,b=3"
        )

    def test_brownian_defaults(self):
        drv = parse_driver("brownian")
        assert isinstance(drv, BrownianDriver)
        assert drv.gamma == 0.0 and drv.sigma2 == 1.0

    def test_brownian_explicit(self):
        drv = parse_driver("brownian:gamma=0.5,sigma2=2")
        assert (drv.gamma, drv.sigma2) == (0.5, 2.0)

    def test_compound_poisson_exponential(self):
        drv = parse_driver("cpoisson:eta=5,jump=exponential,rate=1")
        assert isinstance(drv, CompoundPoissonDriver)
        assert drv.intensity == 5.0
        assert isinstance(drv.jumps, ExponentialJumps)
        assert drv.jumps.rate == 1.0

    def test_compound_poisson_aliases(self):
        assert parse_driver("compound_poisson:eta=2,jump=exp,rate=3") == parse_driver(
            "cpoisson:eta=2,jump=exponential,rate=3"
        )

    def test_compound_poisson_normal(self):
        drv = parse_driver("cpoisson:eta=2,jump=normal,m=0.3,s2=0.8")
        assert isinstance(drv.jumps, NormalJumps)
        assert (drv.jumps.mean, drv.jumps.var) == (0.3, 0.8)

    def test_compound_poisson_default_jump_is_normal(self):
        drv = parse_driver("cpoisson:eta=1")
        assert isinstance(drv.jumps, NormalJumps)

    def test_compound_poisson_point_mass(self):
        drv = parse_driver("cpoisson:eta=1.5,jump=point_mass,c=2")
        assert isinstance(drv.jumps, PointMassJumps)
        assert drv.jumps.size == 2.0

    def test_drift_and_alias(self):
        drv = parse_driver("drift:gamma=2")
        assert drv == BrownianDriver(2.0, 0.0) == parse_driver("brownian:gamma=2,sigma2=0")
        assert parse_driver("deterministic_drift:gamma=2") == drv

    def test_drift_requires_gamma(self):
        with pytest.raises(DomainError, match="needs parameter 'gamma'"):
            parse_driver("drift")

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown driver family"):
            parse_driver("cauchy:a=1")

    def test_unknown_jump_kind(self):
        with pytest.raises(DomainError, match="unknown jump kind"):
            parse_driver("cpoisson:eta=1,jump=levy")

    def test_non_numeric_value(self):
        with pytest.raises(DomainError, match="must be a number"):
            parse_driver("gamma:a=one,b=1")

    def test_item_without_equals(self):
        with pytest.raises(DomainError, match="expected key=value"):
            parse_driver("gamma:a")

    def test_unused_parameters_rejected(self):
        with pytest.raises(DomainError, match="unused driver parameter"):
            parse_driver("brownian:gamma=0,rate=1")


# ---------------------------------------------------------------------------
# simulate


def _simulate_args(out, lam="1.0", seed="42", extra=()):
    return [
        "simulate", "--driver", "gamma:a=1,b=1", "--lambda", lam,
        "--t-max", "2.0", "--dt", "0.1", "--seed", seed, "--out", str(out),
    ] + list(extra)


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(_simulate_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,x_minus,x_plus"
    assert len(lines) == 1 + 21  # header + n points
    summary = capsys.readouterr().out
    assert "simulate" in summary and "lambda=1.0" in summary


def test_simulate_deterministic_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(_simulate_args(a))
    main(_simulate_args(b))
    main(_simulate_args(c, seed="43"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_multi_path_naming(tmp_path):
    out = tmp_path / "p.csv"
    assert main(_simulate_args(out, extra=["--paths", "3"])) == 0
    files = sorted(f.name for f in tmp_path.iterdir())
    assert files == ["p_000.csv", "p_001.csv", "p_002.csv"]
    # distinct substreams: the paths must not repeat each other
    blobs = {(tmp_path / f).read_bytes() for f in files}
    assert len(blobs) == 3


def test_simulate_negative_lambda_exits_2(tmp_path, capsys):
    code = main(_simulate_args(tmp_path / "p.csv", lam="-1"))
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "lambda must be > 0, got -1.0" in err


def test_simulate_bad_grid_exits_2(tmp_path, capsys):
    argv = [
        "simulate", "--driver", "brownian", "--lambda", "1",
        "--t-max", "1.0", "--dt", "0.3", "--out", str(tmp_path / "p.csv"),
    ]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_unwritable_out_exits_1(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "p.csv"
    assert main(_simulate_args(out)) == 1
    assert "i/o error:" in capsys.readouterr().err


def _table_with_bad_cell(path):
    """Readable both as a series (t, x) and as an ACF table (lag, rho_hat)."""
    path.write_text("lag,rho_hat,t,x\n0,1.0,0.0,1.0\n1,0.5,0.1,2.0\n"
                    "2,abc,0.2,abc\n3,0.1,0.3,1.5\n")
    return path


#: ACF tables and series that must be refused: a non-finite rho_hat in the
#: fit window, a lag that is not a whole number, undecodable bytes, and a
#: quoted cell longer than csv.reader accepts
_FAULTY_INPUTS = {
    "nan_rho": "lag,rho_hat\n0,1.0\n1,nan\n2,0.25\n",
    "inf_rho": "lag,rho_hat\n0,1.0\n1,0.5\n2,inf\n",
    "frac_lag": "lag,rho_hat\n0,1.0\n1.7,0.5\n2,0.25\n",
    "binary": "x\n1.0\n2.0\n\udcff\udcfe3.0\n",
    "huge_cell": 'x\n1.0\n"' + "1" * 200_000 + '"\n2.0\n',
    "huge_x": "x\n1e200\n-1e200\n1e200\n3.0\n2.0\n1.0\n",
}


@pytest.mark.parametrize("argv", [
    _simulate_args("{out}", extra=["--paths", "0"]),
    _simulate_args("{out}", extra=["--t-max", "nan"]),
    _simulate_args("{out}", extra=["--dt", "inf"]),
    _simulate_args("{out}", lam="inf"),
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "inf", "--t-max", "1",
     "--dt", "0.1", "--out", "{out}"],
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--t-max", "1",
     "--dt", "0.1", "--paths", "0", "--out", "{out}"],
    ["acf", "--input", "{bad}", "--max-lag", "2", "--out", "{out}"],
    ["signature", "--input", "{bad}", "--max-skip", "1", "--out", "{out}"],
    ["fit", "--input", "{bad}", "--max-lag", "2"],
    ["theory", "acf", "--lambda", "1", "--max-lag", "-1", "--out", "{out}"],
    ["theory", "increment-acf", "--lambda", "1", "--max-lag", "0", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--max-s", "0", "--out", "{out}"],
    _simulate_args("{out}", extra=["--driver", "gamma:a=nan,b=1"]),
    _simulate_args("{out}", extra=["--driver", "brownian:gamma=inf"]),
    _simulate_args("{out}", extra=["--driver", "cpoisson:eta=nan,jump=point,c=1"]),
    _simulate_args("{out}", extra=["--driver", "cpoisson:eta=1,jump=exponential,rate=inf"]),
    _simulate_args("{out}", extra=["--driver", "drift:gamma=nan"]),
    ["sv", "--driver", "gamma:a=1,b=nan", "--lambda", "1", "--t-max", "1",
     "--dt", "0.1", "--out", "{out}"],
    ["theory", "acf", "--lambda", "inf", "--max-lag", "5", "--out", "{out}"],
    ["theory", "acf", "--lambda", "1", "--dh", "nan", "--out", "{out}"],
    ["theory", "acf", "--lambda", "1", "--dh", "0", "--out", "{out}"],
    ["fit", "--input", "{nan_rho}", "--max-lag", "2"],
    ["fit", "--input", "{inf_rho}", "--max-lag", "2"],
    ["fit", "--input", "{frac_lag}", "--max-lag", "2"],
    ["signature", "--input", "{binary}", "--max-skip", "1", "--out", "{out}"],
    ["signature", "--input", "{huge_cell}", "--max-skip", "1", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--delta", "nan", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--delta", "inf", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--mu", "nan", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--mu", "inf", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--v", "inf", "--out", "{out}"],
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--alpha", "nan", "--t-max", "1",
     "--dt", "0.1", "--out", "{out}"],
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--beta", "inf", "--t-max", "1",
     "--dt", "0.1", "--out", "{out}"],
    _simulate_args("{out}", extra=["--seed", "-1"]),
    ["theory", "sv", "--lambda", "1", "--delta", "1e308", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1e-300", "--out", "{out}"],
    ["theory", "sv", "--lambda", "1", "--mu", "1e308", "--out", "{out}"],
    _simulate_args("{out}", extra=["--driver", "brownian", "--t-max", "1e300", "--dt", "1e-5"]),
    _simulate_args("{out}", lam="1e-300", extra=["--driver", "brownian"]),
    _simulate_args("{out}", lam="1e-300"),
    _simulate_args("{out}", lam="1e-300", extra=["--driver", "cpoisson:eta=1,jump=point,c=1"]),
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1e-300", "--t-max", "1",
     "--dt", "0.1", "--out", "{out}"],
    ["signature", "--input", "{huge_x}", "--max-skip", "2", "--out", "{out}"],
    ["acf", "--input", "{huge_x}", "--max-lag", "2", "--out", "{out}"],
    ["theory", "increment-acf", "--lambda", "1e-300", "--out", "{out}"],
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1e-300", "--t-max", "1",
     "--dt", "0.01", "--out", "{out}"],
    ["theory", "acf", "--lambda", "1e308", "--dh", "10", "--max-lag", "3", "--out", "{out}"],
    ["sv", "--driver", "cpoisson:eta=2,jump=point,c=1e-300", "--lambda", "1e300",
     "--t-max", "1", "--dt", "0.01", "--seed", "1", "--out", "{out}"],
    _simulate_args("{out}", extra=["--driver", "gamma:a=1e300,b=1e-300"]),
    ["theory", "sv", "--lambda", "1", "--driver", "gamma:a=1e300,b=1e-300", "--out", "{out}"],
], ids=["paths-0", "t-max-nan", "dt-inf", "lambda-inf", "sv-lambda-inf", "sv-paths-0",
        "acf-bad-cell", "signature-bad-cell", "fit-bad-cell", "theory-acf-max-lag-neg",
        "theory-iacf-max-lag-0", "theory-sv-max-s-0", "driver-gamma-nan",
        "driver-brownian-inf", "driver-cpoisson-nan", "driver-jump-rate-inf",
        "driver-drift-nan", "sv-driver-nan", "theory-acf-lambda-inf", "theory-acf-dh-nan",
        "theory-acf-dh-0", "fit-nan-rho", "fit-inf-rho", "fit-fractional-lag",
        "signature-undecodable", "signature-huge-quoted-cell", "theory-sv-delta-nan",
        "theory-sv-delta-inf", "theory-sv-mu-nan", "theory-sv-mu-inf", "theory-sv-v-inf",
        "sv-alpha-nan", "sv-beta-inf", "simulate-seed-negative", "theory-sv-delta-huge",
        "theory-sv-lambda-tiny", "theory-sv-mu-huge", "simulate-steps-unindexable",
        "simulate-horizon-unindexable-brownian", "simulate-horizon-unindexable-gamma",
        "simulate-horizon-unindexable-cpoisson", "sv-horizon-unindexable",
        "signature-huge-values", "acf-huge-values", "theory-iacf-lambda-tiny",
        "sv-horizon-unindexable-fine-dt", "theory-acf-overflow", "sv-poisson-mean-huge",
        "simulate-gamma-moments-overflow", "theory-sv-gamma-moments-overflow"])
def test_input_faults_exit_2_without_output(tmp_path, capsys, argv):
    inputs = {"bad": _table_with_bad_cell(tmp_path / "bad.csv")}
    for name, text in _FAULTY_INPUTS.items():
        inputs[name] = tmp_path / f"{name}.csv"
        inputs[name].write_bytes(text.encode("utf-8", "surrogateescape"))
    out = tmp_path / "out.csv"
    argv = [a.format(out=out, **inputs) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        p.name for p in inputs.values())


#: a child's address-space cap: room for Python, NumPy and SciPy, and far
#: below the arrays the out-of-memory cases ask for
_CHILD_MEMORY = 1 << 30


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("argv", [
    ["theory", "acf", "--lambda", "1", "--max-lag", "100000000000"],
    ["theory", "increment-acf", "--lambda", "1", "--max-lag", "100000000000"],
    ["simulate", "--driver", "brownian", "--lambda", "1", "--t-max", "1e7", "--dt", "1e-6"],
], ids=["theory-acf", "theory-increment-acf", "simulate"])
def test_out_of_memory_exits_2_without_output(tmp_path, argv):
    """An array larger than memory ends in one error line, not a
    traceback.  The child runs under a 1 GiB address-space cap, so the
    refused allocation cannot take memory from anything else."""
    src = os.path.dirname(os.path.dirname(wbou.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "wbou", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, preexec_fn=_capped,
                          timeout=120)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate")
    assert not out.exists()


def test_sv_grid_error_names_the_given_grid(tmp_path, capsys):
    argv = ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1e-300", "--t-max", "1",
            "--dt", "0.01", "--out", str(tmp_path / "sv.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: lambda=1e-300, dt=0.01: ")


def test_bad_cell_error_names_file_and_line(tmp_path, capsys):
    bad = _table_with_bad_cell(tmp_path / "bad.csv")
    main(["acf", "--input", str(bad), "--max-lag", "2", "--out", str(tmp_path / "a.csv")])
    assert f"{bad}: line 4: cannot read 'abc'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# theory


def test_theory_acf_first_row_is_one(tmp_path):
    out = tmp_path / "acf.csv"
    argv = ["theory", "acf", "--lambda", "1", "--max-lag", "10", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,acf_wbou,acf_ou"
    assert len(lines) == 1 + 11
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0]


def test_theory_acf_matches_library(tmp_path):
    out = tmp_path / "acf.csv"
    main(["theory", "acf", "--lambda", "0.7", "--max-lag", "5", "--dh", "0.5",
          "--out", str(out)])
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    p = SecondOrderParams(0.7)
    assert np.array_equal(rows[:, 1], acf_x(p, rows[:, 0]))
    assert np.array_equal(rows[:, 2], acf_ou(p, rows[:, 0]))


def test_theory_increment_acf_matches_library(tmp_path):
    out = tmp_path / "iacf.csv"
    main(["theory", "increment-acf", "--lambda", "1.5", "--max-lag", "8",
          "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "k,rho_wbou,rho_ou"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    ks = np.arange(1, 9)
    assert np.array_equal(rows[:, 0], ks)
    p = SecondOrderParams(1.5)
    assert np.array_equal(rows[:, 1], increment_acf(p, ks))
    assert np.array_equal(rows[:, 2], increment_acf_ou(p, ks))


def test_theory_increment_acf_at_a_huge_rate(tmp_path):
    """At lam = 800 both models are at their lam -> inf limit: lag 1 at
    -1/2, every later lag finite and at most 0."""
    out = tmp_path / "iacf.csv"
    assert main(["theory", "increment-acf", "--lambda", "800", "--max-lag", "5",
                 "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[0, 1:].tolist() == [-0.5, -0.5]
    assert np.all(np.isfinite(rows[1:, 1:])) and np.all(rows[1:, 1:] <= 0.0)


def test_theory_sv_curves_from_driver(tmp_path):
    out = tmp_path / "sv.csv"
    main(["theory", "sv", "--lambda", "1", "--delta", "1", "--max-s", "4",
          "--driver", "gamma:a=1,b=1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "s,R,cov_iv,corr_sq_returns"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.arange(1, 5))
    for s, r_val, cov, corr in rows:
        # gamma(a=1,b=1) spot-vol moments are mean 2, variance 1
        assert r_val == big_r(1.0, 1.0, int(s))
        assert cov == cov_integrated_vol(1.0, 1.0, 1.0, int(s))
        assert corr == corr_squared_returns(2.0, 1.0, 1.0, 1.0, int(s))


@pytest.mark.parametrize("argv, message", [
    (["acf", "--driver", "nonsense", "--delta", "5", "--mu", "3", "--max-s", "4"],
     "theory acf does not read --delta, --max-s, --mu, --driver"),
    (["sv", "--driver", "gamma:a=1,b=1", "--mu", "5", "--v", "2", "--dh", "0.3"],
     "theory sv does not read --dh"),
    (["increment-acf", "--dh", "0.5", "--v", "1"], "theory increment-acf does not read --dh, --v"),
    (["sv", "--max-lag", "5"], "theory sv does not read --max-lag"),
    (["sv", "--driver", "gamma:a=1,b=1", "--mu", "5"],
     "theory sv takes --driver or --mu/--v, not both"),
    (["sv", "--driver", "gamma:a=1,b=1", "--v", "2"],
     "theory sv takes --driver or --mu/--v, not both"),
], ids=["acf-sv-flags", "sv-dh", "iacf-dh-v", "sv-max-lag", "sv-driver-mu", "sv-driver-v"])
def test_theory_refuses_the_flags_its_kind_does_not_read(tmp_path, capsys, argv, message):
    out = tmp_path / "t.csv"
    assert main(["theory", *argv, "--lambda", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_theory_refuses_a_config_flag_its_kind_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu=0.5\n")
    out = tmp_path / "t.csv"
    argv = ["theory", "acf", "--config", str(cfg), "--lambda", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: theory acf does not read --mu\n"
    assert not out.exists()
    assert main(["theory", "sv", "--config", str(cfg), "--lambda", "1", "--out", str(out)]) == 0


def test_theory_sv_curves_from_moment_flags(tmp_path):
    out = tmp_path / "sv.csv"
    main(["theory", "sv", "--lambda", "0.5", "--delta", "2", "--max-s", "3",
          "--mu", "0.0", "--v", "1.3", "--out", str(out)])
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for s, _, cov, corr in rows:
        assert cov == cov_integrated_vol(1.3, 0.5, 2.0, int(s))
        assert corr == corr_squared_returns(0.0, 1.3, 0.5, 2.0, int(s))


# ---------------------------------------------------------------------------
# fit / acf


def _write_exact_acf(path, lam, max_lag):
    p = SecondOrderParams(lam)
    with open(path, "w") as fh:
        fh.write("lag,rho_hat\n")
        for k in range(max_lag + 1):
            fh.write(f"{k},{acf_x(p, float(k))!r}\n")


def test_fit_recovers_exact_curve_and_picks_winner(tmp_path, capsys):
    table = tmp_path / "acf.csv"
    _write_exact_acf(table, lam=0.8, max_lag=40)
    argv = ["fit", "--input", str(table), "--model", "both", "--max-lag", "40"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("model=wbou lambda_hat=")
    assert lines[1].startswith("model=ou lambda_hat=")
    assert lines[2] == "winner=wbou"
    lam_hat = float(lines[0].split("lambda_hat=")[1].split()[0])
    assert abs(lam_hat - 0.8) < 1e-5
    assert "boundary=false" in lines[0]


def test_fit_single_model_no_winner_line(tmp_path, capsys):
    table = tmp_path / "acf.csv"
    _write_exact_acf(table, lam=1.3, max_lag=30)
    assert main(["fit", "--input", str(table), "--model", "ou",
                 "--max-lag", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("model=ou ")


def test_fit_missing_input_exits_1(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--max-lag", "5"])
    assert code == 1
    assert "i/o error:" in capsys.readouterr().err


def test_fit_bad_window_exits_2(tmp_path, capsys):
    table = tmp_path / "acf.csv"
    _write_exact_acf(table, lam=1.0, max_lag=10)
    code = main(["fit", "--input", str(table), "--min-lag", "9",
                 "--max-lag", "5"])
    assert code == 2


def test_acf_command_writes_fit_table(tmp_path, capsys):
    src = tmp_path / "series.csv"
    rng = np.random.default_rng(7)
    with open(src, "w") as fh:
        fh.write("x\n")
        for v in rng.standard_normal(500):
            fh.write(f"{float(v)!r}\n")
    out = tmp_path / "acf.csv"
    assert main(["acf", "--input", str(src), "--max-lag", "20",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lag,rho_hat,rho_wbou_fit,rho_ou_fit"
    assert len(lines) == 1 + 21
    summary = capsys.readouterr().out
    assert "lambda_wbou=" in summary and "rss_ou=" in summary
    acf = empirical_acf(read_series_csv(src), 20)
    for model in ("wbou", "ou"):
        flag = str(fit_acf(acf, model, (1, 20)).at_boundary).lower()
        assert f"boundary_{model}={flag}" in summary.split()


# ---------------------------------------------------------------------------
# signature


def test_signature_row_cardinality(tmp_path, capsys):
    src = tmp_path / "ticks.csv"
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.standard_normal(301)) * 0.1
    with open(src, "w") as fh:
        fh.write("x\n")
        fh.writelines(f"{float(v)!r}\n" for v in x)
    out = tmp_path / "sig.csv"
    assert main(["signature", "--input", str(src), "--max-skip", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "skip,rv"
    assert len(lines) == 1 + 50
    first_skip, first_rv = lines[1].split(",")
    assert int(first_skip) == 1
    assert np.isclose(float(first_rv), np.sum(np.diff(x) ** 2))


def test_signature_skip_too_large_exits_2(tmp_path, capsys):
    src = tmp_path / "ticks.csv"
    with open(src, "w") as fh:
        fh.write("x\n" + "".join(f"{float(i)}\n" for i in range(20)))
    code = main(["signature", "--input", str(src), "--max-skip", "10",
                 "--out", str(tmp_path / "sig.csv")])
    assert code == 2
    assert "max_skip" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sv


def test_sv_writes_columns(tmp_path, capsys):
    out = tmp_path / "sv.csv"
    argv = ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1",
            "--t-max", "1.0", "--dt", "0.05", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y,x,int_x"
    assert len(lines) == 1 + 21
    assert "sv driver=gamma:a=1,b=1" in capsys.readouterr().out


def test_sv_deterministic(tmp_path):
    argv = lambda name: ["sv", "--driver", "cpoisson:eta=2,jump=exponential,rate=1",
                         "--lambda", "0.5", "--t-max", "1.0", "--dt", "0.1",
                         "--seed", "11", "--out", str(tmp_path / name)]
    main(argv("a.csv"))
    main(argv("b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("driver", ["brownian", "brownian:gamma=1,sigma2=0.5",
                                    "brownian:gamma=-1,sigma2=0", "drift:gamma=-1"])
def test_sv_rejects_signed_driver(tmp_path, capsys, driver):
    argv = ["sv", "--driver", driver, "--lambda", "1",
            "--t-max", "1.0", "--dt", "0.1", "--out", str(tmp_path / "sv.csv")]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_sv_takes_brownian_without_variance_as_drift(tmp_path):
    """brownian:gamma=1,sigma2=0 is the drift subordinator, bitwise."""
    argv = lambda drv, name: ["sv", "--driver", drv, "--lambda", "1", "--t-max", "1.0",
                              "--dt", "0.1", "--seed", "3", "--out", str(tmp_path / name)]
    assert main(argv("brownian:gamma=1,sigma2=0", "bm.csv")) == 0
    assert main(argv("drift:gamma=1", "drift.csv")) == 0
    assert (tmp_path / "bm.csv").read_bytes() == (tmp_path / "drift.csv").read_bytes()


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "from_cfg.csv"
    cfg.write_text(
        "# simulation setup\n"
        "driver=gamma:a=1,b=1\n"
        "lambda=1.0\n"
        "\n"
        "t-max=2.0\n"
        "dt=0.1\n"
        "seed=42\n"
        f"out={out}\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    direct = tmp_path / "direct.csv"
    main(_simulate_args(direct))
    assert out.read_bytes() == direct.read_bytes()


def test_explicit_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("driver=gamma:a=1,b=1\nlambda=1.0\nt-max=2.0\ndt=0.1\nseed=42\n")
    over = tmp_path / "override.csv"
    assert main(["simulate", "--config", str(cfg), "--lambda", "2.0",
                 "--out", str(over)]) == 0
    direct = tmp_path / "direct.csv"
    main(_simulate_args(direct, lam="2.0"))
    assert over.read_bytes() == direct.read_bytes()


def test_config_bad_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("driver gamma\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bad config line" in capsys.readouterr().err


def test_config_missing_file_exits_1(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "i/o error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --seed belongs to the subcommands that draw random numbers


@pytest.mark.parametrize("argv", [
    ["theory", "acf", "--lambda", "1", "--out", "{out}"],
    ["acf", "--input", "{series}", "--max-lag", "3", "--out", "{out}"],
    ["fit", "--input", "{series}", "--max-lag", "3"],
    ["signature", "--input", "{series}", "--max-skip", "2", "--out", "{out}"],
], ids=["theory", "acf", "fit", "signature"])
def test_seed_is_refused_where_nothing_is_drawn(tmp_path, capsys, argv):
    series = tmp_path / "series.csv"
    _fixed_series(series)
    out = tmp_path / "out.csv"
    assert main([a.format(out=out, series=series) for a in argv] + ["--seed", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: unrecognized arguments: --seed 1")
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["theory", "acf", "--out", "t.csv"], 2),
    (["theory", "acf", "--lambda", "one", "--out", "t.csv"], 2),
    (["simulate", "--bogus"], 2),
    ([], 2),
    (["--help"], 0),
    (["theory", "--help"], 0),
    (["--version"], 0),
], ids=["missing-flag", "bad-float", "unknown-flag", "no-command", "help", "sub-help",
        "version"])
def test_usage_is_returned_as_a_code(argv, code, capsys):
    # argparse prints as usual; main returns its code instead of exiting
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err)


def test_seed_in_a_config_file_is_refused_by_acf_and_read_by_simulate(tmp_path, capsys):
    series = tmp_path / "series.csv"
    _fixed_series(series)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\n")
    assert main(["acf", "--config", str(cfg), "--input", str(series), "--max-lag", "3",
                 "--out", str(tmp_path / "acf.csv")]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["simulate", "--config", str(cfg), "--driver", "gamma:a=1,b=1",
                 "--lambda", "1.0", "--t-max", "2.0", "--dt", "0.1",
                 "--out", str(tmp_path / "cfg.csv")]) == 0
    main(_simulate_args(tmp_path / "direct.csv", seed="1"))
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


# ---------------------------------------------------------------------------
# generated inputs for the reading subcommands

#: cells of generated input files: readable numbers, every float at full
#: precision, and spellings the reader must refuse or read with care
READABLE = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-2, 40).map(str))
CELLS = st.one_of(
    READABLE,
    st.floats().map(repr),
    st.sampled_from(["", " ", "abc", "1_0", '"1,2"', "1e999", "-0", " 2 ", "\x00", "\xff"]),
)


#: headers of generated inputs: what each subcommand reads, and for fit
#: a series it cannot use
HEADERS = {"acf": ["x", "t,x", "x,t"], "signature": ["x", "t,x", "x,t"],
           "fit": ["lag,rho_hat", "lag,rho_hat,x", "rho_hat,lag", "x"]}


@st.composite
def input_files(draw, command):
    """Rows as wide as the header, mostly of readable cells.  An index
    column (t or lag) that comes first counts 0, 1, 2, ..."""
    names = draw(st.sampled_from(HEADERS[command])).split(",")
    cells = draw(st.sampled_from([READABLE, READABLE, CELLS]))
    rows = draw(st.lists(st.lists(cells, min_size=len(names), max_size=len(names)),
                         max_size=30))
    if names[0] in ("t", "lag"):
        for k, row in enumerate(rows):
            row[0] = str(k)
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "\n".join([",".join(names)] + [",".join(r) for r in rows]) + end


def reading_argv(data, command, src, out):
    """Small windows and skips, some of them out of range."""
    lag = str(data.draw(st.integers(0, 6), label="max_lag"))
    if command == "acf":
        return ["acf", "--input", src, "--max-lag", lag, "--out", out]
    if command == "signature":
        skip = str(data.draw(st.integers(0, 6), label="max_skip"))
        return ["signature", "--input", src, "--max-skip", skip, "--out", out]
    model = data.draw(st.sampled_from(["both", "wbou", "ou"]), label="model")
    low = str(data.draw(st.integers(0, 3), label="min_lag"))
    return ["fit", "--input", src, "--model", model, "--min-lag", low, "--max-lag", lag]


@pytest.mark.parametrize("command", ["acf", "signature", "fit"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_reading_subcommands_exit_0_or_2_on_generated_inputs(tmp_path_factory, command, data):
    """Exit 0 with a finite table, or exit 2 with one error line and no
    output file; never a traceback."""
    tmp = tmp_path_factory.mktemp(command)
    src, out = tmp / "in.csv", tmp / "out.csv"
    src.write_bytes(data.draw(input_files(command), label="input").encode("utf-8", "surrogateescape"))
    argv = reading_argv(data, command, str(src), str(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    event(f"exit {code}")
    if code == 2:
        err = stderr.getvalue().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()
        return
    assert code == 0 and stderr.getvalue() == ""
    assert stdout.getvalue()
    if command != "fit":
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) > 0 and np.isfinite(rows).all()


# ---------------------------------------------------------------------------
# pipeline round trip


def test_simulate_acf_fit_round_trip(tmp_path, capsys):
    """simulate -> acf -> fit recovers the simulation rate.

    The fitted rate is per sample lag, so dividing by dt recovers the
    continuous-time rate; a long path keeps the noise within ~15%.
    """
    lam, dt = 1.5, 0.1
    series = tmp_path / "series.csv"
    main(["simulate", "--driver", "gamma:a=1,b=1", "--lambda", str(lam),
          "--t-max", "5000", "--dt", str(dt), "--seed", "3",
          "--out", str(series)])
    table = tmp_path / "acf.csv"
    main(["acf", "--input", str(series), "--max-lag", "100",
          "--out", str(table)])
    capsys.readouterr()
    assert main(["fit", "--input", str(table), "--model", "both",
                 "--max-lag", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    wbou_line = next(l for l in lines if l.startswith("model=wbou"))
    lam_hat = float(wbou_line.split("lambda_hat=")[1].split()[0]) / dt
    assert abs(lam_hat - lam) / lam < 0.15
    assert lines[-1] == "winner=wbou"


# ---------------------------------------------------------------------------
# frozen outputs


def _fixed_series(path):
    """An AR(1)-like series from integer arithmetic, identical on every run."""
    y, rows = 0.0, ["x"]
    for k in range(2000):
        y = 0.9 * y + ((k * 7919) % 1009) / 1009 - 0.5
        rows.append(repr(y))
    path.write_text("\n".join(rows) + "\n")


#: SHA-256 of CLI outputs for fixed inputs and seeds (numpy 2.4, x86-64).
#: A change to any digest is a change of output that has to be announced;
#: the simulate and sv digests follow the one-route stream layout (G and
#: X^+_{t_max} drawn whole, through the driver's hook) and the block scan
#: of the path recursions, theory sv the sinh form of big_r, theory
#: increment-acf the expm1 form of increment_acf_ou.
FROZEN = {
    "theory_acf": (["theory", "acf", "--lambda", "1", "--max-lag", "50", "--dh", "0.1"],
                   "9681ee55fd1524ec1641f004d392655334a95672ab147a22edb22115c8c32af6"),
    "theory_increment_acf": (["theory", "increment-acf", "--lambda", "1.5", "--max-lag", "20"],
                             "37da50408f4ba2ba12dbc3156d8de1a5ad0bbe972671d432875a697b3001c9eb"),
    "theory_sv": (["theory", "sv", "--lambda", "1", "--delta", "1", "--max-s", "20",
                   "--driver", "gamma:a=1,b=1"],
                  "54f10d8072af933f85325ef5c7de5d5948d5278694e9f49cdf83eb11e3e48900"),
    "acf": (["acf", "--input", "{series}", "--max-lag", "30"],
            "7451ab4a4a6b62f6b09bd4f42606fdacb3d6d46b305c7f6ddffafcf784968de4"),
    "signature": (["signature", "--input", "{series}", "--max-skip", "20"],
                  "eb1de915a066e24faf45aef35e8754b687ec915b29cd073b2af4bfe15ab6d454"),
    "simulate": (["simulate", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--t-max", "2",
                  "--dt", "0.01", "--seed", "7"],
                 "c933d538f68170e8c60ee0202d2514219b11c5bfe81da615af669814193c6c20"),
    "sv": (["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--t-max", "2",
            "--dt", "0.01", "--seed", "7"],
           "bfe6879afd73b51c8694627d5a4566dcd05e1aea55ac5949e322015f88ffa517"),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_frozen_output_digest(tmp_path, name):
    series = tmp_path / "series.csv"
    _fixed_series(series)
    argv, digest = FROZEN[name]
    out = tmp_path / f"{name}.csv"
    assert main([a.format(series=series) for a in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# packaging

@pytest.mark.skipif(shutil.which("wbou") is None,
                    reason="console script not on PATH")
def test_console_script_version():
    proc = subprocess.run(["wbou", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("wbou ")


def test_package_module_version():
    # python -m wbou runs the same main as the console script
    src = os.path.dirname(os.path.dirname(wbou.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "wbou", "--version"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("wbou ")


def test_module_invocation_help():
    # the child imports the same wbou as this process, installed or not
    src = os.path.dirname(os.path.dirname(wbou.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wbou.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for cmd in ("simulate", "theory", "acf", "fit", "signature", "sv"):
        assert cmd in proc.stdout


#: run in a fresh interpreter: argv[1] is a directory holding series.csv;
#: prints the scipy modules loaded after the subcommands that need none and
#: a CARMA replay
_NO_SCIPY_CHILD = """
import sys
import wbou, wbou.cli
d = sys.argv[1]
for argv in (
    ["simulate", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--t-max", "2", "--dt", "0.01",
     "--seed", "7", "--out", d + "/path.csv"],
    ["sv", "--driver", "gamma:a=1,b=1", "--lambda", "1", "--t-max", "2", "--dt", "0.01",
     "--seed", "7", "--out", d + "/sv.csv"],
    ["theory", "acf", "--lambda", "1", "--max-lag", "20", "--out", d + "/t1.csv"],
    ["theory", "increment-acf", "--lambda", "1", "--max-lag", "20", "--out", d + "/t2.csv"],
    ["theory", "sv", "--lambda", "1", "--max-s", "5", "--driver", "gamma:a=1,b=1",
     "--out", d + "/t3.csv"],
    ["acf", "--input", d + "/series.csv", "--max-lag", "30", "--out", d + "/acf.csv"],
    ["fit", "--input", d + "/acf.csv", "--min-lag", "1", "--max-lag", "30"],
    ["signature", "--input", d + "/series.csv", "--max-skip", "5", "--out", d + "/sig.csv"],
):
    assert wbou.cli.main(argv) == 0, argv
grid = wbou.SimulationGrid(2.0, 0.01)
path = wbou.simulate_wbou(wbou.GammaSubordinatorDriver(1.0, 1.0), 1.0, grid, rng=7)
wbou.simulate_carma(wbou.carma_from_wbou(path), path.dl, grid)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


#: run in a fresh interpreter: every integral of the marginal law, then
#: whether scipy.integrate was loaded (scipy.special may be)
_NO_INTEGRATE_CHILD = """
import math, sys
import wbou as W
subordinators = [W.gamma_subordinator(1.5, 2.0), W.compound_poisson(3.0, W.ExponentialJumps(1.5)),
                 W.compound_poisson(1.5, W.PointMassJumps(0.7)), W.deterministic_drift(0.4)]
for d in subordinators:
    W.kbar(d, 0.5)
    W.kbar(d, -0.1)
drivers = subordinators + [W.compound_poisson(2.0, W.NormalJumps(0.3, 0.8)), W.brownian(0.3, 1.2)]
for d in drivers:
    W.char_fn_x(d, 0.8, [0.5, -2.0])
    W.char_fn_joint(d, 0.8, [0.0, 0.7], [0.5, -1.0])
    measure = W.triplet_of_x(d, 0.8).measure
    for y in (0.05, 1.0, 7.5):
        measure.tail_pos(y)
        measure.tail_neg(y)
W.gbar_from_g(lambda x: 1.5 * math.exp(-2.0 * x) / x, 0.5)
print("scipy.integrate" in sys.modules)
"""


def test_law_loads_no_scipy_integrate():
    # a fresh child: pytest's filterwarnings has imported scipy.integrate here
    src = os.path.dirname(os.path.dirname(wbou.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _NO_INTEGRATE_CHILD],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_simulation_law_and_estimation_subcommands_load_no_scipy(tmp_path):
    # a fresh child: pytest's filterwarnings has imported scipy.integrate here
    _fixed_series(tmp_path / "series.csv")
    src = os.path.dirname(os.path.dirname(wbou.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

"""The benchmark's workloads: inputs from the seed, operations, checks.

A workload is built once per worker process from the run's seed.  One
round is a fixed sequence of operations (``ops``); ``run`` performs one
operation through wbou's public API (or ``wbou.cli.main``) and returns
its outputs, and ``check`` checks them against ``refs`` after the timer
has stopped.  ``samples`` returns what a process gathered for the
statistical checks, which ``check_pooled`` makes once per run on the
samples of all its processes.  Every wbou function is looked up on the
package at call time, so the traced run sees each call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import refs

# ---------------------------------------------------------------------------
# mc_ensemble


class McEnsemble:
    """Monte Carlo through the library in the criterion-02 regime.

    At lam = 1, dt = 1e-3 the default truncation draws 27 632 half-line
    increments per side against 7 000 main-window steps, so half-line
    sampling dominates.  One operation: ensembles of N_PATHS paths with
    gamma, Brownian and compound-Poisson drivers, an SV ensemble, one SV
    path, and one simulate_wbou path replayed through the CARMA form.
    """

    name = "mc_ensemble"
    ops = ("ensemble",)
    expected_failures = {}
    LAM, DT, T_MAX, N_PATHS, LAG = 1.0, 1e-3, 7.0, 20, 1000   # LAG steps = h of 1.0

    def __init__(self, W, seed: int, worker: int, tmpdir: Path):
        self.W, self.seed, self.worker = W, seed, worker
        self.grid = W.SimulationGrid(self.T_MAX, self.DT)
        self.drivers = {name: (drv, *CUMULANTS[name]) for name, drv in (
            ("gamma", W.gamma_subordinator(1.0, 1.0)),
            ("brownian", W.brownian(0.5, 1.0)),
            ("cpoisson", W.compound_poisson(5.0, W.ExponentialJumps(1.0))),
        )}
        self.stats = {k: [] for k in (*self.drivers, "sv_x", "sv_y")}

    def _rng(self, i: int, k: int):
        key = (self.worker, i + 1, k)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def run(self, op, tr, i):
        W, grid = self.W, self.grid
        out = {}
        for k, (name, (drv, *_)) in enumerate(self.drivers.items()):
            out[name] = W.simulate_wbou_ensemble(tr.driver(drv), self.LAM, grid,
                                                 self.N_PATHS, rng=self._rng(i, k))
        spec = W.SvSpec(0.0, 0.0, self.LAM, tr.driver(self.drivers["gamma"][0]))
        out["sv"] = W.simulate_sv_ensemble(spec, grid, self.N_PATHS, rng=self._rng(i, 3))
        out["sv_path"] = W.simulate_sv(spec, grid, rng=self._rng(i, 4))
        out["iv_explicit"] = W.integrated_vol_explicit(out["sv_path"])
        path = W.simulate_wbou(tr.driver(self.drivers["gamma"][0]), self.LAM, grid,
                               rng=self._rng(i, 5))
        out["path"] = path
        out["carma"] = W.simulate_carma(W.carma_from_wbou(path), path.dl, grid)
        return out

    def check(self, op, out, i):
        for name, (_, mu, *_) in self.drivers.items():
            self.stats[name].append(refs.path_stats(out[name].x, 2.0 * mu / self.LAM, self.LAG))
        sv = out["sv"]
        # spot volatility runs on the lam-scaled clock: a unit-rate process
        # on a grid of step lam dt
        self.stats["sv_x"].append(refs.path_stats(sv.x, 2.0 * self.drivers["gamma"][1], self.LAG))
        self.stats["sv_y"].append({"y": sv.y[:, -1].copy()})
        return check_mc_outputs(out, self.LAM, self.DT)

    def samples(self):
        return {k: {f: v.tolist() for f, v in _merge(parts).items()}
                for k, parts in self.stats.items()}

    @classmethod
    def check_pooled(cls, samples):
        """Moments of the paths of every process of a run against the model."""
        pooled = {k: {f: np.concatenate([s[k][f] for s in samples]) for f in samples[0][k]}
                  for k in samples[0]}
        fails = []
        n_points = round(cls.T_MAX / cls.DT) + 1
        for name in ("gamma", "brownian", "cpoisson"):
            fails += refs.check_moments(name, pooled[name], *CUMULANTS[name], cls.LAM, cls.LAG,
                                        cls.DT, n_points)
        mu, k2, k4 = CUMULANTS["gamma"]
        dt1 = cls.LAM * cls.DT
        fails += refs.check_moments("sv x", pooled["sv_x"], mu, k2, k4, 1.0, cls.LAG, dt1,
                                    n_points)
        # with alpha = beta = 0, Y_T = sum_k sqrt(x_k) dW_k given Q = dt sum_k x_k
        # is N(0, Q): E Y_T^2 = E Q = 2 mu T, Var Y_T^2 = 3 Var Q + 2 (E Q)^2
        n = n_points - 1
        mean_q = 2.0 * mu * cls.T_MAX
        var_q = (n * cls.DT) ** 2 * refs.grid_mean_var(lambda h: refs.lin_cov(k2, 1.0, h), n, dt1)
        y = pooled["sv_y"]["y"]
        fails += refs.clt_mean("sv y_T mean", y, 0.0, math.sqrt(mean_q))
        fails += refs.clt_mean("sv y_T^2 mean", y**2, mean_q, math.sqrt(3.0 * var_q + 2.0 * mean_q**2))
        return fails


def _merge(parts):
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


#: mean, variance and fourth cumulant of L(1) for mc_ensemble's drivers:
#: gamma(1, 1) has k4 = 6a/b^4; compound Poisson at rate 5 with Exp(1)
#: jumps has k_n = 5 n!, so k2 = 10 and k4 = 120
CUMULANTS = {"gamma": (1.0, 1.0, 6.0), "brownian": (0.5, 1.0, 0.0), "cpoisson": (5.0, 10.0, 120.0)}


def check_mc_outputs(out, lam, dt):
    """Pathwise checks of one mc_ensemble operation."""
    fails = []
    sv = out["sv"]
    fails += refs.close("sv int_x vs trapezoid of x", sv.int_x, refs.trapezoid(sv.x, dt),
                        atol=1e-12 * float(np.abs(sv.int_x).max()))
    # trapezoid = explicit * (h/2) coth(h/2), h = lam dt, pointwise
    p = out["sv_path"]
    want = out["iv_explicit"] * refs.kappa(lam * dt)
    fails += refs.close("sv int_x vs explicit * kappa", p.int_x, want,
                        atol=1e-12 * float(np.abs(p.int_x).max()))
    path = out["path"]
    if not np.array_equal(path.x, path.x_minus + path.x_plus):
        fails.append("path: x != x_minus + x_plus")
    if path.x_minus.min() < 0 or path.x_plus.min() < 0:
        fails.append("path: negative component under a gamma driver")
    fails += refs.close("carma replay vs x", out["carma"], path.x,
                        atol=1e-10 * float(np.abs(path.x).max()))
    return fails


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """wbou.cli.main in-process over a temporary directory.

    One operation: simulate one 1e5-step path to CSV (lam dt = 0.01, so
    the 2 x 4096 half-line draws are 7.6 % of all draws), acf,
    fit and signature on that CSV, an SV path to CSV, and the three
    theory tables.  CSV formatting and parsing dominate.
    """

    name = "cli_pipeline"
    ops = ("pipeline",)
    expected_failures = {}
    LAM, DT, N, MAX_LAG, MAX_SKIP = 1.0, 0.01, 100_000, 300, 50
    SV_N = 20_000
    FIT_RTOL = 0.3

    def __init__(self, W, seed: int, worker: int, tmpdir: Path):
        self.W = W
        self.files = {k: tmpdir / f"{k}.csv" for k in
                      ("path", "acf", "sig", "sv", "th_acf", "th_iacf", "th_sv")}
        f = {k: str(v) for k, v in self.files.items()}
        drv = "gamma:a=1,b=1"
        s = str(seed)
        self.argvs = [
            ["simulate", "--driver", drv, "--lambda", "1", "--t-max", str(self.N * self.DT),
             "--dt", str(self.DT), "--seed", s, "--out", f["path"]],
            ["acf", "--input", f["path"], "--max-lag", str(self.MAX_LAG), "--out", f["acf"]],
            ["fit", "--input", f["acf"], "--model", "both", "--max-lag", str(self.MAX_LAG)],
            ["signature", "--input", f["path"], "--max-skip", str(self.MAX_SKIP),
             "--out", f["sig"]],
            ["sv", "--driver", drv, "--lambda", "1", "--t-max", str(self.SV_N * self.DT),
             "--dt", str(self.DT), "--seed", s, "--out", f["sv"]],
            ["theory", "acf", "--lambda", "1", "--max-lag", "50", "--dh", "0.1",
             "--out", f["th_acf"]],
            ["theory", "increment-acf", "--lambda", "1.5", "--max-lag", "20",
             "--out", f["th_iacf"]],
            ["theory", "sv", "--lambda", "1", "--delta", "1", "--max-s", "20", "--driver", drv,
             "--out", f["th_sv"]],
        ]
        self._digest = None

    def run(self, op, tr, i):
        codes = []
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            for argv in self.argvs:
                codes.append(self.W.cli.main(argv))
        return {"codes": codes, "stdout": buf.getvalue()}

    def _hash(self, out):
        h = hashlib.sha256(repr(out).encode())
        for p in self.files.values():
            h.update(p.read_bytes())
        return h.digest()

    def check(self, op, out, i):
        digest = self._hash(out)
        if digest == self._digest:
            return []      # byte-identical to outputs that passed every check
        fails = check_cli_outputs(out, self.files, self)
        if not fails:
            self._digest = digest
        return fails

    def samples(self):
        return {}

    @classmethod
    def check_pooled(cls, samples):
        return []


def _table(path, header: str):
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise ValueError(f"{path}: header {first!r}, want {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cli_outputs(out, files, cfg):
    """Check every output of one cli_pipeline operation, re-read from disk."""
    fails = []
    if out["codes"] != [0] * len(out["codes"]):
        return [f"cli exit codes {out['codes']}"]
    try:
        path = _table(files["path"], "t,x,x_minus,x_plus")
        acf = _table(files["acf"], "lag,rho_hat,rho_wbou_fit,rho_ou_fit")
        sig = _table(files["sig"], "skip,rv")
        sv = _table(files["sv"], "t,y,x,int_x")
        th_acf = _table(files["th_acf"], "h,acf_wbou,acf_ou")
        th_iacf = _table(files["th_iacf"], "k,rho_wbou,rho_ou")
        th_sv = _table(files["th_sv"], "s,R,cov_iv,corr_sq_returns")
    except (OSError, ValueError) as exc:
        return [f"cli output unreadable: {exc}"]

    t, x, xm, xp = path.T
    if len(x) != cfg.N + 1:
        fails.append(f"path rows {len(x)} != {cfg.N + 1}")
    fails += refs.close("path t", t, np.arange(len(t)) * cfg.DT, rtol=1e-13)
    if not np.array_equal(x, xm + xp):
        fails.append("path: x != x_minus + x_plus")
    if xm.min() < 0 or xp.min() < 0:
        fails.append("path: negative component under a gamma driver")

    d = x - x.mean()
    lags = [0, 1, 10, 100, cfg.MAX_LAG]
    direct = [np.dot(d[: len(d) - h], d[h:]) / np.dot(d, d) for h in lags]
    fails += refs.close("acf rho_hat vs direct sums", acf[lags, 1], direct, atol=1e-10)

    lines = out["stdout"].splitlines()
    fit = dict(item.split("=", 1) for line in lines if line.startswith("model=wbou")
               for item in line.split())
    lam_hat = float(fit.get("lambda_hat", "nan"))
    target = cfg.LAM * cfg.DT
    if not abs(lam_hat - target) <= cfg.FIT_RTOL * target:
        fails.append(f"fit lambda_hat {lam_hat!r} not within {cfg.FIT_RTOL} of {target}")
    if "winner=wbou" not in lines:
        fails.append("fit did not select the wbou model")

    ks = np.arange(1, cfg.MAX_SKIP + 1)
    rv = [np.sum(np.diff(x[::k]) ** 2) for k in ks]
    fails += refs.close("signature skip", sig[:, 0], ks)
    fails += refs.close("signature rv vs np.diff", sig[:, 1], rv, rtol=1e-12)

    sv_t, sv_y, sv_x, sv_int = sv.T
    fails += refs.close("sv int_x vs trapezoid of x", sv_int, refs.trapezoid(sv_x, cfg.DT),
                        atol=1e-12 * float(np.abs(sv_int).max()))
    if sv_y[0] != 0 or sv_x.min() < 0:
        fails.append("sv: y_0 != 0 or negative volatility")

    h = np.arange(51) * 0.1
    fails += refs.close("theory acf_wbou", th_acf[:, 1], refs.wbou_acf(1.0, h), rtol=1e-13)
    fails += refs.close("theory acf_ou", th_acf[:, 2], np.exp(-h), rtol=1e-13)
    k = np.arange(1, 21)
    fails += refs.close("theory rho_wbou", th_iacf[:, 1],
                        [refs.increment_acf_ref(1.5, j) for j in k], rtol=1e-9, atol=1e-15)
    fails += refs.close("theory rho_ou", th_iacf[:, 2],
                        [refs.increment_acf_ou_ref(1.5, j) for j in k], rtol=1e-9, atol=1e-15)
    # gamma(a=1, b=1) spot volatility: mean 2a/b = 2, variance a/b^2 = 1
    fails += refs.close("theory sv table", th_sv, refs.sv_table_ref(2.0, 1.0, 1.0, 1.0, 20),
                        rtol=1e-9)
    return fails


# ---------------------------------------------------------------------------
# law_theory


class LawTheory:
    """Characteristic functions, tails and second-order tables; no sampling.

    One round is two operations.  ``law`` evaluates the marginal law of
    X for gamma, compound-Poisson-exponential and Brownian drivers and
    the second-order tables over a range of lam that includes 1e-3.
    ``sv_small_lambda`` is the SV theory table at lam = 1e-3, delta = 1,
    which wbou refuses today (the self-check in big_r trips on the
    cancellation in rbar_fn); it is counted as failed.
    """

    name = "law_theory"
    ops = ("law", "sv_small_lambda")
    #: operation -> start of the WbouError message it fails with today
    expected_failures = {
        "sv_small_lambda": "closed-form R and its second-difference route disagree",
    }
    LAM = 0.8
    GAMMA = (1.5, 2.0)          # shape a, rate b
    CP = (3.0, 1.5)             # intensity eta, exponential jump rate r
    BM = (0.3, 1.2)             # drift, variance
    ACF_LAMS = (1e-3, 0.05, 0.3, 1.0, 1.2564, 3.0)
    R_LAMS = (0.05, 0.3, 1.0, 3.0)
    SMALL_LAM, DELTA, MAX_S = 1e-3, 1.0, 10

    def __init__(self, W, seed: int, worker: int, tmpdir: Path):
        self.W = W
        # fixed grids moved by a small seeded jitter: the inputs change with
        # the seed, the quadrature effort (which grows with |u|) hardly does
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        jitter = lambda x, rel: x * (1.0 + rel * rng.uniform(-1.0, 1.0, len(x)))
        self.u = jitter(np.linspace(-6.0, 6.0, 24), 0.01)
        self.tail_y = jitter(np.geomspace(0.05, 3.0, 4), 0.01)
        self.theta = jitter(np.array([0.1, 0.5, 1.5, 5.0]), 0.01)
        self.times = jitter(np.array([0.0, 0.7, 2.0]), 0.01)
        self.us = jitter(np.array([0.5, -1.0, 0.8]), 0.01)
        self.h = np.arange(41) * 0.5
        self.k = np.arange(1, 21)
        a, b = self.GAMMA
        self.spot = (2.0 * a / b, a / b**2)   # mean, variance of the spot volatility
        self.gamma = W.gamma_subordinator(a, b)
        self.cp = W.compound_poisson(self.CP[0], W.ExponentialJumps(self.CP[1]))
        self.bm = W.brownian(*self.BM)
        self._passed = {}

    def _sv_table(self, lam):
        W, (mu, v) = self.W, self.spot
        return np.array([
            (s, W.big_r(lam, self.DELTA, s), W.cov_integrated_vol(v, lam, self.DELTA, s),
             W.corr_squared_returns(mu, v, lam, self.DELTA, s))
            for s in range(1, self.MAX_S + 1)
        ])

    def run(self, op, tr, i):
        W, lam = self.W, self.LAM
        if op == "sv_small_lambda":
            return {"sv_small": self._sv_table(self.SMALL_LAM)}
        out = {
            "cf_gamma": W.char_fn_x(tr.driver(self.gamma), lam, self.u),
            "cf_cp": W.char_fn_x(tr.driver(self.cp), lam, self.u),
            "cf_bm": W.char_fn_x(tr.driver(self.bm), lam, self.u),
            "joint_bm": np.array([W.char_fn_joint(tr.driver(self.bm), lam, self.times, self.us)]),
            "kbar": np.array([W.kbar(tr.driver(self.gamma), th) for th in self.theta]),
        }
        with tr.span("law.tail"):
            for key, drv in (("tail_gamma", self.gamma), ("tail_cp", self.cp)):
                measure = W.triplet_of_x(tr.driver(drv), lam).measure
                out[key] = np.array([measure.tail_pos(y) for y in self.tail_y])
        out["acf"] = np.array([W.acf_x(W.SecondOrderParams(m), self.h) for m in self.ACF_LAMS])
        out["iacf"] = np.array([W.increment_acf(W.SecondOrderParams(m), self.k)
                                for m in self.ACF_LAMS])
        out["threshold"] = np.array([W.lambda_sign_threshold()])
        out["sv"] = np.array([self._sv_table(m) for m in self.R_LAMS])
        return out

    def check(self, op, out, i):
        passed = self._passed.get(op)
        if passed is not None and all(np.array_equal(out[k], passed[k]) for k in out):
            return []      # identical to outputs that passed every check
        fails = check_law_outputs(out, self)
        if not fails:
            self._passed[op] = out
        return fails

    def samples(self):
        return {}

    @classmethod
    def check_pooled(cls, samples):
        return []


def check_law_outputs(out, cfg):
    """Check the outputs of one law_theory operation."""
    fails = []
    lam = cfg.LAM
    if "cf_gamma" in out:
        a, b = cfg.GAMMA
        fails += refs.close("cf gamma vs Li2", out["cf_gamma"], refs.cf_gamma(a, b, lam, cfg.u),
                            atol=1e-10)
        fails += refs.close("cf cpoisson-exp", out["cf_cp"],
                            refs.cf_cp_exp(*cfg.CP, lam, cfg.u), atol=1e-10)
        fails += refs.close("cf brownian", out["cf_bm"], refs.cf_brownian(*cfg.BM, lam, cfg.u),
                            atol=1e-10)
        fails += refs.close("joint cf brownian", out["joint_bm"],
                            [refs.joint_cf_brownian(*cfg.BM, lam, cfg.times, cfg.us)], atol=1e-10)
        fails += refs.close("kbar gamma vs Li2", out["kbar"], refs.kbar_gamma(a, b, cfg.theta),
                            rtol=1e-10)
        fails += refs.close("tail gamma", out["tail_gamma"],
                            [refs.tail_gamma(a, b, lam, y) for y in cfg.tail_y], rtol=1e-9)
        fails += refs.close("tail cpoisson-exp", out["tail_cp"],
                            [refs.tail_cp_exp(*cfg.CP, lam, y) for y in cfg.tail_y], rtol=1e-9)
        fails += refs.close("acf_x", out["acf"],
                            [refs.wbou_acf(m, cfg.h) for m in cfg.ACF_LAMS], rtol=1e-13)
        fails += refs.close("increment_acf", out["iacf"],
                            [[refs.increment_acf_ref(m, j) for j in cfg.k] for m in cfg.ACF_LAMS],
                            rtol=1e-9, atol=1e-12)
        fails += refs.close("lambda_sign_threshold", out["threshold"],
                            [refs.sign_threshold_ref()], atol=1e-8)
        mu, v = cfg.spot
        fails += refs.close("sv tables", out["sv"],
                            [refs.sv_table_ref(mu, v, m, cfg.DELTA, cfg.MAX_S) for m in cfg.R_LAMS],
                            rtol=1e-9)
    if "sv_small" in out:
        mu, v = cfg.spot
        fails += refs.close("sv table at small lambda", out["sv_small"],
                            refs.sv_table_ref(mu, v, cfg.SMALL_LAM, cfg.DELTA, cfg.MAX_S),
                            rtol=1e-8)
    return fails


WORKLOADS = {w.name: w for w in (McEnsemble, CliPipeline, LawTheory)}

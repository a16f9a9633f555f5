"""Spans and counts for the traced run, recorded from outside wbou.

The tracer replaces each module's public functions, wherever another
module (or the package namespace the benchmark calls through) refers to
them, with wrappers that record a span: name, start, end and the span
that was open when it began.  Calls a module makes to its own functions
are not seen.  Drivers are wrapped in a delegating object that records
``sample_increments`` calls as spans and counts ``psi`` evaluations.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans
cover; spans of one thread nest, so that is the sum of the children's
durations.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

clock = time.perf_counter

#: span name -> (defining module, public functions timed under it).  The
#: ``law.tail`` span is opened by the workload itself around
#: ``triplet_of_x`` and the ``tail_pos`` calls on the measure it returns.
LAYERS = {
    "paths.simulate": ("paths", ("simulate_wbou", "simulate_wbou_ensemble")),
    "paths.write_csv": ("paths", ("write_path_csv",)),
    "svmodel.simulate": ("svmodel", ("simulate_sv", "simulate_sv_ensemble")),
    "svmodel.write_csv": ("svmodel", ("write_sv_csv",)),
    "svmodel.theory": ("svmodel", ("big_r", "cov_integrated_vol", "corr_squared_returns")),
    "estimation.read_csv": ("estimation", ("read_series_csv", "read_acf_csv")),
    "estimation.acf": ("estimation", ("empirical_acf",)),
    "estimation.fit": ("estimation", ("fit_acf",)),
    "estimation.signature": ("estimation", ("signature_plot",)),
    "estimation.write_csv": ("estimation", ("write_acf_csv", "write_signature_csv")),
    "law.char_fn": ("law", ("char_fn_x",)),
    "law.joint": ("law", ("char_fn_joint",)),
    "law.kbar": ("law", ("kbar",)),
    "analytics.eval": ("analytics", (
        "acf_x", "acf_ou", "increment_acf", "increment_acf_ou", "lambda_sign_threshold",
    )),
    "carma.replay": ("carma", ("carma_from_wbou", "simulate_carma")),
}

MODULES = ("analytics", "carma", "cli", "drivers", "estimation", "law", "paths", "svmodel")


def _count_of(fname: str):
    """What a call adds to its span's count, by function."""
    if fname == "write_path_csv":
        return lambda args, out: os.path.getsize(args[1])        # bytes written
    if fname == "read_series_csv":
        return lambda args, out: len(out)                       # rows read
    if fname == "read_acf_csv":
        return lambda args, out: len(out.lags)
    if fname == "simulate_carma":
        return lambda args, out: len(args[1])                   # recursion steps
    return None


class NullTracer:
    """Untraced runs: hands back what it is given and records nothing."""

    def driver(self, drv):
        return drv

    def span(self, name):
        return contextlib.nullcontext()


class CountingDriver:
    """Delegates to a wbou driver; records sampling spans and psi counts.

    A ``sample_increments`` call whose last dimension is the main-window
    length of the enclosing simulate call is a main-window draw; every
    other draw inside a simulate call covers a truncated half-line.
    """

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tr = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def sample_increments(self, dt, rng, size):
        tr = self._tr
        last = size[-1] if isinstance(size, tuple) else size
        main = bool(tr.main_n) and last == tr.main_n[-1]
        sid = tr.open("drivers.main_sample" if main else "drivers.halfline_sample")
        try:
            out = self._inner.sample_increments(dt, rng, size)
        finally:
            tr.close(sid)
        tr.spans[sid][5] = out.size
        return out

    def psi(self, u):
        t0 = clock()
        out = self._inner.psi(u)
        self._tr.psi_s += clock() - t0
        self._tr.psi_calls += 1
        return out


class Tracer:
    """Records spans while installed; installs by patching module attributes."""

    def __init__(self, wbou_pkg):
        self.spans: list[list] = []     # [id, parent, name, start, end, count]
        self._stack = [-1]
        self.main_n: list[int] = []
        self.psi_calls = 0
        self.psi_s = 0.0
        self.model_curve_calls = 0
        self.measure_alloc = False
        self.alloc_peaks: list[int] = []
        self._timed_from = 0
        self._patches = self._plan(wbou_pkg)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1], name, clock(), 0.0, 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def driver(self, drv):
        return CountingDriver(drv, self)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                self.spans[sid][5] = count(args, out)
            return out
        return traced

    def _wrap_simulate(self, name, fn):
        @functools.wraps(fn)
        def traced(driver, lam, grid, *args, **kwargs):
            self.main_n.append(grid.n)
            alloc = self.measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            sid = self.open(name)
            try:
                return fn(driver, lam, grid, *args, **kwargs)
            finally:
                self.close(sid)
                self.main_n.pop()
                if alloc:
                    self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        return traced

    def _plan(self, pkg):
        """(namespace, attribute, original, replacement) for every patch."""
        mods = {m: importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES}
        plan = []
        for name, (home, fnames) in LAYERS.items():
            for fname in fnames:
                orig = getattr(mods[home], fname)
                if name == "paths.simulate":
                    new = self._wrap_simulate(name, orig)
                else:
                    new = self._wrap(name, orig, _count_of(fname))
                for ns in [pkg] + [mods[m] for m in MODULES if m != home]:
                    if getattr(ns, fname, None) is orig:
                        plan.append((ns, fname, orig, new))

        cli, est = mods["cli"], mods["estimation"]
        plan.append((cli, "main", cli.main, self._wrap("cli.main", cli.main)))
        parse = cli.parse_driver
        plan.append((cli, "parse_driver", parse,
                     functools.wraps(parse)(lambda text: self.driver(parse(text)))))
        curve = est.model_curve

        @functools.wraps(curve)
        def counted_curve(*args, **kwargs):
            self.model_curve_calls += 1
            return curve(*args, **kwargs)
        plan.append((est, "model_curve", curve, counted_curve))
        return plan

    def install(self) -> None:
        for ns, attr, _, new in self._patches:
            setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, orig, _ in self._patches:
            setattr(ns, attr, orig)

    # -- results -----------------------------------------------------------

    def start_timed(self) -> None:
        """Forget counts so far; later spans feed the per-layer totals."""
        self._timed_from = len(self.spans)
        self.psi_calls = 0
        self.psi_s = 0.0
        self.model_curve_calls = 0

    def totals(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded since start_timed."""
        dur = defaultdict(float)
        own = defaultdict(float)
        cnt = defaultdict(int)
        calls = defaultdict(int)
        child = defaultdict(float)
        timed = self.spans[self._timed_from:]
        for sid, parent, _, t0, t1, _ in timed:
            child[parent] += t1 - t0
        for sid, _, name, t0, t1, c in timed:
            dur[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
            cnt[name] += c
            calls[name] += 1
        return {
            "drivers.halfline_draws": cnt["drivers.halfline_sample"],
            "drivers.halfline_sample_s": dur["drivers.halfline_sample"],
            "drivers.main_draws": cnt["drivers.main_sample"],
            "drivers.main_sample_s": dur["drivers.main_sample"],
            "drivers.psi_calls": self.psi_calls,
            "drivers.psi_s": self.psi_s,
            "paths.simulate_s": dur["paths.simulate"],
            "paths.self_s": own["paths.simulate"],
            "paths.write_csv_s": dur["paths.write_csv"],
            "paths.csv_bytes": cnt["paths.write_csv"],
            "svmodel.simulate_s": dur["svmodel.simulate"],
            "svmodel.self_s": own["svmodel.simulate"],
            "svmodel.write_csv_s": dur["svmodel.write_csv"],
            "svmodel.theory_s": dur["svmodel.theory"],
            "svmodel.theory_evals": calls["svmodel.theory"],
            "estimation.read_csv_s": dur["estimation.read_csv"],
            "estimation.rows_read": cnt["estimation.read_csv"],
            "estimation.acf_s": dur["estimation.acf"],
            "estimation.signature_s": dur["estimation.signature"],
            "estimation.write_csv_s": dur["estimation.write_csv"],
            "estimation.fit_s": dur["estimation.fit"],
            "estimation.model_curve_calls": self.model_curve_calls,
            "law.char_fn_s": dur["law.char_fn"],
            "law.joint_s": dur["law.joint"],
            "law.tail_s": dur["law.tail"],
            "law.kbar_s": dur["law.kbar"],
            "analytics.eval_s": dur["analytics.eval"],
            "carma.replay_s": dur["carma.replay"],
            "carma.steps": cnt["carma.replay"],
            "cli.main_s": dur["cli.main"],
            "cli.self_s": own["cli.main"],
        }

    def write(self, path) -> None:
        """One JSON object per span, then one line of counters."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, c in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "count": c}) + "\n")
            fh.write(json.dumps({"psi_calls": self.psi_calls, "psi_s": self.psi_s,
                                 "model_curve_calls": self.model_curve_calls,
                                 "alloc_peaks": self.alloc_peaks}) + "\n")

"""Command-line interface.

Subcommands
-----------
simulate   draw process paths and write them as t,x,x_minus,x_plus CSV
theory     evaluate closed-form curves (acf | increment-acf | sv) to CSV;
           each kind refuses the flags only the others read
acf        empirical ACF of a series plus fitted curves of both models
fit        least-squares rate fit on an ACF table, wbou / ou / both
signature  volatility signature plot (skip,rv) of a series
sv         simulate the stochastic-volatility model to t,y,x,int_x CSV

Drivers are written as ``family:key=value,...``, e.g.::

    gamma:a=1,b=1
    brownian:gamma=0,sigma2=1
    cpoisson:eta=5,jump=exponential,rate=1
    cpoisson:eta=2,jump=normal,m=0,s2=1
    cpoisson:eta=2,jump=point,c=0.5
    drift:gamma=2                 (brownian with sigma2=0)

Only simulate and sv draw random numbers, so only they take --seed
(default 0).  Options may also come from a plain-text config file of
``key=value`` lines via --config; explicit command-line flags win on
conflict.  Exit codes: 0 on success (and for --help and --version), 1 on
I/O failure, 2 on a usage error, on validation failure or when memory
runs out; main returns the code, it does not exit.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, _checks
from ._table import write_table
from .analytics import (
    SecondOrderParams,
    acf_ou,
    acf_x,
    increment_acf,
    increment_acf_ou,
)
from .drivers import (
    BrownianDriver,
    CompoundPoissonDriver,
    DriverSpec,
    ExponentialJumps,
    GammaSubordinatorDriver,
    NormalJumps,
    PointMassJumps,
)
from .errors import DomainError, WbouError
from .estimation import (
    empirical_acf,
    fit_acf,
    read_acf_csv,
    read_series_csv,
    signature_plot,
    write_acf_csv,
    write_signature_csv,
)
from .paths import SimulationGrid, TruncationPolicy, simulate_wbou, write_path_csv
from .rng import substream
from .svmodel import (
    SvSpec,
    big_r,
    corr_squared_returns,
    cov_integrated_vol,
    simulate_sv,
    spot_vol_moments,
    write_sv_csv,
)

_JUMP_KEYS = {
    "normal": ("m", "s2"),
    "exponential": ("rate",),
    "point": ("c",),
}


def parse_driver(text: str) -> DriverSpec:
    """Parse the ``family:key=value,...`` driver grammar."""
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    params: dict[str, float | str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise DomainError(f"bad driver parameter {item!r}; expected key=value")
            key = key.strip()
            value = value.strip()
            params[key] = value if key == "jump" else _float(value, key)

    def pop(key: str, default=None):
        if key in params:
            return params.pop(key)
        if default is None:
            raise DomainError(f"driver {family!r} needs parameter {key!r}")
        return default

    if family == "brownian":
        drv = BrownianDriver(pop("gamma", 0.0), pop("sigma2", 1.0))
    elif family in ("gamma", "gamma_subordinator"):
        drv = GammaSubordinatorDriver(pop("a", 1.0), pop("b", 1.0))
    elif family in ("drift", "deterministic_drift"):
        drv = BrownianDriver(pop("gamma"), 0.0)
    elif family in ("cpoisson", "compound_poisson"):
        kind = str(pop("jump", "normal")).lower()
        if kind == "normal":
            jumps = NormalJumps(pop("m", 0.0), pop("s2", 1.0))
        elif kind in ("exponential", "exp"):
            jumps = ExponentialJumps(pop("rate", 1.0))
        elif kind in ("point", "point_mass"):
            jumps = PointMassJumps(pop("c", 1.0))
        else:
            raise DomainError(
                f"unknown jump kind {kind!r}; expected normal, exponential or point"
            )
        drv = CompoundPoissonDriver(pop("eta", 1.0), jumps)
    else:
        raise DomainError(
            f"unknown driver family {family!r}; expected brownian, gamma, "
            "cpoisson or drift"
        )
    if params:
        raise DomainError(
            f"unused driver parameter(s) for {family!r}: {sorted(params)}"
        )
    return drv


def _float(value, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise DomainError(f"driver parameter {key!r} must be a number, got {value!r}")


def _inject_config(argv: list[str]) -> list[str]:
    """Splice --config file entries in front of explicit flags.

    Config lines are ``key=value`` with keys matching long option names
    (without the leading dashes); later occurrences win under argparse,
    so explicit flags override the file.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise DomainError("--config needs a file argument")
    cfg_path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    injected: list[str] = []
    for line in Path(cfg_path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise DomainError(f"{cfg_path}: bad config line {line!r}")
        injected += [f"--{key.strip()}", value.strip()]
    if not rest:
        return injected
    # keep the subcommand first, then config values, then explicit flags
    return rest[:1] + injected + rest[1:]


def _out_paths(out: str, n: int) -> list[Path]:
    _checks.whole(n, 1, "--paths")
    base = Path(out)
    if n == 1:
        return [base]
    stem, suffix = base.stem, base.suffix or ".csv"
    return [base.with_name(f"{stem}_{i:03d}{suffix}") for i in range(n)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    driver = parse_driver(args.driver)
    grid = SimulationGrid(args.t_max, args.dt)
    trunc = TruncationPolicy(args.tol)
    outs = _out_paths(args.out, args.paths)
    for i, out in enumerate(outs):
        path = simulate_wbou(
            driver, getattr(args, "lambda"), grid,
            trunc=trunc, rng=substream(args.seed, i),
        )
        write_path_csv(path, out)
    print(
        f"simulate driver={args.driver} lambda={getattr(args, 'lambda')} "
        f"paths={args.paths} n={grid.n} out={outs[0] if len(outs) == 1 else outs[0].parent}"
    )
    return 0


#: the flags each theory kind reads, with their defaults
_THEORY_FLAGS = {
    "acf": {"max_lag": 20, "dh": 1.0},
    "increment-acf": {"max_lag": 20},
    "sv": {"delta": 1.0, "max_s": 10, "mu": 0.0, "v": 1.0, "driver": None},
}


def cmd_theory(args) -> int:
    own = _THEORY_FLAGS[args.kind]
    stray = ["--" + d.replace("_", "-")
             for d in dict.fromkeys(k for flags in _THEORY_FLAGS.values() for k in flags)
             if d not in own and getattr(args, d) is not None]
    if stray:
        raise DomainError(f"theory {args.kind} does not read {', '.join(stray)}")
    if args.driver is not None and (args.mu is not None or args.v is not None):
        raise DomainError("theory sv takes --driver or --mu/--v, not both")
    for dest, default in own.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    lam = getattr(args, "lambda")
    p = SecondOrderParams(lam)
    if args.kind == "acf":
        def table(lam, max_lag, dh):
            hs = np.arange(max_lag + 1) * dh
            return hs, acf_x(p, hs), acf_ou(p, hs)

        write_table(args.out, ("h", "acf_wbou", "acf_ou"), _checks.in_range(
            "theory acf[lambda, max_lag, dh]", table, lam,
            _checks.whole(args.max_lag, 0, "--max-lag"), _checks.positive(args.dh, "--dh"),
            numpy=True))
    elif args.kind == "increment-acf":
        ks = np.arange(1, _checks.whole(args.max_lag, 1, "--max-lag") + 1)
        write_table(args.out, ("k", "rho_wbou", "rho_ou"),
                    (ks, increment_acf(p, ks), increment_acf_ou(p, ks)))
    else:  # sv
        if args.driver is not None:
            mu, v = spot_vol_moments(parse_driver(args.driver))
        else:
            mu, v = args.mu, args.v
        ss = range(1, _checks.whole(args.max_s, 1, "--max-s") + 1)
        write_table(args.out, ("s", "R", "cov_iv", "corr_sq_returns"), (
            ss,
            [big_r(lam, args.delta, s) for s in ss],
            [cov_integrated_vol(v, lam, args.delta, s) for s in ss],
            [corr_squared_returns(mu, v, lam, args.delta, s) for s in ss],
        ))
    print(f"theory kind={args.kind} lambda={lam} out={args.out}")
    return 0


def cmd_acf(args) -> int:
    x = read_series_csv(args.input)
    acf = empirical_acf(x, args.max_lag)
    window = (args.min_lag, args.max_lag)
    fit_w = fit_acf(acf, "wbou", window)
    fit_o = fit_acf(acf, "ou", window)
    write_acf_csv(args.out, acf, fit_w, fit_o)
    print(
        f"acf n={acf.n} max_lag={args.max_lag} "
        f"lambda_wbou={fit_w.lambda_hat:.6g} rss_wbou={fit_w.rss:.4g} "
        f"boundary_wbou={str(fit_w.at_boundary).lower()} "
        f"lambda_ou={fit_o.lambda_hat:.6g} rss_ou={fit_o.rss:.4g} "
        f"boundary_ou={str(fit_o.at_boundary).lower()}"
    )
    return 0


def cmd_fit(args) -> int:
    acf = read_acf_csv(args.input)
    window = (args.min_lag, args.max_lag)
    models = ["wbou", "ou"] if args.model == "both" else [args.model]
    results = [fit_acf(acf, m, window) for m in models]
    for res in results:
        print(
            f"model={res.model} lambda_hat={res.lambda_hat:.6g} "
            f"rss={res.rss:.4g} boundary={str(res.at_boundary).lower()}"
        )
    if len(results) == 2:
        winner = min(results, key=lambda r: r.rss)
        print(f"winner={winner.model}")
    return 0


def cmd_signature(args) -> int:
    x = read_series_csv(args.input)
    rows = signature_plot(x, args.max_skip)
    write_signature_csv(args.out, rows)
    print(f"signature n={len(x)} max_skip={args.max_skip} out={args.out}")
    return 0


def cmd_sv(args) -> int:
    spec = SvSpec(
        alpha=args.alpha,
        beta=args.beta,
        lam=getattr(args, "lambda"),
        driver=parse_driver(args.driver),
    )
    grid = SimulationGrid(args.t_max, args.dt)
    trunc = TruncationPolicy(args.tol)
    outs = _out_paths(args.out, args.paths)
    for i, out in enumerate(outs):
        path = simulate_sv(spec, grid, trunc=trunc, rng=substream(args.seed, i))
        write_sv_csv(path, out)
    print(
        f"sv driver={args.driver} lambda={spec.lam} alpha={spec.alpha} "
        f"beta={spec.beta} paths={args.paths} n={grid.n}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wbou",
        description="Two-sided exponential-kernel moving averages: "
        "simulation, theory curves, and estimation.",
    )
    top.add_argument("--version", action="version", version=f"wbou {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate process paths")
    sim.add_argument("--driver", required=True, help="family:key=value,...")
    sim.add_argument("--lambda", type=float, required=True, dest="lambda")
    sim.add_argument("--t-max", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--paths", type=int, default=1)
    sim.add_argument("--tol", type=float, default=1e-12,
                     help="half-line truncation tolerance")
    sim.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(fn=cmd_simulate)

    th = sub.add_parser("theory", help="evaluate closed-form curves")
    th.add_argument("kind", choices=["acf", "increment-acf", "sv"])
    th.add_argument("--lambda", type=float, required=True, dest="lambda")
    # each kind refuses the flags of the others, so they default to None
    th.add_argument("--max-lag", type=int, help="acf, increment-acf: max lag (20)")
    th.add_argument("--dh", type=float, help="acf: lag spacing (1)")
    th.add_argument("--delta", type=float, help="sv: window length (1)")
    th.add_argument("--max-s", type=int, help="sv: max window gap (10)")
    th.add_argument("--mu", type=float, help="sv: spot-volatility mean (0)")
    th.add_argument("--v", type=float, help="sv: spot-volatility variance (1)")
    th.add_argument("--driver",
                    help="sv: derive the spot-volatility moments from a driver, "
                    "instead of --mu and --v")
    th.add_argument("--out", required=True, help="output CSV path")
    th.set_defaults(fn=cmd_theory)

    ac = sub.add_parser("acf", help="empirical ACF plus fitted model curves")
    ac.add_argument("--input", required=True, help="series CSV (x or t,x)")
    ac.add_argument("--max-lag", type=int, required=True)
    ac.add_argument("--min-lag", type=int, default=1, help="fit window start")
    ac.add_argument("--out", required=True, help="output CSV path")
    ac.set_defaults(fn=cmd_acf)

    ft = sub.add_parser("fit", help="least-squares rate fit on an ACF table")
    ft.add_argument("--input", required=True, help="ACF CSV (lag,rho_hat,...)")
    ft.add_argument("--model", choices=["wbou", "ou", "both"], default="both")
    ft.add_argument("--min-lag", type=int, default=1)
    ft.add_argument("--max-lag", type=int, required=True)
    ft.set_defaults(fn=cmd_fit)

    sg = sub.add_parser("signature", help="volatility signature plot")
    sg.add_argument("--input", required=True, help="series CSV (x or t,x)")
    sg.add_argument("--max-skip", type=int, required=True)
    sg.add_argument("--out", required=True, help="output CSV path")
    sg.set_defaults(fn=cmd_signature)

    sv = sub.add_parser("sv", help="simulate the stochastic-volatility model")
    sv.add_argument("--driver", required=True, help="subordinator family spec")
    sv.add_argument("--lambda", type=float, required=True, dest="lambda")
    sv.add_argument("--alpha", type=float, default=0.0)
    sv.add_argument("--beta", type=float, default=0.0)
    sv.add_argument("--t-max", type=float, required=True)
    sv.add_argument("--dt", type=float, required=True)
    sv.add_argument("--paths", type=int, default=1)
    sv.add_argument("--tol", type=float, default=1e-12)
    sv.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sv.add_argument("--out", required=True, help="output CSV path")
    sv.set_defaults(fn=cmd_sv)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse has printed its usage error (2) or --help/--version (0)
            return exc.code
        return args.fn(args)
    except WbouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: set up, run a closed loop, check, report.

Started by run.py; not meant to be run by hand.  The process imports
wbou from the checkout's ``src``, builds the workload from the seed,
runs one untimed warm-up round, then runs whole rounds one operation at
a time until the operations have taken ``--budget`` seconds.  Outputs
are checked between operations, outside the timed intervals.  The last
line of standard output is a JSON object with the raw measurements.

With ``--trace 1`` the rounds alternate between untraced and traced, so
the run measures the tracing overhead itself; the warm-up round is
traced with tracemalloc on to find the peak allocation of a simulate
call.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import wbou
    import wbou.cli

    if Path(wbou.__file__).resolve().parent != root / "src" / "wbou":
        print(f"imported wbou from {wbou.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    outdir = Path(args.outdir)
    tmpdir = outdir / f"tmp-{args.workload}-{args.seed}-{args.index}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = _measure(wbou, tracing, WORKLOADS[args.workload], args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if tracer:
        tracer.write(outdir / f"spans-{args.workload}-{args.seed}-{args.index}.jsonl")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def _measure(wbou, tracing, workload_cls, args, tmpdir):
    clock = time.perf_counter
    wl = workload_cls(wbou, args.seed, args.index, tmpdir)
    null = tracing.NullTracer()
    tracer = tracing.Tracer(wbou) if args.trace else None
    failures: list[str] = []
    attempted = failed = 0
    ok_latencies: list[float] = []        # successful operations, seconds
    round_latencies = {False: [], True: []}   # untraced / traced rounds

    def one_round(i: int, tr) -> float:
        nonlocal attempted, failed
        total = 0.0
        for op in wl.ops:
            attempted += 1
            t0 = clock()
            try:
                out = wl.run(op, tr, i)
            except wbou.WbouError as exc:
                total += clock() - t0
                failed += 1
                expected = wl.expected_failures.get(op)
                if expected is None or not str(exc).startswith(expected):
                    failures.append(f"unexpected failure of {op}: {exc!r}")
                continue
            dt = clock() - t0
            total += dt
            if i >= 0:
                ok_latencies.append(dt)
            failures.extend(wl.check(op, out, i))
        return total

    # warm-up round: first-call costs land in set-up, outputs get checked
    if tracer:
        tracer.install()
        tracer.measure_alloc = True
    one_round(-1, tracer or null)
    if tracer:
        tracer.uninstall()
        tracer.measure_alloc = False
        tracer.start_timed()
    attempted = failed = 0
    setup_s = time.monotonic() - args.started

    busy = 0.0
    i = 0
    while busy < args.budget:
        traced = bool(tracer) and i % 2 == 1
        if traced:
            tracer.install()
        try:
            t = one_round(i, tracer if traced else null)
        finally:
            if traced:
                tracer.uninstall()
        round_latencies[traced].append(t)
        busy += t
        i += 1

    result = {
        "setup_s": setup_s,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "ok_latencies": ok_latencies,
        "failures": failures,
        "samples": wl.samples(),
    }
    if tracer:
        result["trace"] = {
            "totals": tracer.totals(),
            "traced_rounds": len(round_latencies[True]),
            "round_latencies": round_latencies[False],
            "traced_round_latencies": round_latencies[True],
            "peak_alloc_bytes": max(tracer.alloc_peaks, default=0),
        }
    return result, tracer


if __name__ == "__main__":
    sys.exit(main())

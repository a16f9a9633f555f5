"""Benchmark for wbou: one workload, one seed, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_ensemble --seed 1 --seconds 20 --trace 0

The run starts WORKERS fresh Python processes one after another.  Each
imports wbou from ``src``, builds the workload's inputs from the seed,
runs a warm-up round and then a closed loop, one operation at a time,
for an equal share of ``--seconds`` of operation time, checking every
output.  Pooling several fresh processes averages out the differences
between processes, which the operations of one process do not show.
The statistical checks of ``mc_ensemble`` are made here, once, on the
paths of all the processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Span files of
a traced run and the workers' temporary files go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 4
WORKER_TIMEOUT_S = 150 // WORKERS
WORKLOADS = ("mc_ensemble", "cli_pipeline", "law_theory")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_worker(args, index: int, outdir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
        "--budget", repr(args.seconds / WORKERS), "--trace", str(args.trace),
        "--outdir", str(outdir),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--started", repr(started)], capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled_checks(workload: str, samples: list[dict]) -> list[str]:
    """The statistical checks, made once on the samples of every worker."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    return WORKLOADS[workload].check_pooled(samples)


def end_to_end(results: list[dict]) -> dict[str, float]:
    lat = [t for r in results for t in r["ok_latencies"]]
    ok = sum(r["attempted"] - r["failed"] for r in results)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": ok / sum(r["busy_s"] for r in results),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    """Per-layer totals per traced round, pooled over the workers."""
    traces = [r["trace"] for r in results]
    rounds = sum(t["traced_rounds"] for t in traces)
    out = {name: sum(t["totals"][name] for t in traces) / rounds for name in traces[0]["totals"]}
    out["paths.peak_alloc_mb"] = max(t["peak_alloc_bytes"] for t in traces) / 2**20
    plain = statistics.median(x for t in traces for x in t["round_latencies"])
    traced = statistics.median(x for t in traces for x in t["traced_round_latencies"])
    out["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wbou" / "__init__.py").is_file():
        print(f"no wbou sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)

    results = [run_worker(args, k, outdir) for k in range(WORKERS)]
    failures = [f for r in results for f in r["failures"]]
    failures += pooled_checks(args.workload, [r["samples"] for r in results])
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    values = per_layer(results) if args.trace else end_to_end(results)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

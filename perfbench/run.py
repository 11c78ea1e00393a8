"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2-interp --seed 1 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` as it is, nothing is installed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``; see ``BENCHMARK.json`` and the README).
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--smoke`` runs every workload on small documents, timed and traced,
with all checks, in a few seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Never fall back to some installed copy of the program.
    sys.exit(f"run.py: no program source under {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (needs src/ on the path)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: Set-ups per timed run; ``setup_s`` and, on the Table-2 workloads,
#: ``cold_query_p50_ms`` are medians over them.
SETUPS = 9
#: A timed window never ends before this many queries (p90 then has at
#: least ten samples beyond it).
MIN_QUERIES = 100


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def timed(name: str, seed: int, seconds: float, size: str) -> tuple[int, dict]:
    """Set up ``SETUPS`` times, then run whole rounds for *seconds*."""
    setup_times = []
    setup = workloads.Recorder()
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        workload = workloads.make(name, seed, size)
        # Each set-up starts from a collected heap, not the previous one's garbage.
        gc.collect()
        start = time.perf_counter()
        workload.setup(setup)
        setup_times.append(time.perf_counter() - start)

    workload.settle(workloads.Recorder())
    gc.collect()
    window = workloads.Recorder()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(window.query_s) < MIN_QUERIES:
        workload.round(window)
    workload.close()

    # The first query after a write: inside the window on closure-churn,
    # after each set-up's registrations on the Table-2 workloads.
    cold = window.cold_s or setup.cold_s
    queries = len(window.query_s)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": queries / window.busy_s,
        "latency_p50_ms": _ms(statistics.median(window.query_s)),
        "latency_p90_ms": _ms(_p90(window.query_s)),
        "cpu_ms_per_query": _ms(window.cpu_s) / queries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_query_p50_ms": _ms(statistics.median(cold)),
    }
    return window.operations, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, small documents, timed and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                report = run(name, args.seed, 0.5, trace, "smoke")
                print(name, "trace" if trace else "timed", json.dumps(report), flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    report = run(args.workload, args.seed, args.seconds, args.trace, "full")
    print(json.dumps(report))
    return 0


def run(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One run; the result object with the units ``BENCHMARK.json`` declares."""
    if trace:
        import layers

        attempted, values = layers.traced(name, seed, seconds, size)
    else:
        attempted, values = timed(name, seed, seconds, size)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()}}


if __name__ == "__main__":
    sys.exit(main())

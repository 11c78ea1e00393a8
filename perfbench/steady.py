"""Steadiness check: two sets of runs of the same commit.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --workloads table2-sql

Each run is ``run.py --workload W --seed S --seconds <run_seconds>`` in
its own process, one after another, from the checkout root; set *k*
uses seeds ``100*k + 1 .. 100*k + 10``.  ``run_seconds`` and the bounds
come from ``BENCHMARK.json``.  For every end-to-end metric,
``setup_s`` included, the command prints each set's median, quartiles
and spread (quartile distance over median), checks each spread against
the metric's bound and, with two sets, whether the medians agree within
it.  It also checks that
the share of failed operations is the same in every run.  A JSON
summary goes to ``perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Runs per set, each with its own seed.
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=900, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)

    seconds = benchmark["run_seconds"]
    summary: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        sets = []
        for number in range(1, args.sets + 1):
            reports = []
            for seed in range(100 * number + 1, 100 * number + RUNS + 1):
                reports.append(one_run(workload, seed, seconds))
                print(f"{workload} set {number} seed {seed}: "
                      + " ".join(f"{key}={entry['value']:.4g}"
                                 for key, entry in reports[-1]["metrics"].items()),
                      flush=True)
            sets.append(reports)
        shares = {report["failed"] / report["attempted"] for reports in sets for report in reports}
        if not all(report["correct"] for reports in sets for report in reports) or len(shares) > 1:
            steady = False
            print(f"{workload}: runs disagree on correctness or failed share {sorted(shares)}")
        rows = {}
        print(f"\n{workload}  (median [q1, q3] spread per set)")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            stats = [summarize([report["metrics"][name]["value"] for report in reports])
                     for reports in sets]
            row = {"sets": stats, "bound": metric["bound"],
                   "runs": [[report["metrics"][name]["value"] for report in reports]
                            for reports in sets]}
            cells = "   ".join(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['spread']:.1%}"
                               for s in stats)
            ok = all(s["spread"] <= metric["bound"] for s in stats)
            if len(stats) == 2:
                row["worse_by"] = worse_by(metric, stats[0]["median"], stats[1]["median"])
                ok = ok and row["worse_by"] <= metric["bound"]
                cells += f"   second worse by {row['worse_by']:+.1%}"
            row["ok"] = ok
            steady = steady and ok
            rows[name] = row
            print(f"  {name:20s} {cells}   bound {metric['bound']:.0%}  "
                  f"{'ok' if ok else 'NOT STEADY'}")
        summary["workloads"][workload] = rows

    os.makedirs(os.path.join(HERE, "reports"), exist_ok=True)
    path = os.path.join(HERE, "reports", "steady.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"\n{'steady' if steady else 'NOT steady'}; summary in {os.path.relpath(path, ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads NAME,...] [--first-seed 1] [--label baseline]

Runs ``perfbench/run.py`` for ``SEEDS`` consecutive seeds per workload, each
for ``run_seconds`` of ``BENCHMARK.json``, exactly as the benchmark's
command line is run, and reports for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  Writes ``perfbench/results/spread-<label>.json``
with the machine facts of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import RESULTS, ROOT
from workloads import WORKLOADS

SEEDS = 10


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    seconds = benchmark["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    report = {"seconds": seconds, "workloads": {}}
    worst = 0.0
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            with open(RESULTS / f"{name}.json", encoding="utf-8") as fh:
                last = json.load(fh)
            runs[-1]["passes"] = [{k: p[k] for k in ("wall_s", "cpu_s", "setup_s",
                                                     "cal_wall_s", "cal_cpu_s") if k in p}
                                  for p in last["passes"]]
            runs[-1]["setup_s_samples"] = last["setup_s_samples"]
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bound)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                            "bound": bound, "values": values}
            print(f"{name:<15} {metric:<12} median {med:10.5g}  spread {share:7.2%}  "
                  f"(bound {bound:.0%})", flush=True)
        report["machine"] = last["machine"]
        report["workloads"][name] = {
            "SYKLAB_WORKERS": last["SYKLAB_WORKERS"],
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
            "runs": [{k: r[k] for k in ("passes", "setup_s_samples")} for r in runs],
        }
    with open(RESULTS / f"spread-{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py <spawn monotonic time> <spec JSON>

Imports syklab from the checkout's ``src``, runs the workload described by
the spec through syklab's public API and prints one JSON line: set-up time,
wall and CPU time of the pass, peak resident memory, the outputs to check
and, for a traced pass, the tracer's per-layer data.  A spec with
``"facts": true`` also reports the machine facts, taken after the timed
region.
"""

import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _cache_size(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "l2_cache_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def run_scan(spec: dict):
    from syklab import experiments

    command = experiments.cmd_scan_n if spec["kind"] == "scan-n" else experiments.cmd_scan_t
    config = dict(spec["config"], n_list=tuple(spec["config"]["n_list"]))
    rows, _csv = command(experiments.ExperimentConfig(command=spec["kind"], **config))
    return rows


_SOLVED_R = re.compile(r"^\s+(\w+): r = (\d+)", re.MULTILINE)


def run_oracle(spec: dict) -> dict:
    from syklab import chains
    from syklab.experiments import ExperimentConfig, cmd_oracle, cmd_solve_r

    report, all_ok = cmd_oracle(ExperimentConfig(command="oracle"))
    lemmas = []
    for index, edges in enumerate(spec["termsets"]):
        full = chains.syk_termset(spec["termset_n"], len(edges[0]), edges)
        part = chains.TermSet(full.terms[: spec["avg_gw_terms"]])
        q_full, q_part = chains.q_max(full), chains.q_max(part)
        for g in spec["g_values"]:
            for w in range(g % 2, g + 1, 2):
                gw = chains.gw_bruteforce(full, g, w)
                avg = chains.avg_gw_exact(part, g, w, spec["p_b"])
                lemmas.append([
                    index, g, w,
                    gw, chains.lemma_d_bound(g, full.m, q_full),
                    avg, chains.lemma_e_bound(g, w, part.m, q_part, spec["p_b"]),
                ])
    solved = []
    for n, k, l in spec["solve_r_grid"]:
        text = cmd_solve_r(ExperimentConfig(command="solve-r", n_list=(n,), k=k, l=l))
        solved.append([n, k, l] + [int(r) for _mode, r in _SOLVED_R.findall(text)])
    return {"report": report, "all_ok": all_ok, "lemmas": lemmas, "solve_r": solved,
            "termsets": spec["termsets"]}


RUNNERS = {"scan-n": run_scan, "scan-t": run_scan, "oracle": run_oracle}


def encode(kind: str, result):
    """JSON form of a pass's outputs (built after the timed region)."""
    if kind == "oracle":
        checks = re.findall(r"^\s+\[(PASS|FAIL)\] (.*)$",
                            result["report"], re.MULTILINE)
        out = {key: value for key, value in result.items() if key != "report"}
        out["checks"] = [[name, status] for status, name in checks]
        return out
    return [{"n": row.n, "t": row.t, "observed": row.observed, "bound": row.bound,
             "ratio": row.ratio, "error": row.error} for row in result]


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    import syklab

    setup_s = time.monotonic() - spawned
    if Path(syklab.__file__).resolve().parent.parent != SRC:
        print(f"syklab was imported from {syklab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = RUNNERS[spec["kind"]]
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    result = run(spec)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": encode(spec["kind"], result),
    }
    if tracer is not None:
        record["trace"] = tracer.report(start, with_spans=spec.get("spans", False))
    if spec.get("facts"):
        record["facts"] = machine_facts()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

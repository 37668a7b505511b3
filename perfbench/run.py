"""syklab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (``child.py``) that imports syklab from the checkout's ``src``,
so no cache survives from one pass to the next.  Passes repeat until
``--seconds`` is spent (at least ``MIN_PASSES``); each pass's outputs are
checked against the values recorded at the seed commit
(``references.json``).

``--trace 0`` reports the end-to-end metrics of the passes, each the median
over the run's passes:

    wall_s       first call into syklab -> last result returned
    setup_s      interpreter start -> ``import syklab`` done (numpy, scipy
                 included)
    cpu_s        user + sys CPU of the pass, child processes included
    peak_rss_mb  peak resident memory of the pass's process, MiB

On a shared host the speed of a virtual CPU changes by up to 1.7x within
seconds, with whatever shares its physical core, so raw times of the same
pass spread by more than any useful bound over ten runs.  A single-worker
pass therefore runs pinned to one CPU (successive passes take the CPUs in
turn), a two-worker pass on both, and this process times a fixed
computation that uses no syklab code (``calibrate``) on each of the pass's
CPUs just before the pass starts and just after it ends.  The pass's three
times are reported at a fixed reference speed: each is multiplied by
``CAL_REF_S`` over the calibration's time (its CPU time, for ``cpu_s``).  A
change to syklab moves the pass and not the calibration, so it moves the
scaled time by the same factor as the raw one; a slow stretch of the CPUs
moves both and cancels.  The raw medians stay in the result file.

``--trace 1`` alternates traced passes, all at ``SYKLAB_WORKERS=1``, with
untraced ones at the same setting and reports the per-layer metrics of
``tracer.PER_LAYER``; it also writes the sidecar
``perfbench/results/<workload>.trace.json`` (spans of the first traced pass,
counts, the per-layer table).  Every result file holds the machine facts,
taken by the first pass after its timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
instead prints every end-to-end metric of every workload with its unit.
A pass that crashes counts all its operations as failed; a metric with no
successful pass to take it from is null.  The exit code is non-zero when
any operation failed (error_rate > 0).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# The calibration in this process must run single-threaded, like the passes.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

from tracer import COUNTED, PER_LAYER  # noqa: E402
from workloads import (WORKLOADS, check, expected_operations,  # noqa: E402
                       load_references, make_spec)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD = HERE / "child.py"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")]
# Seconds a CPU's two calibration runs around a pass take together at the
# reference speed: about their time on an undisturbed CPU of a 2-vCPU Xeon
# (2.0 GHz) guest.  Fixed once; changing it rescales every reported time.
CAL_REF_S = 0.25
MIN_PASSES = 3  # untraced passes per run; a traced run needs two of each kind
CHILD_TIMEOUT_S = 150
MAX_REPORTED_FAILURES = 20


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed computation that uses no syklab code.

    It mixes the kinds of work the single-worker workloads do (interpreted
    Python, small complex numpy updates, LAPACK/BLAS), so that a CPU slowed
    by whatever shares its core slows it about as much as it slows a pass.
    """
    cpu0 = time.process_time()
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    rng = np.random.default_rng(0)
    perm = rng.permutation(64)
    coeff = np.exp(1j * rng.random(64))
    mat = np.eye(64, dtype=complex)
    for _ in range(1500):
        mat = np.cos(0.1) * mat + (1j * np.sin(0.1)) * (coeff[:, None] * mat[perm])
    big = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    ham = big + big.conj().T
    for _ in range(3):
        energies, vectors = np.linalg.eigh(ham)
        mat = (vectors * np.exp(1j * energies)) @ vectors.conj().T
        for _ in range(4):
            mat = mat @ mat
    return time.perf_counter() - start, time.process_time() - cpu0


def spawn(spec: dict, workers: int, cpu: int | None = None) -> tuple[dict | None, str]:
    """Run one child; (its JSON record or None, error text).

    The child runs pinned to ``cpu`` if given, else on every CPU this
    process may use.  Just before it starts and just after it ends,
    ``calibrate`` runs once on each of those CPUs; the record carries the
    calibration's wall and CPU seconds (before plus after, averaged over the
    CPUs) as ``cal_wall_s`` and ``cal_cpu_s``.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), SYKLAB_WORKERS=str(workers),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    payload = json.dumps(spec)
    allowed = os.sched_getaffinity(0)
    cpus = [cpu] if cpu is not None else sorted(allowed)
    calibrations = []

    def calibrate_each():
        for each in cpus:
            os.sched_setaffinity(0, {each})
            calibrations.append(calibrate())

    try:
        calibrate_each()
        os.sched_setaffinity(0, set(cpus))  # the child inherits it
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned), payload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        calibrate_each()
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {CHILD_TIMEOUT_S} s"
    finally:
        os.sched_setaffinity(0, allowed)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    record = json.loads(lines[-1])
    record["cal_wall_s"] = sum(wall for wall, _cpu in calibrations) / len(cpus)
    record["cal_cpu_s"] = sum(cpu_s for _wall, cpu_s in calibrations) / len(cpus)
    return record, ""


def scaled(record: dict, metric: str) -> float:
    """One pass's ``metric`` at the reference speed (``peak_rss_mb`` as
    measured)."""
    if metric == "peak_rss_mb":
        return record[metric]
    calibration = record["cal_cpu_s"] if metric == "cpu_s" else record["cal_wall_s"]
    return record[metric] * CAL_REF_S / calibration


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes: counts from the first pass
    (they must repeat exactly in the others), times as medians."""
    first = traced[0]["trace"]
    special = {
        "linalg.matrix_bytes_computed": first["matrix_bytes_computed"],
        "trace.overhead_s": (median(scaled(p, "wall_s") for p in traced)
                             - median(scaled(p, "wall_s") for p in untraced)),
    }
    metrics = {}
    for metric, unit, _move, _on, _off, computed in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if metric in special:
            value = special[metric]
        elif computed:
            value = first["counts"].get(metric, 0)
        elif name in COUNTED:
            value = first["calls"].get(name, 0)
        elif stat == "calls":
            value = first["layers"].get(name, [0])[0]
        else:
            column = 2 if stat == "self_s" else 1
            value = median(p["trace"]["layers"].get(name, [0, 0.0, 0.0])[column] for p in traced)
        metrics[metric] = {"value": value, "unit": unit}

    def counts_of(trace: dict) -> tuple:
        return trace["calls"], trace["counts"], trace["matrix_bytes_computed"]

    repeat = all(counts_of(p["trace"]) == counts_of(first) for p in traced[1:])
    return metrics, repeat


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the full result record."""
    spec = make_spec(name, seed)
    references = load_references()
    workers = 1 if trace else spec["workers"]
    cpus = sorted(os.sched_getaffinity(0)) if workers == 1 else [None]
    spawned = {False: 0, True: 0}  # passes started of each kind, to take the CPUs in turn
    deadline = time.monotonic() + seconds

    untraced, traced, durations, setups = [], [], [], []
    facts = None
    attempted = failed = crashed = 0
    failures: list[str] = []
    while True:
        want_trace = trace and len(traced) <= len(untraced)
        cpu = cpus[spawned[want_trace] % len(cpus)]
        spawned[want_trace] += 1
        began = time.monotonic()
        record, error = spawn(dict(spec, trace=want_trace, spans=want_trace and not traced,
                                   facts=facts is None), workers, cpu)
        durations.append(time.monotonic() - began)
        if record is None:
            ops = expected_operations(name, references)
            attempted += ops
            failed += ops
            crashed += 1
            failures.append(error)
        else:
            ops, misses = check(name, spec["slot"], record.pop("outputs"), references)
            attempted += ops
            failed += len(misses)
            failures.extend(misses)
            setups.append(record["setup_s"])
            facts = facts or record.pop("facts")
            (traced if want_trace else untraced).append(record)
        enough = len(untraced) >= (2 if trace else MIN_PASSES) and (not trace or len(traced) >= 2)
        if (enough or crashed) and time.monotonic() + median(durations) > deadline:
            break

    result = {
        "workload": name,
        "seed": seed,
        "slot": spec["slot"],
        "seconds": seconds,
        "trace": trace,
        "SYKLAB_WORKERS": workers,
        "machine": facts,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "setup_s_samples": setups,
    }
    if trace and traced and untraced:
        metrics, repeat = _layer_metrics(traced, untraced)
        result.update(
            metrics=metrics,
            counts_repeat=repeat,
            per_layer_table=[
                {"metric": m, "unit": u, "should_move": move, "on": list(on),
                 "no_change_predicted_on": list(off), "computed": computed,
                 "value": metrics[m]["value"]}
                for m, u, move, on, off, computed in PER_LAYER
            ],
            calls=traced[0]["trace"]["calls"],
            counts=traced[0]["trace"]["counts"],
            wrapped=traced[0]["trace"]["wrapped"],
            spans=traced[0]["trace"].pop("spans"),
            passes={"traced": [{k: v for k, v in p.items() if k != "trace"} for p in traced],
                    "untraced": untraced},
        )
        if not repeat:
            print(f"warning: counts differ between traced passes of {name}", file=sys.stderr)
    elif trace:
        result["metrics"] = {m: {"value": None, "unit": u} for m, u, *_ in PER_LAYER}
    elif untraced:
        result["metrics"] = {
            metric: {"value": median(scaled(p, metric) for p in untraced), "unit": unit}
            for metric, unit in END_TO_END
        }
        result["raw_metrics"] = {metric: median(p[metric] for p in untraced)
                                 for metric, _unit in END_TO_END}
        result["passes"] = untraced
    else:
        result["metrics"] = {m: {"value": None, "unit": u} for m, u in END_TO_END}
        result["passes"] = []
    return result


def write_result(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    suffix = ".trace.json" if result["trace"] else ".json"
    path = RESULTS / f"{result['workload']}{suffix}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "syklab" / "__init__.py").is_file():
        print(f"no syklab sources under {ROOT / 'src'}; run from a syklab checkout",
              file=sys.stderr)
        return 2
    if not CHILD.is_file():
        print(f"missing {CHILD}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        write_result(result)
        for line in result["failures"]:
            print(f"FAILED: {line}", file=sys.stderr)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    status = 0
    summary = {}
    for name in WORKLOADS:
        result = measure(name, args.seed, args.seconds, False)
        write_result(result)
        summary[name] = result
        print(f"{name}  (seed {args.seed}, {len(result['passes'])} passes, "
              f"SYKLAB_WORKERS={result['SYKLAB_WORKERS']})")
        for metric, unit in END_TO_END:
            value = result["metrics"][metric]["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<12} {shown:>12} {unit}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':<12} {rate:>12.6g} ratio  "
              f"({result['failed']}/{result['attempted']} operations failed)")
        for line in result["failures"]:
            print(f"  FAILED: {line}")
        status |= not result["correct"]
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

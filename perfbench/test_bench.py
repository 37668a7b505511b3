"""Tests of the benchmark itself (not part of syklab's suite).

    python3 -m pytest -q perfbench/test_bench.py

They check that every traced public name still exists in syklab and is hit
on the workloads whose per-layer metrics it feeds, that the traced counts
repeat exactly, that the output check catches a perturbed reference, and
that the benchmark refuses to run without syklab's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import COUNTED, PER_LAYER, SPANS, resolve  # noqa: E402
from workloads import (SEED_SLOTS, WORKLOADS, check, expected_operations,  # noqa: E402
                       load_references, make_spec)

SEED = 5


def test_every_wrapped_name_exists():
    for qualnames in (*SPANS.values(), *COUNTED.values()):
        for qualname in qualnames:
            assert callable(resolve(qualname)), qualname


def test_every_traced_name_feeds_a_per_layer_metric():
    fed = {metric.rpartition(".")[0] for metric, *_ in PER_LAYER}
    assert set(SPANS) | set(COUNTED) <= fed


@pytest.fixture(scope="module")
def traced_passes():
    """Two traced passes of every workload at the same seed."""
    passes = {}
    for name in WORKLOADS:
        spec = make_spec(name, SEED)
        records = []
        for _ in range(2):
            record, error = run.spawn(dict(spec, trace=True), workers=1)
            assert record is not None, error
            records.append(record)
        passes[name] = records
    return passes


def test_traced_passes_are_correct(traced_passes):
    references = load_references()
    for name, records in traced_passes.items():
        for record in records:
            attempted, failures = check(name, SEED % SEED_SLOTS, record["outputs"], references)
            assert attempted > 0 and failures == [], (name, failures)


def test_traced_names_are_hit_where_their_metrics_should_move(traced_passes):
    for name, records in traced_passes.items():
        metrics, _ = run._layer_metrics(records, records)
        for metric, _unit, _move, on, _off, _computed in PER_LAYER:
            if name in on:
                assert metrics[metric]["value"] > 0, (name, metric)
    hit = set()
    for records in traced_passes.values():
        hit |= {qualname for qualname, calls in records[0]["trace"]["calls"].items() if calls}
    wrapped = {q for qualnames in (*SPANS.values(), *COUNTED.values()) for q in qualnames}
    assert wrapped - hit == set(), "wrapped names no workload calls"


def test_counts_repeat_between_traced_passes(traced_passes):
    for name, (first, second) in traced_passes.items():
        _, repeat = run._layer_metrics([first, second], [first])
        assert repeat, name


def _perturb(name: str, outputs):
    outputs = copy.deepcopy(outputs)
    if WORKLOADS[name]["kind"] == "oracle":
        outputs["solve_r"][0][3] += 1
    else:
        outputs[0]["observed"] *= 1.001
    return outputs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_catches_a_perturbed_reference(name):
    references = load_references()
    slot = str(SEED % SEED_SLOTS)
    ref = references[name][slot]
    attempted, failures = check(name, int(slot), ref, references)
    assert attempted > 0 and failures == []
    perturbed = {name: {slot: _perturb(name, ref)}}
    _, failures = check(name, int(slot), ref, perturbed)
    assert len(failures) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_missing_outputs_fail_one_operation_each(name):
    references = load_references()
    slot = str(SEED % SEED_SLOTS)
    outputs = copy.deepcopy(references[name][slot])
    if WORKLOADS[name]["kind"] == "oracle":
        missing = 3
        del outputs["solve_r"][-missing:]
    else:
        missing = len(outputs) - 1
        del outputs[1:]
    attempted, failures = check(name, int(slot), outputs, references)
    assert attempted == expected_operations(name, references)
    assert len(failures) == missing


def test_crashed_passes_are_failed_operations(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda spec, workers, cpu: (None, "pass exited 1: boom"))
    result = run.measure("oracle", SEED, 0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert all(m["value"] is None for m in result["metrics"].values())


def test_scaled_times_cancel_a_slower_cpu():
    fast = {"wall_s": 2.0, "setup_s": 0.4, "cpu_s": 1.9, "peak_rss_mb": 58.0,
            "cal_wall_s": 0.25, "cal_cpu_s": 0.24}
    slow = dict(fast, wall_s=3.4, setup_s=0.68, cpu_s=3.23, cal_wall_s=0.425, cal_cpu_s=0.408)
    for metric, _unit in run.END_TO_END:
        assert run.scaled(slow, metric) == pytest.approx(run.scaled(fast, metric)), metric
    assert run.scaled(fast, "wall_s") == pytest.approx(2.0 * run.CAL_REF_S / 0.25)


def test_refuses_to_run_without_syklab_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    benchmark = HERE.parent / "BENCHMARK.json"
    if benchmark.is_file():
        shutil.copy(benchmark, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    assert [m["name"] for m in benchmark["per_layer"]] == [m for m, *_ in PER_LAYER]
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)

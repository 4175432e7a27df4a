"""Tests of the benchmark itself.

    python -m pytest perfbench

Each workload runs at a tiny size, untraced and traced, and must pass its
correctness checks and print exactly the metrics BENCHMARK.json declares.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from sphloss.fast_output import FactoredOutputLayer, StepPartials  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_prints_declared_metrics(name, trace):
    r = workloads.run(name, seed=3, seconds=0.0, trace=trace, sizes=workloads.TINY_SIZES)
    assert r.problems == []
    assert r.attempted >= 1 and r.failed == 0
    assert all(j.probe_s > 0 for j in r.jobs)
    assert all(j.speed == 1.0 for j in r.jobs) == (name == "train-dense")
    if trace:
        printed, declared = workloads.per_layer_metrics(r), SPEC["per_layer"]
    else:
        printed, declared = workloads.end_to_end_metrics(r), SPEC["end_to_end"]
    assert {k: u for k, (_, u) in printed.items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(v) for v, _ in printed.values())
    if not trace:
        assert all(v > 0 for v, _ in printed.values())


def test_trace_counts_fast_output_only_where_the_factored_layer_runs():
    for name, calls in (("train-factored", True), ("train-dense", False),
                        ("train-bound", False), ("layer-stream", True)):
        r = workloads.run(name, seed=0, seconds=0.0, trace=True, sizes=workloads.TINY_SIZES)
        m = workloads.per_layer_metrics(r)
        assert (m["fast_output.sgd_step.calls"][0] > 0) == calls, name
        assert (m["bound.golden_section_minimize.calls"][0] > 0) == (name == "train-bound")


def test_self_time_excludes_nested_rebase():
    rng = np.random.default_rng(0)
    layer = FactoredOutputLayer(rng.normal(size=(50, 4)), cond_threshold=0.0)
    with Tracer(["fast_output.sgd_step", "fast_output.rebase"]) as tracer:
        for c in range(5):
            layer.sgd_step(StepPartials(a=0.1, bq=0.1, g=-1.0, c=c, h=rng.normal(size=4)), 0.01)
    s = tracer.summary()
    assert s["fast_output.sgd_step"]["calls"] == 5 and s["fast_output.rebase"]["calls"] == 5
    step = s["fast_output.sgd_step"]
    assert step["self_s"] == pytest.approx(step["s"] - s["fast_output.rebase"]["s"])
    assert FactoredOutputLayer.sgd_step.__name__ == "sgd_step"  # unwrapped on exit


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = subprocess.run(
        [*SPEC["command"], "--workload", "train-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_end_to_end_times_are_in_reference_seconds():
    # a job on a host at half the reference speed took twice as long as it
    # would at reference speed
    job = workloads.Job(setup_s=0.2, wall_s=3.0, train_s=2.0, train_examples=1000,
                        eval_s=0.5, eval_rows=100, test_negll=1.0, attempted=1,
                        speed=0.5)
    r = workloads.RunResult(jobs=[job], warmup=[], finish={}, peak_rss_mb=1.0, problems=[])
    m = workloads.end_to_end_metrics(r)
    assert m["setup_s"][0] == pytest.approx(0.1)
    assert m["train_examples_per_s"][0] == pytest.approx(1000.0)
    assert m["eval_examples_per_s"][0] == pytest.approx(400.0)

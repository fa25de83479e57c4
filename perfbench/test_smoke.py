"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    SPECS, run_workload, serve_docs, small_long_docs, stock_short_docs,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train-stock-short": replace(
        SPECS["train-stock-short"], config=dict(d=6, d_w=6, n_filters=3),
        epochs=2,
        docs=partial(stock_short_docs, size=16), min_steps=4),
    "train-small-long": replace(
        SPECS["train-small-long"], epochs=2,
        docs=partial(small_long_docs, n_train=8, n_val=4), min_steps=4),
    "serve-stock-mixed": replace(
        SPECS["serve-stock-mixed"], docs=partial(serve_docs, n_docs=10),
        min_predicts=20),
}
COUNTS = [m["name"] for m in BENCH["per_layer"]
          if m["unit"] in ("count", "bytes")
          and m["name"] != "runtime.minor_faults"]


@pytest.fixture
def tiny_specs(monkeypatch):
    monkeypatch.setattr(workloads, "SPECS", TINY)


def run(name, tmp_path, trace, seconds=0.0, seed=3):
    return run_workload(name, seed, seconds, trace, str(tmp_path / "m.faet"))


def assert_metrics(reported: dict, declared: list) -> None:
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m.unit for name, m in reported.items()}
    assert all(math.isfinite(m.value) for m in reported.values())


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_appears_with_its_unit(name, tiny_specs, tmp_path):
    plain = run(name, tmp_path, trace=False)
    assert plain.checks.failed == 0, plain.checks.messages
    assert_metrics(plain.metrics, BENCH["end_to_end"])
    assert all(m.value > 0 for m in plain.metrics.values())
    traced = run(name, tmp_path, trace=True)
    assert traced.checks.failed == 0, traced.checks.messages
    assert_metrics(traced.layers, BENCH["per_layer"])


@pytest.mark.parametrize("name", list(TINY))
def test_count_metrics_repeat_exactly(name, tiny_specs, tmp_path):
    short = run(name, tmp_path, trace=True)
    longer = run(name, tmp_path, trace=True, seconds=1.0)
    assert longer.tracer.n_ops > short.tracer.n_ops
    assert ({c: short.layers[c].value for c in COUNTS}
            == {c: longer.layers[c].value for c in COUNTS})


def test_alignment_layer_reads_zero_with_one_emoji(tiny_specs, tmp_path):
    layers = run("train-stock-short", tmp_path, trace=True).layers
    assert layers["objective.fwd_ms"].value == 0.0
    assert layers["objective.bwd_ms"].value == 0.0
    assert layers["objective.align_pairs"].value == 0.0
    assert layers["encoder.calls"].value == 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_layer_self_times_fit_in_each_step(name, tiny_specs, tmp_path):
    tracer = run(name, tmp_path, trace=True).tracer
    assert tracer.n_ops > 0
    for self_ns, wall_ns in zip(tracer.op_self, tracer.op_wall):
        assert 0 < self_ns <= wall_ns


def test_broken_checkpoint_round_trip_fails_the_run(tiny_specs, tmp_path,
                                                    monkeypatch):
    load = workloads.load_checkpoint

    def lossy_load(path):
        model = load(path)
        model.parameters()["out_b"].data[0] += 1e-12
        return model

    monkeypatch.setattr(workloads, "load_checkpoint", lossy_load)
    result = run("train-small-long", tmp_path, trace=False)
    assert result.checks.failed > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "train-stock-short", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark itself, at tiny scale."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def spec():
    return json.loads(BENCHMARK_JSON.read_text())


@pytest.fixture(autouse=True)
def quick_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)


def _run(name, trace, tmp_path, tamper=None):
    return run.run_benchmark(name, 0, 0.0, trace, "tiny", tmp_path, tamper)


def test_spec_lists_every_workload_and_metric(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, spec, tmp_path):
    result = _run(name, trace, tmp_path)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    else:
        assert (tmp_path / f"trace-{name}-seed0.npz").exists()


class FlipFirstAnswer:
    """An oracle that flips the first answer it gives and is honest afterwards."""

    def __init__(self, inner):
        self.inner = inner
        self.counter = inner.counter
        self.flipped = False

    def __len__(self):
        return len(self.inner)

    def _flip(self, answers):
        answers = np.array(answers, dtype=bool)
        if not self.flipped and answers.size:
            answers[0] = ~answers[0]
            self.flipped = True
        return answers

    def compare(self, *args):
        return bool(self._flip([self.inner.compare(*args)])[0])

    def compare_batch(self, *args):
        return self._flip(self.inner.compare_batch(*args))


def test_a_flipped_answer_is_counted_as_failed(tmp_path):
    result = _run("crowd-serve", False, tmp_path, tamper=FlipFirstAnswer)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-space", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Smoke tests of perfbench/run.py at tiny sizes (one or two graphs).

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

bc = run.load_package()
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_metric_tables():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_prints_with_unit(workload, trace, capsys):
    run.emit(*run.measure(workload, seed=3, seconds=0.0, trace=trace, deck_size=1))
    lines = capsys.readouterr().out.splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_ratio"] == 0.0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_times_scale_with_the_kernel_nearby():
    log = speed.SpeedLog()
    log.at = [0.0, 1.0, 2.0, 10.0]
    log.duration = [0.004, 0.004, 0.004, 0.001]
    # the sample at 10 s is outside the window of an op at 0.9-1.0 s
    assert log.ref_ms(0.1, 0.9, 1.0) == pytest.approx(0.1 / 0.004 * speed.KERNEL_REF_MS)
    # an op with no sample in its window uses its nearest neighbours
    assert log.ref_ms(0.1, 6.0, 6.1) == pytest.approx(0.1 / 0.0025 * speed.KERNEL_REF_MS)


def test_relabelled_passes_agree():
    result, meta = run.measure("recursion-large", seed=3, seconds=0.3, trace=0, deck_size=2)
    assert meta["passes"] >= 2
    assert result["correct"] and result["failed"] == 0


def test_wrong_answer_raises_failed_ratio(monkeypatch):
    real = bc.beta_recursive

    def off_by_one(graph, memo=None):
        got = real(graph, memo)
        return dataclasses.replace(got, value=got.value + 1)

    monkeypatch.setattr(bc, "beta_recursive", off_by_one)
    result, meta = run.measure("recursion-large", seed=3, seconds=0.0, trace=0, deck_size=2)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert meta["failed_ratio"] == 1.0
    assert result["correct"] is False


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideal-count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""Smoke test of the benchmark itself, on tiny ladders.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Each ladder keeps more than ten inputs, so the tail percentile exists.
TINY = {
    "mutate-ladder": {
        "ladder": (
            ("ordinary", False, (8,), range(1, 8)),
            ("skew", True, (8,), range(1, 4)),
        )
    },
    "skew-presentations": {"ladder": ((8,), range(1, 5)), "gradings": 3},
    "fuzz-moves": {"count": 24},
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run.measure(workload, 1, 0.1, trace, TINY[workload])
    lines, final = run.report(result)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert sorted(final["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert final["metrics"][name]["unit"] == unit
        assert isinstance(final["metrics"][name]["value"], (int, float))
        assert any(
            line.startswith(f"{name} = ") and f" {unit}" in line for line in lines
        ), name
    if trace:
        values = result["values"]
        self_total = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert 0 < self_total <= values["trace.wall_s"]
        if workload == "fuzz-moves":
            assert values["algebra.calls"] == values["linalg.calls"] == 0
            assert values["homotopy.calls"] == 0


WRONG = {
    "mutate-ladder": lambda expected: {"dim": expected["dim"] + 1},
    "skew-presentations": lambda expected: expected | {"dim": expected["dim"] + 1},
    "fuzz-moves": lambda expected: expected | {"commutes": False},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_fire_on_wrong_known_answers(workload, tmp_path):
    pkg = run.load_package()
    inputs = workloads.build(pkg, workload, 1, tmp_path, **TINY[workload])
    verdict = workloads.VERDICTS[workload]
    assert run.run_pass(pkg, inputs, verdict)["failures"] == []
    for item in inputs.items:
        item.expected = WRONG[workload](item.expected)
    failures = run.run_pass(pkg, inputs, verdict)["failures"]
    assert len(failures) == len(inputs.items)


def test_wrong_verdicts_make_the_run_incorrect(monkeypatch):
    monkeypatch.setitem(workloads.VERDICTS, "fuzz-moves", lambda pkg, item: "wrong")
    result = run.measure("fuzz-moves", 1, 0.1, False, TINY["fuzz-moves"])
    lines, final = run.report(result)
    assert not final["correct"]
    assert final["failed"] == final["attempted"] == result["inputs"] * result["passes"]
    assert any(line.startswith("FAILED ") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_second_seed_gives_a_ladder_of_the_same_shape(workload, tmp_path):
    pkg = run.load_package()
    first = workloads.build(pkg, workload, 1, tmp_path)
    again = workloads.build(pkg, workload, 1, tmp_path)
    second = workloads.build(pkg, workload, 2, tmp_path)
    assert first.digest == again.digest
    assert first.digest != second.digest
    assert [i.shape() for i in first.items] == [i.shape() for i in second.items]


def test_benchmark_json_names_every_layer_stage_and_counter():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in tracing.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors"} <= names
    assert {f"stage.{stage}_s" for stage in tracing.STAGES} <= names
    assert set(tracing.COUNTERS) <= names
    assert "trace.overhead_s" in names
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

"""Smoke tests of the benchmark harness, on tiny variants of the workloads.

Run from the root of the repository:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    return run


def test_workloads_match_spec(harness):
    assert sorted(harness.WORKLOADS) == sorted(NAMES)
    assert sorted(harness.SMOKE) == sorted(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in group}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == {m["name"] for m in group} | {"failed_frac"}


def test_traced_counts_agree_and_patches_are_undone(harness):
    import icsim.hashing
    import icsim.simulate

    def metrics(workload):
        out = harness.run(workload, 5, 1, True, smoke=True)["result"]
        assert out["correct"]
        return {k: v["value"] for k, v in out["metrics"].items()}

    m = metrics("p1-exact")
    assert m["hashing.families"] == m["simulate.exact_atoms"] == \
        m["simulate.run_calls"] == m["hashing.apply_calls"] > 0
    m = metrics("p5-exchange")
    trials = harness.SMOKE["p5-exchange"].trials
    assert m["probcore.sample_calls"] == trials
    assert m["hashing.draw_calls"] == m["hashing.apply_calls"] == \
        m["simulate.run_calls"] - trials > 0
    assert icsim.simulate.draw_hash is icsim.hashing.draw_hash
    assert not hasattr(icsim.hashing.draw_hash, "__wrapped__")
    assert not hasattr(icsim.hashing.HashFamily.apply_bits, "__wrapped__")


@pytest.mark.parametrize("garble", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_reports_count_as_failed(harness, monkeypatch, workload,
                                           garble):
    import icsim.cli

    emit = icsim.cli._emit

    def corrupt(doc, out):
        if garble:
            sys.stdout.write("{not json\n")
        else:
            emit(dict(doc, tv=doc["tv"] + 0.25), out)

    monkeypatch.setattr(icsim.cli, "_emit", corrupt)
    result = harness.run(workload, 5, 1, False, smoke=True)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_report_differing_from_the_first_counts_as_failed(harness,
                                                          monkeypatch):
    import icsim.cli

    emit = icsim.cli._emit
    calls = []

    def drift(doc, out):
        calls.append(doc)
        emit(dict(doc, budget=doc["budget"] + 1e-12 * (len(calls) > 1)), out)

    monkeypatch.setattr(icsim.cli, "_emit", drift)
    result = harness.run("p1-exact", 5, 1, False, smoke=True)["result"]
    assert result["failed"] == result["attempted"] - 1 >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

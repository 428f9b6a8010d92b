"""Self-test of the host-time benchmark (about a minute on 2 vCPUs).

Run from the repository root::

    python3 -m pytest -q hostbench/test_hostbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("fig5", "syscall", "ipc", "launch", "sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=900,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """Every workload for 1 s, gated against a reference every workload
    beats by far: it must fail and still write its --out document."""
    tmp = tmp_path_factory.mktemp("bench")
    reference = tmp / "reference.json"
    reference.write_text(json.dumps({"unit_p50_norm": {w: 0.01 for w in WORKLOADS}}))
    out = tmp / "bench-result.json"
    proc = _run("--seconds", "1", "--check", str(reference), "--out", str(out))
    return proc, out


def test_every_end_to_end_metric_is_printed_with_its_unit(checked):
    proc, _out = checked
    metrics = _last_json(proc.stdout)["metrics"]
    for workload in WORKLOADS:
        for spec in BENCHMARK["end_to_end"]:
            entry = metrics[f"{workload}.{spec['name']}"]
            assert entry["unit"] == spec["unit"]
            assert entry["value"] > 0


def test_no_unit_fails(checked):
    proc, _out = checked
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "fail_ratio 0.0000" in proc.stdout


def test_check_against_a_faster_reference_fails_and_writes_out(checked):
    proc, out = checked
    assert proc.returncode != 0
    assert "REGRESSION" in proc.stdout
    assert set(json.loads(out.read_text())["workloads"]) == set(WORKLOADS)


def test_check_fails_on_a_workload_missing_from_the_reference(tmp_path):
    sys.path.insert(0, HERE)
    try:
        import run
    finally:
        sys.path.remove(HERE)
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"unit_p50_norm": {"fig5": 100.0}}))
    results = {
        name: {"metrics": {"unit_p50_norm": {"value": 1.0}}}
        for name in ("fig5", "ipc")
    }
    assert run.check(results, str(reference)) == [
        f"ipc: missing from {reference}"
    ]


def test_trace_prints_every_per_layer_metric():
    proc = _run("--seconds", "1", "--trace")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0
    for workload in WORKLOADS:
        for spec in BENCHMARK["per_layer"]:
            entry = result["metrics"][f"{workload}.{spec['name']}"]
            assert entry["unit"] == spec["unit"]
        share = result["metrics"][f"{workload}.trace.max_thread_self_share"]
        assert 0 < share["value"] <= 1.0


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    command = BENCHMARK["command"] + [
        "--workload", "fig5", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

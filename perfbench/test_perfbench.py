"""The benchmark's own tests: a seconds-long smoke run of every workload
with the same output checks, plus the pieces those checks rest on.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hospital  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ("portal-reads", "clinical-writes", "restart")


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(layers.UNITS)
    for name in ("serving.execute_ms", "serving.read_ms", "storage.dump_ms",
                 "wal.log.log_commit_ms", "replication.replica.apply_ms"):
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_names_the_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_run_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "restart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_reject_answers_the_policy_rules_out():
    shadow = hospital.Shadow({"p00000": hospital.Record("oncology", "asthma-1")})
    hospital.check_patient_read("p00000", [("p00000", "oncologyasthma-1")], shadow)
    with pytest.raises(hospital.CheckFailed):  # a second patient leaked
        hospital.check_patient_read(
            "p00000", [("p00000", "oncologyasthma-1"), ("p00001", "x")], shadow
        )
    with pytest.raises(hospital.CheckFailed):  # diagnosis text not restricted
        hospital.check_secretary_read("p00000", [("asthma-1", "asthma-1")], shadow)
    with pytest.raises(hospital.CheckFailed):  # patient name not restricted
        hospital.check_epidemiologist_read(1, [("p00000", "oncologyasthma-1")], shadow)


def test_tracer_restores_every_entry_point():
    originals = [
        (owner, attr, owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None)
        for _name, owner, attr, _kind in tracing.entry_points()
    ]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__.get(attr) is original, attr

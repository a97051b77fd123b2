"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done, result = run(workload, trace)
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from tracing import Tracer

    base = ROOT / ".perfbench_out" / "test-seed"

    def inputs(seed, name):
        work = base / name
        work.mkdir(parents=True)
        certify = workloads.CertifyLarge(seed, True, work)
        certify.setup(Tracer(False))
        return certify.path.read_bytes(), workloads.StringNonlinear(seed, True, work).x0.tobytes()

    shutil.rmtree(base, ignore_errors=True)
    try:
        first = inputs(5, "a")
        assert first == inputs(5, "b")
        assert all(x != y for x, y in zip(first, inputs(6, "c")))
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_missing_program_exits_without_result():
    """Without src/ the command fails fast and prints no result."""
    lone = ROOT / ".perfbench_out" / "test-lone"
    shutil.rmtree(lone, ignore_errors=True)
    try:
        (lone / "perfbench").mkdir(parents=True)
        for name in ("run.py", "workloads.py", "tracing.py"):
            shutil.copy(HERE / name, lone / "perfbench" / name)
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(lone, ignore_errors=True)
    assert done.returncode == 2
    assert done.stdout == ""

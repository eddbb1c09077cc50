"""Smoke test of the benchmark itself, at ``--scale tiny``: the first case
of each label of every ladder, so every family and perturbation it times.

    python -m pytest perfbench

Each run happens in a subprocess, as the benchmark's users run it, so the
library it re-imports never mixes with the one this process imported.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_declared_metrics_emitted_and_no_task_fails(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert "fail_rate 0.0 ratio" in proc.stdout


def test_perturbed_documents_exit_1(tmp_path):
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
import run, bench_tasks
lib, cases = run.setup("wide-check", 7, "tiny", {str(tmp_path)!r})
print(json.dumps([[c.label, c.expect, bench_tasks.wide_check(c, lib)[0]] for c in cases]))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout.splitlines()[-1])
    perturbed = [o for o in outcomes if "!" in o[0]]
    assert perturbed and len(perturbed) < len(outcomes)
    assert all(expect == 1 and code == 1 for _, expect, code in perturbed)
    assert all(code == 0 for label, _, code in outcomes if "!" not in label)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

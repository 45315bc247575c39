"""Tiny-scale smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a planted wrong answer and a raised exception each count as a failed op, and
that the benchmark refuses to run without the program's sources.
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
TINY = "0.2"  # --seconds: a scale of 1/60

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
sys.setrecursionlimit(20000)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", TINY, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_planted_wrong_answer_and_exception_count_as_failed():
    wl = workloads.Queries(seed=3, scale=0.002)
    ops = list(wl.ops)
    law = next(i for i, op in enumerate(ops) if op[6] is True)
    ops[law] = ops[law][:6] + (False,) + ops[law][7:]  # plant a wrong expectation
    broken = next(i for i, op in enumerate(ops) if i != law)
    ops[broken] = ops[broken][:2] + ("a ->",) + ops[broken][3:]  # parse error
    cal = run.Calibration()
    clean = run.run_pass(wl, wl.ops, spans.NullTracer(), cal)
    planted = run.run_pass(wl, ops, spans.NullTracer(), cal)
    assert clean.failed == 0
    assert planted.wrong == 1
    assert planted.exceptions == {"ParseError": 1}
    assert planted.failed == 2  # the numerator of failed_share


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _run("queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

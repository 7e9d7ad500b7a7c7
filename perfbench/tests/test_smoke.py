"""Smoke test of the benchmark: every workload, one iteration, both modes.

Run from the repository root:

    python3 -m pytest perfbench/tests

Each case runs ``perfbench/run.py`` with ``--seconds 0``, so each workload
does the least a run can do (one iteration, two more when traced), and
checks that the result line carries every metric ``BENCHMARK.json`` names,
with its unit, and that every output check passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "multisig", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_direct_children():
    spans = []
    for name, parent, start, end in [("a", -1, 0, 100), ("b", 0, 10, 40), ("c", 1, 15, 25),
                                     ("b", 0, 50, 70)]:
        span = tracing.Span(name, None, parent)
        span.start, span.end = start, end
        spans.append(span)
    stats = tracing.summarize(spans)
    assert (stats["a"].calls, stats["a"].ns, stats["a"].self_ns) == (1, 100, 50)
    assert (stats["b"].calls, stats["b"].ns, stats["b"].self_ns) == (2, 50, 40)
    assert stats["c"].self_ns == 10

"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q perfbench/selftest.py

The traced runs take about three minutes in all on two cores, most of it the
two ldp-ou minimisations.
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
sys.path.insert(0, str(HERE))

from tracer import LAYERS, PER_LAYER, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("step_ms_p50", "ms"),
              ("step_ms_p90", "ms"), ("peak_rss_mb", "MB")]
#: Per-layer metrics that are exact counts: two traced runs at one seed agree.
COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "ratio", "B", "B-computed")]


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=180,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_every_wrapped_function_is_named_by_a_workload():
    wrapped = {f"{layer}.{name}" for layer, (_, names) in LAYERS.items() for name in names}
    named = set().union(*(w.traced for w in WORKLOADS.values()))
    assert named == wrapped


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0


def test_end_to_end_run_prints_every_metric():
    out = result(bench("--workload", "mc-ou", "--seed", "3", "--seconds", "1"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = result(bench("--workload", workload, "--seed", "0", "--trace", "1"))
    second = result(bench("--workload", workload, "--seed", "0", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert [k for k in first["metrics"]] == [name for name, _ in PER_LAYER]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_renamed_function_fails_loudly():
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import torusbq.diagnostics, torusbq.io, torusbq.ldp, torusbq.transport\n"
        "del torusbq.transport.cfl_number\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "torusbq.transport.cfl_number no longer exists" in proc.stderr


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-ou", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

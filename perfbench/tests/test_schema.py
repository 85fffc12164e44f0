"""The benchmark's own checks, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every workload must report each end-to-end metric of ``BENCHMARK.json``
with its unit (``--trace 0``) and each per-layer metric (``--trace 1``),
with all outputs correct.  A directory without the program must make the
benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))

#: layers each workload exercises in its traced half: their self time
#: must be positive
BUSY = {
    "build": ["parsing.forest_s", "training.train_s", "coding.counts_s",
              "core.program_s", "parsing.blocks_s", "compress.tile_s",
              "parsing.encode_s", "coding.encode_s", "storage.load_s",
              "coding.decode_s", "interp.tables_s", "interp.dispatch_s",
              "interp.native_open_s", "interp.native_run_s",
              "core.program_builds"],
    "serve": ["service.compress_cold_ms", "service.compress_hot_ms",
              "service.run_ms", "service.jobs_per_compress",
              "service.batch_mean"],
}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "4", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    zero = [k for k, v in metrics.items() if not v["value"] > 0]
    assert not zero, f"{workload}: metrics read 0: {zero}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = _result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    idle = [k for k in BUSY[workload] if not metrics[k]["value"] > 0]
    assert not idle, f"{workload}: busy layers read 0: {idle}"
    assert 0 <= metrics["trace.unattributed_frac"]["value"] <= 1
    if workload != "serve":
        assert metrics["training.rules"]["value"] > 0
        assert metrics["interp.native_compilations"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("build", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_self_time_and_coverage():
    from spans import Tracer
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    inner.start, inner.end = 1.0, 2.0
    outer.start, outer.end = 0.5, 3.0
    outer.children_s = inner.seconds
    seconds = tracer.self_seconds()
    assert seconds == {"inner": 1.0, "outer": 1.5}
    assert tracer.uncovered_share([(0.0, 4.0)]) == pytest.approx(0.375)
    assert tracer.uncovered_share([(0.0, 1.0), (2.5, 3.5)]) == \
        pytest.approx(0.5)


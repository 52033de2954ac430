"""The benchmark's own tests: python3 -m pytest bench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.serialize(workloads.generate(workload, 3))
    again = workloads.serialize(workloads.generate(workload, 3))
    other = workloads.serialize(workloads.generate(workload, 4))
    assert first == again
    assert first != other


def _emitted_layer_metrics():
    fns = {f"{m}.{f}": {"calls": 1, "self_s": 0.0}
           for m, funcs in tracer.TRACED.items() for f in funcs}
    summary = {"functions": fns, "counts": {}, "spans": 0,
               "layers": {layer: 0.0 for layer in tracer.LAYERS}}
    names = set(run.layer_metrics(summary, 1.0))
    return names | {"trace_overhead_ratio"}


def test_metric_names_match_the_spec():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == [name for name, _ in run.END_TO_END]
    assert set(layer) == _emitted_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == \
        sorted(workloads.GENERATORS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_every_layer_metric_is_in_the_layer_map():
    keys = json.loads((HERE / "layer_map.json").read_text())["layers"]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert any(name == k or name.startswith(k + ".") or
                   name.startswith(k + "_") for k in keys), name


def _smoke_items(workload, items):
    if workload == "classify-pairs":
        return items[:150]
    if workload == "rsz-separated":
        slow = ("alternating 4", "linear 6")
        return [i for i in items if i.get("label") not in slow]
    return items[:3]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_pass_has_no_failures(workload):
    root = run.find_root()
    inputs = workloads.generate(workload, workloads.DEFAULT_SEED)
    inputs["items"] = _smoke_items(workload, inputs["items"])
    inputs["workload"] = f"smoke-{workload}"
    work = run.prepare_inputs(root, inputs)
    result = run.run_worker(root, work, workloads.DEFAULT_SEED, True)
    assert result["attempted"] == len(inputs["items"])
    assert result["failed"] == 0, result["failures"]
    assert run.trace_problems([result]) == []
    assert result["trace"]["spans"] > 0
    assert result["wall_s"] > 0 and result["raw_wall_s"] > 0


def test_refuses_to_run_without_the_sources():
    bare = HERE.parent / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-dims",
         "--seconds", "1"], cwd=bare, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""quivertau benchmark runner (standard library only).

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Inputs come from the seed (see
workloads.py).  Every timed pass runs in a fresh interpreter (worker.py),
one process at a time, so the program's unbounded path and dimension caches
start empty, as they do for each ``qt`` invocation.  Passes repeat until
``--seconds`` would be exceeded, and every figure is the median over
passes.  Times are normalized by a speed reference sampled every 50 ms
of a pass (worker.run_pass), because the shared host's speed drifts by up to 2x from
one minute to the next; the raw medians are printed as comments.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
WORKER_TIMEOUT_S = 150
WORK_DIR = ".bench_work"

# End-to-end metrics: (name, unit), from untraced passes.
END_TO_END = (
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def find_root():
    root = HERE.parent
    if not (root / "src" / "quivertau" / "__init__.py").is_file():
        raise BenchError(f"no quivertau sources under {root / 'src'}; run "
                         "from the root of a full source checkout")
    return root


def prepare_inputs(root, inputs):
    """Write the quiver files the CLI requests read, recording each file
    name on its factor, then inputs.json; returns the work directory."""
    work = root / WORK_DIR / inputs["workload"]
    work.mkdir(parents=True, exist_ok=True)
    for index, item in enumerate(inputs["items"]):
        if item.get("via") != "cli":
            continue
        for slot in "ab":
            spec = item.get(slot)
            if spec is not None and "text" in spec:
                spec["file"] = f"q{index}{slot}.quiver"
                (work / spec["file"]).write_text(spec["text"],
                                                 encoding="utf-8")
    (work / "inputs.json").write_bytes(workloads.serialize(inputs))
    return work


def run_worker(root, work, seed, trace):
    """One pass in a fresh interpreter; returns its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    cmd = [sys.executable, str(HERE / "worker.py"), str(work)]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(cmd + [str(spawn_ns), "1" if trace else "0"],
                          env=env, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(root, work, seed, seconds, trace):
    """Untraced passes, or alternating untraced/traced pairs when tracing,
    until the next one would overrun ``seconds``."""
    minimum = MIN_TRACED_PAIRS if trace else MIN_PASSES
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_worker(root, work, seed, False))
        if trace:
            traced.append(run_worker(root, work, seed, True))
        elapsed = time.monotonic() - start
        next_cost = elapsed / len(plain)
        if len(plain) >= minimum and elapsed + next_cost > seconds:
            return plain, traced


def end_to_end(plain):
    """Medians over passes of the speed-normalized times (worker.run_pass).
    An item's latency is its median over the passes, which all run the
    same items in the same order; the latency percentiles are taken over
    those per-item medians, inclusively, so that they stay within the
    observed latencies."""
    item_ms = [statistics.median(times)
               for times in zip(*(p["item_ms"] for p in plain))]
    deciles = statistics.quantiles(item_ms, n=10, method="inclusive")
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "item_ms_p50": deciles[4],
        "item_ms_p90": deciles[8],
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


# Per-function metrics reported from the trace: (function, fields).
TRACED_FUNCTIONS = (
    ("catalog.has_quotient", ("calls", "self_s")),
    ("catalog.is_iso", ("calls", "self_s")),
    ("presentation.quotient", ("calls", "self_s")),
    ("presentation.dimension_table", ("calls", "self_s")),
    ("presentation.all_paths", ("calls",)),
    ("presentation.structural_profile", ("self_s",)),
    ("presentation.homology_rank", ("self_s",)),
    ("presentation.validate_presentation", ("self_s",)),
    ("presentation.ideal_membership_spaces", ("calls", "self_s")),
    ("presentation.parse_presentation", ("self_s",)),
    ("linalg.SparseSpace.add", ("calls", "self_s")),
    ("linalg.SparseSpace.contains", ("calls", "self_s")),
    ("tensor.tensor_product", ("calls", "self_s")),
    ("tensor.rad_square_quotient", ("self_s",)),
    ("sepgraph.adachi_decide", ("calls", "self_s")),
    ("sepgraph.minimal_bad_single_subquiver", ("self_s",)),
    ("sepgraph.is_rad_square_zero", ("self_s",)),
    ("sepgraph.classify_graph", ("calls", "self_s")),
    ("sepgraph.separated_quiver", ("self_s",)),
    ("strings.band_search", ("calls", "self_s")),
    ("strings.special_biserial_check", ("self_s",)),
    ("classify.classify_tensor", ("calls", "self_s")),
    ("classify.classify_single", ("self_s",)),
    ("classify.classify_self_tensor", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
COUNTERS = ("presentation.paths_enumerated", "sepgraph.witness_vertices",
            "classify.status.finite", "classify.status.infinite",
            "classify.status.open", "classify.typed_errors")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, wall_s):
    """Per-layer figures of one traced pass, as {name: (value, unit)}."""
    fns, counts = summary["functions"], summary["counts"]
    out = {}
    for fn, fields in TRACED_FUNCTIONS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            out[f"{fn}.{field}"] = (fns[fn][field], unit)
    for fn in ("catalog.has_quotient", "catalog.is_iso"):
        out[f"{fn}.hit_ratio"] = (
            _ratio(counts.get(fn + ".hits", 0), fns[fn]["calls"]), "ratio")
    out["linalg.add_rank_grew_ratio"] = (
        _ratio(counts.get("linalg.add_rank_grew", 0),
               fns["linalg.SparseSpace.add"]["calls"]), "ratio")
    for key in COUNTERS:
        out[key] = (counts.get(key, 0), "count")
    traced_total = sum(summary["layers"].values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (summary["layers"][layer], "s")
    out["layer.outside.self_s"] = (wall_s - traced_total, "s")
    out["traced_wall_s"] = (wall_s, "s")
    out["trace.spans"] = (summary["spans"], "count")
    return out


def per_layer(plain, traced):
    per_pass = [layer_metrics(t["trace"], t["raw_wall_s"]) for t in traced]
    metrics = {name: {"value": statistics.median(p[name][0]
                                                 for p in per_pass),
                      "unit": unit}
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace_overhead_ratio"] = {
        "value": statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain),
        "unit": "ratio"}
    return metrics


def trace_problems(traced):
    """Sanity of the span accounting, one message per broken pass."""
    out = []
    for k, t in enumerate(traced):
        total = sum(t["trace"]["layers"].values())
        if total > t["raw_wall_s"]:
            out.append(f"traced pass {k}: self times {total:.3f}s exceed "
                       f"wall {t['raw_wall_s']:.3f}s")
        if t["trace"]["negative_self"]:
            out.append(f"traced pass {k}: negative self times")
    return out


def environment(inputs, plain, traced):
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "items_per_pass": len(inputs["items"]),
            "passes": len(plain), "traced_passes": len(traced),
            "item_samples": len(inputs["items"]) * len(plain),
            "process": "each pass in a fresh single-threaded interpreter, "
                       "one at a time",
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "raw_setup_s": statistics.median(p["raw_setup_s"]
                                             for p in plain)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"input seed (default {workloads.DEFAULT_SEED}); seed "
             f"{workloads.HELD_OUT_SEED} is held out to confirm a claimed gain")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = find_root()
        inputs = workloads.generate(args.workload, args.seed)
        work = prepare_inputs(root, inputs)
        plain, traced = run_passes(root, work, args.seed, args.seconds,
                                   bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    problems += trace_problems(traced)
    env = environment(inputs, plain, traced)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: failed_ratio "
          f"{failed / attempted:.4f} ({failed}/{attempted})")
    verified = {k: sum(p["verified"][k] for p in passes)
                for k in passes[0]["verified"]}
    print("# certificates verified: " + json.dumps(verified, sort_keys=True))
    if len(inputs["items"]) < 100:
        print("# item_ms_p90: fewer than 100 items per pass, so it reads "
              "close to the slowest item")
    for line in problems[:10]:
        print(f"# problem: {line}")
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

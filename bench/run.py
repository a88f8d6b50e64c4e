"""Benchmark of the intervalcolor package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload survey6 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all      # every workload, one row each
    python3 bench/selftest.py                # shows that the checks can fail

One process, one client, closed loop: each item starts when the previous one
has finished. A run repeats timed passes over the workload's fixed input
until ``--seconds`` have elapsed (and at least MIN_PASSES untraced passes
have run), checks every pass's outputs, and prints a
metadata line, a human-readable row and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off; set-up is timed in fresh interpreters (see
setup_probe.py). Times are reported in reference seconds: the host's speed
drifts, so a fixed stdlib kernel is timed every quarter second between
items and scales the work around it (calibrate.py); raw seconds are in the
metadata line. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: self time and calls per module, taken from
spans around the package's public functions (tracer.py), a per-t
decomposition of the search, and the tracing overhead.

Counts (search nodes, decided graphs, layer calls) are deterministic. They
must agree between all passes of a run and all runs on the same source
tree; runs record them under .bench_state/ and exit with status 3 on a
mismatch. A correctness failure prints the result with "correct": false and
exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import package
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9
# Untraced passes per run at least, even when one pass outlasts --seconds,
# so that every run takes per-item latencies from the same kind of sample.
MIN_PASSES = 2

# Per-layer seconds: metric -> span names whose self times it sums.
LAYER_SECONDS = {
    "solver.s": ("solver.compute_W", "solver.find"),
    "bounds.s": ("bounds.applicable", "bounds.best", "bounds.audit"),
    "catalog.s": ("catalog.generate",),
    "graph.parse.s": ("graph.parse",),
    "graph.write.s": ("graph.write",),
    "graph.classify.s": ("graph.classify",),
    "coloring.validate.s": ("coloring.validate",),
    "coloring.json.s": ("coloring.json",),
    "doubling.build.s": ("doubling.build",),
    "doubling.lift.s": ("doubling.lift",),
    "doubling.recolor.s": ("doubling.recolor",),
    "doubling.cert_json.s": ("doubling.cert_json",),
    "doubling.s": (
        "doubling.build",
        "doubling.lift",
        "doubling.recolor",
        "doubling.cert_json",
        "doubling.pipeline",
    ),
    "survey.s": ("survey.graph",),
    "survey.csv.s": ("survey.csv",),
}
LAYER_CALLS = {
    "solver.calls": ("solver.compute_W", "solver.find"),
    "catalog.encodings": ("catalog.encodings",),
    "graph.classify.calls": ("graph.classify",),
    "coloring.validate.calls": ("coloring.validate",),
}


def tree_digest() -> str:
    """Digest of the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def metadata(args, items: int, passes: int) -> dict:
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "tree_sha256": tree_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
        "items_per_pass": items,
        "passes": passes,
    }


def probe_setup(args) -> list[tuple[float, float]]:
    """(raw, reference) set-up seconds from SETUP_SAMPLES fresh
    interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def decompose(ic, solves) -> dict[str, float]:
    """Split each compute_W call into its per-t layers by replaying the
    descent with find_interval_coloring, sharing the node cap the same way."""
    out = dict.fromkeys(
        (
            "solver.nodes_infeasible",
            "solver.nodes_witness",
            "solver.nodes_aborted",
            "solver.layers_infeasible",
            "solver.layers_witness",
            "solver.decomp_gap",
            "bounds.layers_above_w",
        ),
        0,
    )
    kind = {"infeasible": "infeasible", "found": "witness", "aborted": "aborted"}
    for g, limits, outcome in solves:
        limits = limits or ic.SearchLimits()
        cutoff = ic.best_upper_bound(g, ic.classify(g))
        if limits.t_override is not None:
            cutoff = min(cutoff, limits.t_override)
        total = 0
        for t in range(cutoff, g.max_degree - 1, -1):
            budget = 0
            if limits.node_limit:
                budget = limits.node_limit - total
                if budget <= 0:
                    break
            layer = ic.find_interval_coloring(g, t, ic.SearchLimits(node_limit=budget))
            total += layer.nodes_expanded
            status = kind[layer.status.value]
            out[f"solver.nodes_{status}"] += layer.nodes_expanded
            if status == "aborted":
                break
            out[f"solver.layers_{status}"] += 1
            if status == "witness":
                out["bounds.layers_above_w"] += cutoff - t
                break
        out["solver.decomp_gap"] += outcome.nodes_expanded - total
    nodes = out["solver.nodes_infeasible"] + out["solver.nodes_witness"] + out["solver.nodes_aborted"]
    out["solver.useful_frac"] = out["solver.nodes_witness"] / nodes if nodes else 0.0
    return out


def layer_metrics(tr: tracer.Tracer, search_nodes: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; seconds in reference seconds."""
    seconds, calls = tr.self_times()
    out: dict[str, float] = {}
    for metric, names in LAYER_SECONDS.items():
        out[metric] = scale * sum(seconds.get(name, 0.0) for name in names)
    for metric, names in LAYER_CALLS.items():
        out[metric] = sum(calls[name] for name in names)
    out["solver.nodes_per_s"] = search_nodes / out["solver.s"] if out["solver.s"] else 0.0
    return out


@dataclass
class Pass:
    raw_seconds: float  # wall time of the pass, calibration excluded
    seconds: float  # the same in reference seconds
    latencies: list[float]  # reference seconds per item
    traced: bool
    layers: dict[str, float]


class CountMismatch(Exception):
    pass


def guard_counts(workload: str, counts: dict[str, int]) -> None:
    """Counts must repeat exactly across runs on the same source tree."""
    state_dir = ROOT / ".bench_state"
    state_dir.mkdir(exist_ok=True)
    path = state_dir / f"{tree_digest()[:16]}-{workload}.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in counts.items():
        if key in seen and seen[key] != value:
            raise CountMismatch(f"{key} = {value}, an earlier run on this tree had {seen[key]}")
    seen.update(counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, path)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    ref = wl.load_reference()
    ic = package.import_package()
    state = wl.setup(ic, args.seed, ref)
    items = wl.items(state)
    setup_samples = [] if args.trace else probe_setup(args)

    passes: list[Pass] = []
    counts: dict[str, int] | None = None
    attempted = failed = 0
    reasons: list[str] = []
    last_solves: list = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = tracer.Recorder()
        meter = calibrate.Meter()
        if traced:
            tr = tracer.Tracer()
            restore = tracer.install(tr.wrappers(rec.wrappers()))
        else:
            # Untraced passes also calibrate inside catalog generation, a
            # single call of several seconds in n7_capped.
            tr = None
            ticking = {("catalog", "minimum_adjacency_encoding"): meter.around}
            restore = tracer.install({**rec.wrappers(), **ticking})
        try:
            out = wl.run_pass(ic, state, meter)
            meter.finish()
        except Exception as exc:  # the program failed: every item of the pass fails
            attempted += items
            failed += items
            reasons.append(f"pass raised {exc!r}")
            break
        finally:
            restore()
        bad = wl.check(state, ref, out, rec)
        attempted += items
        failed += len(bad)
        reasons += [f"item {i}: {r}" for i, rs in sorted(bad.items()) for r in rs][:5]
        search_nodes = sum(o.nodes_expanded for _, _, o in rec.solves)
        pass_counts = {"search_nodes": search_nodes, "decided": wl.decided(out)}
        layers = layer_metrics(tr, search_nodes, meter.seconds / meter.raw_seconds) if tr else {}
        pass_counts.update({k: int(layers[k]) for k in LAYER_CALLS if k in layers})
        if counts is not None and any(counts.get(k, v) != v for k, v in pass_counts.items()):
            raise CountMismatch(f"counts differ between passes: {counts} vs {pass_counts}")
        counts = {**(counts or {}), **pass_counts}
        passes.append(Pass(meter.raw_seconds, meter.seconds, meter.latencies, traced, layers))
        # Nothing of this pass stays alive into the next, so that peak memory
        # does not depend on how many passes fit into the run.
        last_solves = rec.solves if args.trace else []
        del out, rec, tr
        enough = len({p.traced for p in passes}) == 2 if args.trace else len(passes) >= MIN_PASSES
        if enough and perf_counter() - start >= args.seconds:
            break

    correct = failed == 0
    untraced = [p for p in passes if not p.traced]
    result: dict = {}
    meta = metadata(args, items, len(passes))
    meta["pass_seconds_raw"] = [p.raw_seconds for p in passes]
    meta["pass_seconds"] = [p.seconds for p in passes]
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        if traced_passes:
            for key in traced_passes[0].layers:
                result[key] = statistics.median(p.layers[key] for p in traced_passes)
            result.update({k: counts[k] for k in LAYER_CALLS})
            decomposition = decompose(ic, last_solves)
            result.update(decomposition)
            counts.update({k: v for k, v in decomposition.items() if isinstance(v, int)})
            result["search_nodes"] = counts["search_nodes"]
            result["trace_overhead_frac"] = (
                statistics.median(p.seconds for p in traced_passes)
                / statistics.median(p.seconds for p in untraced)
                - 1
            )
    elif untraced:
        # Each item's latency is its lower median over passes: with two
        # passes the faster one, so that one stall does not move it. Every
        # item has at least MIN_PASSES samples, so the tail is the item with
        # 10 / MIN_PASSES items slower than it, which leaves at least 10
        # samples beyond it. An exact rank, so that no interpolation mixes
        # two items of very different cost.
        per_item = sorted(
            statistics.median_low(p.latencies[i] for p in untraced) for i in range(items)
        )
        slower = math.ceil(10 / MIN_PASSES)
        tail_rank = max(items - 1 - slower, 0)
        meta["latency"] = {
            "items": items,
            "passes": len(untraced),
            "samples": items * len(untraced),
            "p50": {"samples_beyond": items // 2 * len(untraced)},
            "tail": {
                "percentile": 100 * tail_rank / max(items - 1, 1),
                "samples_beyond": slower * len(untraced),
            },
        }
        result = {
            "wall_s": statistics.median(p.seconds for p in untraced),
            "items_per_s": statistics.median(items / p.seconds for p in untraced),
            "latency_p50_ms": 1000 * statistics.median(per_item),
            "latency_tail_ms": 1000 * per_item[tail_rank],
            "decided_frac": counts["decided"] / items,
            "setup_s": statistics.median(scaled for _, scaled in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        meta["setup_seconds_raw"] = [raw for raw, _ in setup_samples]
        meta["setup_scaled"] = [scaled for _, scaled in setup_samples]
    meta["search_nodes"] = counts["search_nodes"] if counts else None
    meta["fail_frac"] = failed / attempted if attempted else 1.0
    meta["failures"] = reasons[:5]
    if correct:
        guard_counts(args.workload, counts)

    section = spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    metrics = {name: {"value": result[name], "unit": units[name]} for name in units if name in result}
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload:<10} " + " | ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
    if correct and len(metrics) != len(units):
        raise SystemExit(f"error: metrics missing from the run: {sorted(set(units) - set(metrics))}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = max(status, proc.returncode or 1)
        print("\n".join(lines[:-1]) if lines else f"{name:<10} no result (exit {proc.returncode})")
        if lines and lines[-1].startswith("{"):
            doc = json.loads(lines[-1])
            summary["correct"] &= doc["correct"]
            summary["attempted"] += doc["attempted"]
            summary["failed"] += doc["failed"]
            summary["workloads"][name] = doc["metrics"]
        else:
            summary["correct"] = False
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except CountMismatch as exc:
        print(f"error: counts do not repeat exactly: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

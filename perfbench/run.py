"""DMCS query benchmark: one workload per run, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nca-lfr1k --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run with every layer wrapped, and prints the per-layer metrics (spans are
written to ``perfbench/out/``). The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit, the result digest and any op
that failed. ``perfbench/notes.json`` says why each workload exists,
which end-to-end metric each per-layer metric should move, and which
candidates were measured and left out.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict

import tracing
from tracing import SPARK_STEPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> unit. Printed on every workload: a layer a workload does not
# touch reads 0.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Layers that run while a workload is set up; their seconds are per setup.
SETUP_LAYERS = (
    "gendata",
    "evaluation.queries.query_sets",
    "graphs.localops.core_numbers",
    "graphs.localops.truss_numbers",
    "graphs.localops.node_truss_numbers",
)
PER_LAYER: Dict[str, str] = {
    "core.fpa.self_s": "s",
    "core.peel.remove.calls": "count",
    "core.peel.init.s": "s",
    "core.peel.init.calls": "count",
    "core.peel.score.calls": "count",
    "core.modularity.dm_gain.calls": "count",
    "core.modularity.density_ratio.calls": "count",
    "graphs.local.articulation_points.s": "s",
    "graphs.local.articulation_points.calls": "count",
    "core.nca.removals_per_tarjan": "ratio",
    **{f"graphs.local.{fn}.{kind}": unit
       for fn in ("bfs_dist", "connected_component", "subgraph", "degrees")
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "graphs.local.remove_node.calls": "count",
    "core.nca.self_s": "s",
    "baselines.wu2015.self_s": "s",
    "core.steiner.steiner_connector.s": "s",
    "evaluation.harness.run_algorithms.self_s": "s",
    "evaluation.metrics.score_against_best_truth.s": "s",
    "core.modularity.dm_of.s": "s",
    **{f"{layer}.s": "s" for layer in SETUP_LAYERS},
    **{f"graphs.spark.{op}.{kind}": unit
       for op in SPARK_STEPS
       for kind, unit in (("s", "s"), ("jobs", "count"), ("vs_local", "ratio"))},
    "answers.dm_mean": "dm",
    "answers.nmi_mean": "ratio",
    "trace.ops_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quality(run):
    """Mean DM and NMI of the first pass's answers (0 when it has none)."""
    first = [r for r in run.results[: len(run.ops)] if r.status == "ok" and r.answer is not None]
    dms = [r.dm for r in first if not math.isnan(r.dm)]
    nmis = [r.nmi for r in first if not math.isnan(r.nmi)]
    return (statistics.fmean(dms) if dms else 0.0, statistics.fmean(nmis) if nmis else 0.0)


def end_to_end(run) -> Dict[str, float]:
    n = len(run.results)
    return {
        "setup_s": run.setup_s,
        "ops_per_s": n / run.wall,
        "op_p50_s": statistics.median(r.latency for r in run.results),
        # the driver process only: the Spark JVM is a child and not counted
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (n - run.failed) / n,
    }


def per_layer(tracer, run, setup_reps: int) -> Dict[str, float]:
    """Per-layer metrics of the first pass, as means per op; set-up
    layers as means per set-up."""
    ops = tracer.totals(range(len(run.ops)))
    setup = tracer.totals(["setup"])
    zero = (0.0, 0.0, 0)

    def total(name):
        layer, _, kind = name.rpartition(".")
        if kind == "jobs":  # recorded as a count under the metric's own name
            return ops.get(name, zero)[2] / len(run.ops)
        scope, div = (setup, setup_reps) if layer in SETUP_LAYERS else (ops, len(run.ops))
        s, self_s, calls = scope.get(layer, zero)
        return {"s": s, "self_s": self_s, "calls": calls}[kind] / div

    out: Dict[str, float] = {}
    dm_mean, nmi_mean = quality(run)
    for name in PER_LAYER:
        if name == "core.nca.removals_per_tarjan":
            tarjan = total("graphs.local.articulation_points.calls")
            out[name] = total("graphs.local.remove_node.calls") / tarjan if tarjan else 0.0
        elif name.endswith(".vs_local"):
            step = name.split(".")[2]
            mirror = run.mirror_s.get(step)
            out[name] = total(f"graphs.spark.{step}.s") / mirror if mirror else 0.0
        elif name == "answers.dm_mean":
            out[name] = dm_mean
        elif name == "answers.nmi_mean":
            out[name] = nmi_mean
        elif name == "trace.ops_per_s":
            out[name] = len(run.results) / run.wall
        else:
            out[name] = total(name)
    return out


def baseline_digest(workload: str, seed: int):
    try:
        notes = json.loads((HERE / "notes.json").read_text())
    except (OSError, ValueError):
        return None
    return notes.get("seed_digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    tracer.install()
    try:
        run = workloads.drive(workload, args.seed, args.seconds, tracer, out_dir)
    finally:
        tracer.uninstall()

    for e in run.errors:
        print(f"CHECK FAILED {e}")
    got = workloads.first_pass_digest(workload, run)
    want = baseline_digest(args.workload, args.seed)
    if want is None:
        match = "no digest recorded for this seed"
    else:
        match = "as recorded" if got == want else f"recorded digest was {want}"
    print(f"workload {args.workload} seed {args.seed}: {len(run.results)} ops "
          f"({len(run.ops)} per pass) in {run.wall:.3f} s, {run.failed} failed")
    print(f"digest {got} ({match})")
    if args.trace:
        metrics = per_layer(tracer, run, workloads.SETUP_REPS)
        units = PER_LAYER
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run)
        units = END_TO_END
        tail = workloads.tail_latency([r.latency for r in run.results])
        if tail is not None:
            print(f"op_tail_s = {tail[1]!r} s (p{tail[0]:.1f} of {len(run.results)} ops)")
        dm_mean, nmi_mean = quality(run)
        print(f"answers: dm_mean = {dm_mean!r}, nmi_mean = {nmi_mean!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(run.results),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

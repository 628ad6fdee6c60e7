"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def notes():
    return json.loads((HERE / "notes.json").read_text())


# ----------------------------------------------------------- tail percentile
def test_tail_needs_twenty_samples():
    assert workloads.tail_latency([1.0] * 19) is None


@pytest.mark.parametrize("n, pct", [(20, 50.0), (25, 60.0), (100, 90.0), (1000, 99.0)])
def test_tail_has_exactly_ten_samples_above(n, pct):
    lat = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    got_pct, value = workloads.tail_latency(lat)
    assert got_pct == pytest.approx(pct)
    assert sum(x > value for x in lat) == 10


# ----------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 8.0, 2, 0),  # grandchild: only c loses it
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, None, 0), Span("b", 1.0, 5.0, 0, 0),
             Span("c", 3.0, 7.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_filters_by_op():
    tr = Tracer()
    tr.op = 0
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.add("hits", 3)
    tr.op = "setup"
    with tr.span("outer"):
        pass
    outer, inner = tr.spans[0], tr.spans[1]
    assert outer.parent is None and inner.parent == 0
    tot = tr.totals([0])
    assert tot["outer"].calls == 1 and tot["hits"].calls == 3
    assert tot["outer"].self_s == pytest.approx(tot["outer"].s - tot["inner"].s)
    assert tr.totals(["setup"])["outer"].calls == 1


# -------------------------------------------------------------- metric names
def test_metric_names_and_counts():
    b = bench()
    e2e = [m["name"] for m in b["end_to_end"]]
    layers = [m["name"] for m in b["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for name in e2e + layers + [w["name"] for w in b["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)


def test_benchmark_json_matches_the_code():
    b = bench()
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_notes_cover_every_workload_and_layer_metric():
    n = notes()
    assert set(n["workloads"]) == set(workloads.WORKLOADS)
    for w in n["workloads"].values():
        assert w["chosen_because"] and w["stresses"] and w["bypasses"]
    targets = n["per_layer_targets"]
    assert set(targets) == set(run.PER_LAYER)
    for t in targets.values():
        assert t["moves"] is None or t["moves"] in run.END_TO_END
        assert set(t["on"]) <= set(workloads.WORKLOADS)


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]()
    a, b, other = w.setup(3), w.setup(3), w.setup(4)
    assert w.signature(a) == w.signature(b)
    assert w.signature(a) != w.signature(other)


# ----------------------------------------------------------------- wrappers
def _layer_bindings():
    """Every (owner, attribute) a traced run patches, with its value."""
    import importlib

    out = {}
    for module, cls, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
            out[(owner, attr)] = vars(owner)[attr]
            continue
        fn = getattr(owner, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for key, value in vars(mod).items():
                    if value is fn:
                        out[(mod, key)] = value
    return out


def test_wrappers_are_removed_and_answers_unchanged():
    from repro.evaluation import datasets, harness, queries

    g, comms = datasets.lfr(seed=0, n=300, max_c=60)
    q = queries.query_sets(g, comms, n_sets=1, q_size=1, seed=0)[0]
    algos = harness.variant_algorithms(g, nca_budget=None)
    ctx = workloads.QueryContext(g, comms, algos, [("FPA", q), ("NCA", q)])
    w = workloads.QueryWorkload(lambda seed: ctx)
    before = _layer_bindings()
    plain = [w.run_op(ctx, op, tracing.NullTracer()).answer for op in ctx.ops]
    tr = Tracer()
    tr.install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in before.items())
        for i, op in enumerate(ctx.ops):
            tr.op = i
            assert w.run_op(ctx, op, tr).answer == plain[i]
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())
    tot = tr.totals(range(len(ctx.ops)))
    assert tot["evaluation.harness.run_algorithms"].calls == 2
    assert tot["core.fpa"].calls == 1 and tot["core.nca"].calls == 1
    for layer in ("graphs.local.articulation_points", "graphs.local.remove_node",
                  "core.peel.remove", "core.modularity.dm_gain"):
        assert tot[layer].calls > 0, layer


# ------------------------------------------------------------ incomplete tree
def test_fails_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in ("run.py", "tracing.py"):
        shutil.copy(HERE / f, bench_dir / f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nca-lfr1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

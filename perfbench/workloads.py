"""The benchmark's workloads and the closed-loop driver that runs them.

Every workload builds its inputs from the seed alone, runs a fixed list
of ops (one *pass*), and checks every output after the timed loop. The
loop is closed with one client: the next op starts when the previous one
has returned. It keeps cycling through the pass until the run has lasted
``seconds``, at least one whole pass is done and at least the workload's
``min_ops`` ops have run, so answer quality, digests and per-layer counts
always come from the same first pass. It stops only at the end of a pass,
so that every op of the pass has the same weight in the run's metrics:
ending on a part of ``nca-lfr1k``'s pass moved its ops_per_s with the
number of ops that fit in the run.

Query ops go through ``repro.evaluation.harness.run_algorithms`` one
``(algorithm, Q)`` at a time. The Spark op is one per-graph index pass.
``harness.run_algorithms`` is looked up at call time so the traced run's
wrapper sees every call.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import repro.graphs.localops as localops
from repro.evaluation import datasets, harness, queries
from repro.graphs import components, kcore, triangles
from repro.graphs.graph import Graph
from repro.graphs.local import LocalGraph
from tracing import SPARK_STEPS

SETUP_REPS = 3
# The index pass is ~400 small jobs on a 1K-node graph, bound by per-job
# scheduling rather than parallel work: local[1] took 18-19 s per pass
# against 21-22 s for local[4] on 4 cores, and one task thread is less
# exposed to other load on the machine (local[4] passes ranged 19-26 s).
SPARK_CORES = 1
# Driver JVM options. With the default G1 collector and a heap that grows
# from 1/64 of memory, the pass after the warm-up pass took 21-34 s on
# 4 cores and only the fourth pass settled (18-21 s), so a timed pass fell
# on a warm-up slope of varying length. A fixed 1 GB heap with the serial
# collector settled from the second pass on (16-19 s), also with other
# processes keeping two of the cores busy.
SPARK_DRIVER_MEMORY = "1g"
SPARK_JAVA_OPTIONS = f"-Xms{SPARK_DRIVER_MEMORY} -XX:+UseSerialGC -XX:-UsePerfData"
# Timed index passes per run: one ~17 s pass would rest on a single sample.
SPARK_MIN_PASSES = 2
# e11's scalability graph at its largest size (jobs/e11_scalability.py)
LFR_20K = dict(n=20000, d_avg=12, d_max=60, max_c=200)


class OpResult(NamedTuple):
    status: str  # harness status, or "ok" / "error:<msg>" for a Spark pass
    latency: float
    answer: object  # frozenset community, or canonical Spark step outputs
    dm: float = float("nan")
    nmi: float = float("nan")


class Run(NamedTuple):
    ops: list  # the pass
    results: List[OpResult]  # one per op run, in order
    wall: float  # seconds of the timed loop
    setup_s: float
    errors: List[str]  # output-check failures, "op <i>: <what>"
    failed: int
    mirror_s: Dict[str, float]  # local-mirror seconds per Spark step


# ------------------------------------------------------------------ checks
def induces_connected(adj: Dict[int, set], nodes: frozenset) -> bool:
    start = next(iter(nodes))
    seen, todo = {start}, deque([start])
    while todo:
        for u in adj[todo.popleft()]:
            if u in nodes and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(nodes)


def density_modularity_of(g: LocalGraph, nodes: frozenset) -> float:
    """DM (Definition 2) recomputed from the adjacency, not via repro."""
    l_c = sum(1 for v in nodes for u in g.adj[v] if u in nodes) // 2
    d_c = sum(len(g.adj[v]) for v in nodes)
    return (1.0 / (2.0 * len(nodes))) * (2.0 * l_c - d_c * d_c / (2.0 * g.m))


def digest(items: Sequence) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------- query workloads
class QueryContext(NamedTuple):
    g: LocalGraph
    communities: list
    algos: Dict[str, Callable]
    ops: List[Tuple[str, List[int]]]  # grouped by query, one op per algorithm


def setup_fpa_lfr20k(seed: int) -> QueryContext:
    g, comms = datasets.lfr(seed=seed, **LFR_20K)
    algos = harness.standard_algorithms(g, include=["FPA"], nca_budget=None)
    # FPA peels the whole graph whatever Q is, so two queries are enough,
    # and a two-op pass keeps whole-pass runs short
    qs = queries.query_sets(g, comms, n_sets=2, q_size=1, seed=seed)
    return QueryContext(g, comms, algos, [("FPA", q) for q in qs])


def setup_nca_lfr1k(seed: int) -> QueryContext:
    g, comms = datasets.lfr(seed=seed)
    # no budget: a budget-expired NCA run is labelled "ok" by the harness,
    # so a slower program would silently do less work
    algos = harness.standard_algorithms(g, include=["NCA", "wu2015"], nca_budget=None)
    algos["NCA-DR"] = harness.variant_algorithms(g, nca_budget=None)["NCA-DR"]
    qs = queries.query_sets(g, comms, n_sets=2, q_size=1, seed=seed)
    return QueryContext(g, comms, algos,
                        [(a, q) for q in qs for a in ("NCA", "NCA-DR", "wu2015")])


class QueryWorkload:
    min_ops = 0  # one whole pass is enough

    def __init__(self, setup: Callable[[int], QueryContext]) -> None:
        self.setup = setup

    def signature(self, ctx: QueryContext):
        return (sorted(ctx.g.edges()), ctx.ops)

    def ops(self, ctx: QueryContext):
        return ctx.ops

    def open(self, ctx, work_dir: Path, tracer) -> float:
        return 0.0

    def close(self) -> None:
        pass

    def run_op(self, ctx: QueryContext, op, tracer) -> OpResult:
        algo, q = op
        fn = ctx.algos[algo]
        box: list = []

        def answer(gg, qq):
            box.append(fn(gg, qq))
            return box[-1]

        t0 = time.perf_counter()
        df = harness.run_algorithms(ctx.g, ctx.communities, {algo: answer}, [q])
        latency = time.perf_counter() - t0
        row = df.iloc[0]
        found = frozenset(box[0]) if box and box[0] else None
        return OpResult(str(row["status"]), latency, found, float(row["dm"]), float(row["nmi"]))

    def check(self, ctx: QueryContext, op, res: OpResult) -> List[str]:
        _, q = op
        found = res.answer
        if found is None:
            return ["status ok but no community returned"]
        errors = []
        if not set(q) <= found:
            errors.append("community does not contain Q")
        if not induces_connected(ctx.g.adj, found):
            errors.append("community does not induce a connected subgraph")
        dm = density_modularity_of(ctx.g, found)
        if abs(dm - res.dm) > 1e-9 * max(1.0, abs(dm)):
            errors.append(f"harness dm {res.dm!r} != recomputed {dm!r}")
        return errors

    def digest_item(self, op, res: OpResult):
        algo, q = op
        return [algo, q, sorted(res.answer) if res.answer else None]


# ----------------------------------------------------------- Spark workload
class IndexContext(NamedTuple):
    g: LocalGraph
    expected: Dict[str, object]  # canonical local-mirror output per step
    mirror_s: Dict[str, float]


def local_mirrors(g: LocalGraph) -> Dict[str, Tuple[Callable[[], object], Callable]]:
    """Per Spark step: its local mirror, and the canonical form of the
    mirror's output. Nodes without edges are dropped: the Spark graph is
    an edge table."""
    has_edge = {v for v, nbrs in g.adj.items() if nbrs}
    edges = list(g.edges())

    def keep(d):
        return {v: x for v, x in d.items() if v in has_edge}

    def build():
        return LocalGraph.from_edges(edges)

    return {
        "from_local": (build, lambda h: h.m),
        "degrees": (g.degrees, keep),
        "connected_components": (g.connected_components,
                                 lambda comps: keep({v: min(c) for c in comps for v in c})),
        "core_numbers": (lambda: localops.core_numbers(g), keep),
        "edge_support": (lambda: localops.edge_support(g), dict),
        "to_local": (build, lambda h: sorted(h.edges())),
    }


def relabelled_lfr1k(seed: int) -> LocalGraph:
    """The default LFR-1000 with its node ids permuted by ``seed``.

    LFR-1000 instances of seeds 0-10 take 45 to 63 k-core peel rounds,
    and the Spark pass's time follows them (63 s to 83 s per run). A
    relabelling keeps that work fixed while the input still comes from
    the seed."""
    g, _ = datasets.lfr()
    perm = np.random.default_rng(seed).permutation(g.n)
    return LocalGraph.from_edges(((int(perm[u]), int(perm[v])) for u, v in g.edges()),
                                 nodes=(int(perm[v]) for v in g.adj))


def setup_spark_index_lfr1k(seed: int) -> IndexContext:
    g = relabelled_lfr1k(seed)
    expected, mirror_s = {}, {}
    for step, (mirror, canonical) in local_mirrors(g).items():
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            out = mirror()
            times.append(time.perf_counter() - t0)
        mirror_s[step] = statistics.median(times)
        expected[step] = canonical(out)
    return IndexContext(g, expected, mirror_s)


def start_spark(work_dir: Path):
    """A local[N] session whose scratch files stay under ``work_dir``."""
    from pyspark.sql import SparkSession

    (work_dir / "spark").mkdir(parents=True, exist_ok=True)
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (f"--master local[{SPARK_CORES}] "
                                         f"--driver-memory {SPARK_DRIVER_MEMORY} pyspark-shell")
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{SPARK_CORES}]")
        # one shuffle partition per core: at 1K nodes more partitions only
        # add task overhead to each of the pass's ~400 jobs
        .config("spark.sql.shuffle.partitions", str(SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(work_dir / "spark"))
        .config("spark.driver.extraJavaOptions",
                f"{SPARK_JAVA_OPTIONS} -Djava.io.tmpdir={work_dir / 'tmp'}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the driver JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def index_pass(spark, g: LocalGraph, tracer) -> Dict[str, object]:
    """Build the per-graph index on Spark; every step is materialised
    inside its span. Returns the raw step outputs."""
    sc = spark.sparkContext
    out: Dict[str, object] = {}
    state: Dict[str, Graph] = {}

    def from_local():
        state["G"] = Graph.from_local(spark, g)
        return state["G"].num_edges

    run = {
        "from_local": from_local,
        "degrees": lambda: state["G"].degrees().toPandas(),
        "connected_components": lambda: components.connected_components(state["G"]).toPandas(),
        "core_numbers": lambda: kcore.core_numbers(state["G"]).toPandas(),
        "edge_support": lambda: triangles.edge_support(state["G"]).toPandas(),
        "to_local": lambda: state["G"].to_local(),
    }
    for step in SPARK_STEPS:
        group = f"{tracer.op}:{step}"
        if tracer.traced:
            sc.setJobGroup(group, step)
        with tracer.span(f"graphs.spark.{step}"):
            out[step] = run[step]()
        if tracer.traced:
            tracer.add(f"graphs.spark.{step}.jobs",
                       len(sc.statusTracker().getJobIdsForGroup(group)))
    return out


def canonical_spark(out: Dict[str, object]) -> Dict[str, object]:
    def pairs(pdf, key, col):
        return {int(r[0]): int(r[1]) for r in pdf[[key, col]].itertuples(index=False)}

    sup = out["edge_support"]
    return {
        "from_local": int(out["from_local"]),
        "degrees": pairs(out["degrees"], "id", "degree"),
        "connected_components": pairs(out["connected_components"], "id", "component"),
        "core_numbers": pairs(out["core_numbers"], "id", "core"),
        "edge_support": {(int(a), int(b)): int(s) for a, b, s in
                         sup[["src", "dst", "support"]].itertuples(index=False)},
        "to_local": sorted(out["to_local"].edges()),
    }


class SparkIndexWorkload:
    min_ops = SPARK_MIN_PASSES

    def __init__(self) -> None:
        self.setup = setup_spark_index_lfr1k
        self.spark = None

    def signature(self, ctx: IndexContext):
        return sorted(ctx.g.edges())

    def ops(self, ctx):
        return ["index-pass"]

    def open(self, ctx: IndexContext, work_dir: Path, tracer) -> float:
        """Session start plus one warm-up pass; returns their seconds."""
        t0 = time.perf_counter()
        self.spark = start_spark(work_dir)
        tracer.op = "warmup"
        index_pass(self.spark, ctx.g, tracer)
        tracer.op = None
        return time.perf_counter() - t0

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None

    def run_op(self, ctx: IndexContext, op, tracer) -> OpResult:
        t0 = time.perf_counter()
        try:
            out = index_pass(self.spark, ctx.g, tracer)
        except Exception as exc:  # recorded as a failed op, like the harness does
            msg = (str(exc).splitlines() or [""])[0][:200]
            return OpResult(f"error:{type(exc).__name__}: {msg}", time.perf_counter() - t0, None)
        latency = time.perf_counter() - t0
        return OpResult("ok", latency, canonical_spark(out))

    def check(self, ctx: IndexContext, op, res: OpResult) -> List[str]:
        return [f"{step} differs from its local mirror"
                for step in SPARK_STEPS if res.answer[step] != ctx.expected[step]]

    def digest_item(self, op, res: OpResult):
        a = res.answer
        if a is None:
            return None
        return [a["from_local"], sorted(a["degrees"].items()),
                sorted(a["connected_components"].items()), sorted(a["core_numbers"].items()),
                sorted([list(e), s] for e, s in a["edge_support"].items()), a["to_local"]]


WORKLOADS = {
    "nca-lfr1k": lambda: QueryWorkload(setup_nca_lfr1k),
    "fpa-lfr20k": lambda: QueryWorkload(setup_fpa_lfr20k),
    "spark-index-lfr1k": SparkIndexWorkload,
}


# ------------------------------------------------------------------ driver
def drive(workload, seed: int, seconds: float, tracer, work_dir: Path) -> Run:
    """Set up ``SETUP_REPS`` times, run the closed loop, check outputs."""
    errors: List[str] = []
    setup_times: List[float] = []
    ctx = None
    for _ in range(SETUP_REPS):
        tracer.op = "setup"
        t0 = time.perf_counter()
        fresh = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        tracer.op = None
        if ctx is not None and workload.signature(fresh) != workload.signature(ctx):
            errors.append("setup: the same seed gave different inputs")
        ctx = fresh
    ops = workload.ops(ctx)
    min_ops = max(len(ops), workload.min_ops)
    results: List[OpResult] = []
    try:
        setup_s = statistics.median(setup_times) + workload.open(ctx, work_dir, tracer)
        t_start = time.perf_counter()
        while (len(results) < min_ops or len(results) % len(ops)
               or time.perf_counter() - t_start < seconds):
            tracer.op = len(results)
            results.append(workload.run_op(ctx, ops[len(results) % len(ops)], tracer))
            tracer.op = None
        wall = time.perf_counter() - t_start
    finally:
        workload.close()

    failed = 0
    for i, res in enumerate(results):
        op = ops[i % len(ops)]
        if res.status != "ok":
            failed += 1
            print(f"op {i} {op}: status {res.status}")
            continue
        errs = workload.check(ctx, op, res)
        first = results[i % len(ops)]
        if i >= len(ops) and first.status == "ok" and res.answer != first.answer:
            errs.append("answer differs from the same op's first-pass answer")
        for e in errs:
            errors.append(f"op {i} {op}: {e}")
        failed += bool(errs)
    mirror_s = getattr(ctx, "mirror_s", {})
    return Run(ops, results, wall, setup_s, errors, failed, mirror_s)


def first_pass_digest(workload, run: Run) -> str:
    return digest([workload.digest_item(op, res)
                   for op, res in zip(run.ops, run.results)])


def tail_latency(latencies: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, seconds)`` of the highest latency with at least ten
    samples above it; None below 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]

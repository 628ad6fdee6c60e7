"""Per-layer tracing for the benchmark's traced run.

The tracer patches the public functions of each layer of ``repro`` from
the outside (class attributes and every import site of a module-level
function), so the program itself carries no tracing code. A *timed*
layer records one span per call: ``(name, start, end, parent, op)``,
kept in memory and written out when the run ends. A *counted* layer
(hot per-node functions such as ``dm_gain`` or ``PeelState.remove``)
only bumps a per-op call counter, because timing each call would cost
more than the call itself.

A span's self time is its duration minus the part of it that its child
spans cover. The untraced run uses :class:`NullTracer`, which has the
same interface and records nothing.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

# (module, class or None, attribute, layer name, timed)
LAYERS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.gendata.lfr", None, "lfr_graph", "gendata", True),
    ("repro.gendata.classic", None, "overlapping_communities", "gendata", True),
    ("repro.graphs.local", "LocalGraph", "articulation_points", "graphs.local.articulation_points", True),
    ("repro.graphs.local", "LocalGraph", "bfs_dist", "graphs.local.bfs_dist", True),
    ("repro.graphs.local", "LocalGraph", "connected_component", "graphs.local.connected_component", True),
    ("repro.graphs.local", "LocalGraph", "subgraph", "graphs.local.subgraph", True),
    ("repro.graphs.local", "LocalGraph", "degrees", "graphs.local.degrees", True),
    ("repro.graphs.local", "LocalGraph", "remove_node", "graphs.local.remove_node", False),
    ("repro.graphs.localops", None, "core_numbers", "graphs.localops.core_numbers", True),
    ("repro.graphs.localops", None, "truss_numbers", "graphs.localops.truss_numbers", True),
    ("repro.graphs.localops", None, "node_truss_numbers", "graphs.localops.node_truss_numbers", True),
    ("repro.core.steiner", None, "steiner_connector", "core.steiner.steiner_connector", True),
    ("repro.core.peel", "PeelState", "__init__", "core.peel.init", True),
    ("repro.core.peel", "PeelState", "remove", "core.peel.remove", False),
    ("repro.core.peel", "PeelState", "score", "core.peel.score", False),
    ("repro.core.modularity", None, "dm_gain", "core.modularity.dm_gain", False),
    ("repro.core.modularity", None, "density_ratio", "core.modularity.density_ratio", False),
    ("repro.core.modularity", None, "dm_of", "core.modularity.dm_of", True),
    ("repro.core.fpa", None, "fpa", "core.fpa", True),
    ("repro.core.nca", None, "nca", "core.nca", True),
    ("repro.baselines.wu2015", None, "wu2015", "baselines.wu2015", True),
    ("repro.evaluation.queries", None, "query_sets", "evaluation.queries.query_sets", True),
    ("repro.evaluation.harness", None, "run_algorithms", "evaluation.harness.run_algorithms", True),
    ("repro.evaluation.metrics", None, "score_against_best_truth",
     "evaluation.metrics.score_against_best_truth", True),
)

# The per-graph index pass on Spark, in order; the benchmark wraps each
# step (call plus materialisation) in a span of its own.
SPARK_STEPS = ("from_local", "degrees", "connected_components", "core_numbers",
               "edge_support", "to_local")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    op: object  # op id, "setup", "warmup" or None outside any op


class LayerTotal(NamedTuple):
    s: float  # inclusive seconds
    self_s: float  # seconds not covered by child spans
    calls: int


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - covered(children.get(i, ()), sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


class NullTracer:
    """The untraced run's tracer: same interface, records nothing."""

    op: object = None
    traced = False

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, n: int) -> None:
        pass


class Tracer(NullTracer):
    traced = True

    def __init__(self) -> None:
        self.op: object = None
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[Tuple[object, str], int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _open(self) -> Tuple[int, Optional[int]]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, name: str, idx: int, parent: Optional[int], t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = Span(name, t0, t1, parent, self.op)
        self.counts[(self.op, name)] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, t0)

    def add(self, name: str, n: int) -> None:
        self.counts[(self.op, name)] += n

    def _wrapper(self, fn, name: str, timed: bool):
        counts = self.counts
        if not timed:
            def counted(*args, **kwargs):
                counts[(self.op, name)] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_call(*args, **kwargs):
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, t0)

        return timed_call

    # ------------------------------------------------------------- patching
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`.

        A method is replaced on its class. A module-level function is
        replaced in every loaded ``repro`` module that holds it, so
        callers that imported it by name see the wrapper too.
        """
        for module, cls, attr, name, timed in LAYERS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
                self._set(owner, attr, self._wrapper(vars(owner)[attr], name, timed))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, name, timed)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "repro" or mod_name.startswith("repro."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reduction
    def totals(self, ops: Iterable[object]) -> Dict[str, LayerTotal]:
        """Inclusive seconds, self seconds and calls per layer name over
        the spans and counts recorded while ``self.op`` was in ``ops``."""
        keep = set(ops)
        spans = [sp for sp in self.spans if sp is not None]
        s: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for sp, st in zip(spans, self_times(spans)):
            if sp.op in keep:
                s[sp.name] += sp.end - sp.start
                own[sp.name] += st
        calls: Dict[str, int] = defaultdict(int)
        for (op, name), n in self.counts.items():
            if op in keep:
                calls[name] += n
        return {
            name: LayerTotal(s.get(name, 0.0), own.get(name, 0.0), calls.get(name, 0))
            for name in set(s) | set(calls)
        }

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sp in self.spans:
                if sp is not None:
                    fh.write(json.dumps(sp._asdict()) + "\n")

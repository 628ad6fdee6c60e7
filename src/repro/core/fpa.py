"""Fast Peeling Algorithm (paper §5.5-§5.7, Algorithm 2).

FPA is a caller of the Algorithm 1 driver :func:`repro.core.peel.peel`
with a layer policy. Removable nodes = what is left of the farthest BFS
layer from the query seed (safe: every surviving node keeps a shortest
path through strictly lower layers, so removing any subset of the
farthest layer cannot disconnect the rest). Best node = max density
ratio Θ (stable: only neighbours of a removed node need updates —
maintained with a lazy-deletion heap).

Variants:
* ``scorer="dmg"``  → FPA-DMG (Figure 14): density-modularity gain Λ,
  unstable, recomputed over the whole candidate layer each removal.
* ``measure``       → which goodness function picks the incumbent
  ("dm" | "cm" | "gmd", Figure 12).
* ``prune=True``    → §5.7 layer-based pruning: score the distance-prefix
  subgraphs coarsely, jump to the best prefix, then peel inward from its
  outermost layer. Off by default: the paper's own §6.2.4 reports pruned
  FPA as less effective, and its headline Figure 8 accuracy is only
  consistent with the un-pruned variant; Figure 13 is reproduced by
  jobs/e13_pruning.py with both settings.
"""
from __future__ import annotations

import heapq
from functools import partial
from typing import Iterable, List, Optional, Set

from ..graphs.local import LocalGraph
from .modularity import density_ratio, dm_gain
from .peel import PeelState, peel
from .steiner import steiner_connector


class _Layers:
    """Removable set = the rest of the farthest layer not yet drained.

    ``layers`` are the BFS layers outside the seed, innermost first; they
    are drained outermost first, each by the subclass's ``best`` order.
    """

    def __init__(self, state: PeelState, layers: List[List[int]]) -> None:
        self.state = state
        self.layers = layers
        self.cand: Set[int] = set()

    def pick(self) -> Optional[int]:
        while not self.cand:
            if not self.layers:
                return None
            self.open(self.layers.pop())
        return self.best()

    def open(self, layer: List[int]) -> None:
        self.cand = set(layer)

    def remove(self, v: int) -> None:
        self.state.remove(v)


class _ThetaLayers(_Layers):
    """Max-Θ order with a lazy-deletion heap; an entry is stale once its
    node is gone or its ``k`` has changed."""

    def open(self, layer: List[int]) -> None:
        super().open(layer)
        st = self.state
        self.heap = [(-density_ratio(st.deg[v], st.k[v]), st.k[v], v) for v in layer]
        heapq.heapify(self.heap)

    def best(self) -> int:
        k, cand = self.state.k, self.cand
        while True:
            _, kv, u = heapq.heappop(self.heap)
            if u in cand and k[u] == kv:
                cand.discard(u)
                return u

    def remove(self, v: int) -> None:
        st = self.state
        for w in st.remove(v):
            if w in self.cand:
                heapq.heappush(self.heap, (-density_ratio(st.deg[w], st.k[w]), st.k[w], w))


class _GainLayers(_Layers):
    """Max-Λ order; Λ is unstable (Lemma 4) so it is recomputed over all
    remaining candidates each removal."""

    def best(self) -> int:
        st = self.state
        u = max(self.cand, key=lambda v: (dm_gain(st.k[v], st.d, st.deg[v], st.m), v))
        self.cand.discard(u)
        return u


def fpa(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    prune: bool = False,
    scorer: str = "ratio",
    measure: str = "dm",
) -> Optional[Set[int]]:
    """Run FPA; returns the community node set, or None when a query node
    is missing or the query nodes are not in one connected component.

    A component that is one BFS layer (the seed alone, e.g. an isolated
    query node in an edgeless graph) is returned without scoring.
    """
    qs = sorted(set(int(q) for q in queries))
    if not qs or any(q not in g for q in qs):
        return None
    try:
        seed = steiner_connector(g, qs)  # connected ⊇ Q (singleton {q} if |Q|=1)
    except ValueError:  # Q spans more than one component
        return None
    # the seed is connected, so its BFS reaches exactly Q's component
    layers = g.bfs_layers(seed)
    comp = set().union(*layers)
    if len(layers) == 1:
        return comp

    if prune:
        # §5.7 — score each distance-prefix S_i = {v : dist(v) <= i} by
        # bulk-removing whole layers (cheap, O(|V|) total), jump to the
        # best prefix, then run the fine-grained peel inward from that
        # prefix's outermost layer. The speedup comes from never peeling
        # the distant layers node-by-node; the search space shrinks to
        # the chosen prefix, which is why the paper reports slightly
        # lower effectiveness than un-pruned FPA (Figure 13).
        coarse = PeelState(g, comp)
        outer = list(range(1, len(layers)))

        def drop_layer(i: int) -> None:
            for v in layers[i]:
                coarse.remove(v)

        _, dropped = peel(lambda: outer.pop() if outer else None, drop_layer,
                          partial(coarse.score, measure))
        layers = layers[: len(layers) - dropped]
        comp = set().union(*layers)

    state = PeelState(g, comp)
    walk = (_ThetaLayers if scorer == "ratio" else _GainLayers)(state, layers[1:])
    order, best_i = peel(walk.pick, walk.remove, partial(state.score, measure))
    return comp.difference(order[:best_i])

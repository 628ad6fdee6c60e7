"""Non-articulation Cancellation Algorithm (paper §5.4).

NCA is a caller of the Algorithm 1 driver :func:`repro.core.peel.peel`.
Removable nodes = non-articulation, non-query nodes of the current
subgraph (recomputed each pick via Tarjan DFS-tree on a working copy —
the paper's stated bottleneck, O(|V|+|E|) per removal). Best node = max
density modularity gain Λ; ties removed farthest-first ("keep the node
that is closely located to the query nodes").

``scorer="ratio"`` gives the NCA-DR variant ((a)+(d), Figure 14).
``time_budget`` (seconds) is the driver's budget: on expiry the best
incumbent found so far is returned, and nothing in the result marks
that the peel was cut short.
"""
from __future__ import annotations

from functools import partial
from typing import Iterable, Optional, Set

from ..graphs.local import LocalGraph
from .modularity import density_ratio, dm_gain
from .peel import PeelState, peel


def nca(
    g: LocalGraph,
    queries: Iterable[int],
    *,
    scorer: str = "dmg",
    measure: str = "dm",
    time_budget: float | None = None,
) -> Optional[Set[int]]:
    """Run NCA; returns the community node set, or None when a query node
    is missing or the query nodes are not in one connected component.

    A one-node component (an isolated query node, e.g. in an edgeless
    graph) is returned without scoring.
    """
    qs = sorted(set(int(q) for q in queries))
    if not qs or any(q not in g for q in qs):
        return None
    comp = g.connected_component(qs[0])
    if any(q not in comp for q in qs):
        return None
    if len(comp) == 1:
        return comp
    dist = g.bfs_dist(qs)
    work = g.subgraph(comp)  # mutable working copy of the candidate subgraph
    state = PeelState(g, comp)
    qset = set(qs)

    if scorer == "dmg":
        def key(v: int):
            return (dm_gain(state.k[v], state.d, state.deg[v], state.m), dist.get(v, 0), v)
    else:  # NCA-DR
        def key(v: int):
            return (density_ratio(state.deg[v], state.k[v]), dist.get(v, 0), v)

    def pick() -> Optional[int]:
        arts = work.articulation_points()
        cand = [v for v in state.S if v not in arts and v not in qset]
        return max(cand, key=key) if cand else None

    def remove(v: int) -> None:
        state.remove(v)
        work.remove_node(v)

    order, best_i = peel(pick, remove, partial(state.score, measure), time_budget=time_budget)
    return comp.difference(order[:best_i])


def nca_dr(g: LocalGraph, queries: Iterable[int], **kw) -> Optional[Set[int]]:
    """NCA with the density-ratio scorer ((a)+(d) in Figure 3/14)."""
    return nca(g, queries, scorer="ratio", **kw)

"""Wu et al. [58] query-biased density community search (wu2015).

Greedy node deletion maximizing query-biased density
``rho(S) = l_S / sum_{v in S} pi_v`` with node weights growing with
query distance, ``pi_v = eta^{-dist(v,Q)}`` (eta = 0.5, the paper's
setting) — a distance-decayed stand-in for [58]'s random-walk proximity
(DESIGN.md §6). Each step deletes the non-query, non-articulation node
with the worst local contribution ``k_{v,S} / pi_v``; the incumbent is
the intermediate subgraph with the best rho, kept by the Algorithm 1
driver :func:`repro.core.peel.peel`. Reproduces the behaviour
the DMCS paper leans on: results hug the query node and degrade when q
is off-centre.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..core.peel import peel
from ..graphs.local import LocalGraph


def wu2015(
    g: LocalGraph,
    queries: Iterable[int],
    eta: float = 0.5,
    max_nodes: int = 50_000,
) -> Optional[Set[int]]:
    qs = sorted(set(int(q) for q in queries))
    if not qs or any(q not in g for q in qs):
        return None
    comp = g.connected_component(qs[0])
    if any(q not in comp for q in qs):
        return None
    if len(comp) > max_nodes:
        return None
    dist = g.bfs_dist(qs)
    pi: Dict[int, float] = {v: eta ** (-dist[v]) for v in comp}

    sub = g.subgraph(comp)  # working copy; its Tarjan pass gives the removable set
    qset = set(qs)
    k: Dict[int, int] = {v: len(sub.adj[v]) for v in sub.adj}
    l_s = sub.m
    w_s = sum(pi[v] for v in sub.adj)

    def pick() -> Optional[int]:
        if sub.n <= len(qset):
            return None
        arts = sub.articulation_points()
        cand = [v for v in sub.adj if v not in arts and v not in qset]
        # worst contribution: few internal edges per unit of weight,
        # where far nodes (large pi) are cheap to drop
        return min(cand, key=lambda v: (k[v] / pi[v], -pi[v], v)) if cand else None

    def remove(u: int) -> None:
        nonlocal l_s, w_s
        l_s -= k[u]
        w_s -= pi[u]
        for x in sub.adj[u]:
            k[x] -= 1
        k.pop(u)
        sub.remove_node(u)

    def rho() -> float:
        return l_s / w_s if w_s > 0 else float("-inf")

    order, best_i = peel(pick, remove, rho)
    return comp.difference(order[:best_i])

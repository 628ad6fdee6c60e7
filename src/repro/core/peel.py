"""Algorithm 1's greedy peel: one driver plus the incremental state it peels.

:func:`peel` is the framework loop shared by FPA, FPA-DMG, pruned FPA,
NCA, NCA-DR and wu2015. Each caller supplies the removable-set policy
(``pick`` the next node), the removal (``remove``) and the goodness
function (``score``); the driver owns the loop, the removal order, the
incumbent rule and NCA's time budget. The incumbent is kept as an index
into the removal order rather than as a copy of the set, so a peel of
``n`` nodes costs no O(n) snapshot per improvement; the caller rebuilds
``start - order[:best_i]`` once, at the end.

:class:`PeelState` tracks the current community ``S`` and the scalar
statistics needed by every measure — internal edge count ``l_S``,
original-degree sum ``d_S``, and per-node internal-edge counts
``k_{v,S}`` — updated in O(deg(v)) per removal. The full graph is never
mutated; degrees ``d_v`` are original-graph degrees throughout, matching
the null model in Definitions 1/2/5/6.
"""
from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.local import LocalGraph
from .modularity import (
    classic_modularity,
    density_modularity,
    generalized_modularity_density,
)

MEASURES = ("dm", "cm", "gmd")


def peel(
    pick: Callable[[], Optional[int]],
    remove: Callable[[int], object],
    score: Callable[[], float],
    *,
    time_budget: float | None = None,
) -> Tuple[List[int], int]:
    """Remove ``pick()`` until it returns None; return ``(order, best_i)``.

    ``score()`` is taken on the start set and after every removal. The
    incumbent is the prefix ``order[:best_i]`` whose removal scored
    highest; on ties (``>=``) the latest prefix wins, and ``best_i = 0``
    (nothing removed) is the first incumbent. When ``time_budget``
    seconds have passed, the peel stops before its next pick and the
    incumbent so far is returned.
    """
    order: List[int] = []
    best_i, best = 0, score()
    t0 = time.monotonic()
    while time_budget is None or time.monotonic() - t0 <= time_budget:
        v = pick()
        if v is None:
            break
        remove(v)
        order.append(v)
        s = score()
        if s >= best:
            best_i, best = len(order), s
    return order, best_i


class PeelState:
    __slots__ = ("g", "m", "deg", "S", "k", "l", "d")

    def __init__(
        self,
        g_full: LocalGraph,
        nodes: Iterable[int],
        degrees: Dict[int, int] | None = None,
    ) -> None:
        self.g = g_full
        self.m = g_full.m
        self.deg = degrees if degrees is not None else g_full.degrees()
        self.S: Set[int] = set(nodes)
        self.k: Dict[int, int] = {
            v: sum(1 for u in g_full.adj[v] if u in self.S) for v in self.S
        }
        self.l: int = sum(self.k.values()) // 2
        self.d: int = sum(self.deg[v] for v in self.S)

    def remove(self, v: int) -> List[int]:
        """Remove ``v`` from S; returns the members whose k changed."""
        self.S.remove(v)
        self.l -= self.k.pop(v)
        self.d -= self.deg[v]
        changed: List[int] = []
        for u in self.g.adj[v]:
            if u in self.S:
                self.k[u] -= 1
                changed.append(u)
        return changed

    # ------------------------------------------------------------- scoring
    def dm(self) -> float:
        return density_modularity(self.l, self.d, len(self.S), self.m)

    def cm(self) -> float:
        return classic_modularity(self.l, self.d, self.m)

    def gmd(self) -> float:
        return generalized_modularity_density(self.l, self.d, len(self.S), self.m)

    def score(self, measure: str = "dm") -> float:
        if measure == "dm":
            return self.dm()
        if measure == "cm":
            return self.cm()
        if measure == "gmd":
            return self.gmd()
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")

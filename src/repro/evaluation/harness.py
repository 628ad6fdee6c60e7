"""Experiment harness: run {algorithm × query set} and tabulate.

Produces one row per (algorithm, query set) with status, wall time,
community size, NMI/ARI/F1 against the best-matching ground-truth
community, and the density modularity of the result — the raw material
behind every results figure/table in §6. ``summarize`` reduces to the
per-algorithm medians the paper reports.
"""
from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set

import pandas as pd

from ..baselines import (
    clique_cs,
    cnm,
    gn,
    highcore,
    hightruss,
    huang2015,
    icwi2008,
    kc,
    kecc_cs,
    kt,
    wu2015,
)
from ..core import dm_of, fpa, nca, nca_dr
from ..graphs.local import LocalGraph
from ..graphs.localops import core_numbers, truss_numbers
from .metrics import score_against_best_truth

AlgoFn = Callable[[LocalGraph, List[int]], Optional[Set[int]]]


def standard_algorithms(
    g: LocalGraph,
    include: Sequence[str] | None = None,
    *,
    k_core_k: int = 3,
    k_truss_k: int = 4,
    kecc_k: int = 3,
    nca_budget: float | None = 120.0,
    gn_max_nodes: int = 400,
    clique_max_nodes: int = 3000,
    cnm_max_nodes: int = 50_000,
    wu_max_nodes: int = 50_000,
) -> Dict[str, AlgoFn]:
    """The paper's §6.1 algorithm roster as name → fn(graph, Q) closures.

    Core/truss indices are computed once here and shared across queries
    (the per-dataset index of DESIGN.md §2). ``kt`` and ``hightruss``
    accept only single-query sets, as in the paper (Figure 10 note).
    """
    cores = core_numbers(g)
    truss = truss_numbers(g)

    def _single(fn):
        def wrapped(gg, q):
            return None if len(q) != 1 else fn(gg, q)

        return wrapped

    algos: Dict[str, AlgoFn] = {
        "clique": lambda gg, q: clique_cs(gg, q, max_nodes=clique_max_nodes),
        "kc": lambda gg, q: kc(gg, q, k=k_core_k, cores=cores),
        "kt": _single(lambda gg, q: kt(gg, q, k=k_truss_k, truss=truss)),
        "kecc": lambda gg, q: kecc_cs(gg, q, k=kecc_k),
        "CNM": lambda gg, q: cnm(gg, q, max_nodes=cnm_max_nodes),
        "GN": lambda gg, q: gn(gg, q, max_nodes=gn_max_nodes),
        "icwi2008": lambda gg, q: icwi2008(gg, q),
        "huang2015": lambda gg, q: huang2015(gg, q, truss=truss),
        "wu2015": lambda gg, q: wu2015(gg, q, max_nodes=wu_max_nodes),
        "highcore": lambda gg, q: highcore(gg, q, cores=cores),
        "hightruss": _single(lambda gg, q: hightruss(gg, q, truss=truss)),
        "NCA": lambda gg, q: nca(gg, q, time_budget=nca_budget),
        "FPA": lambda gg, q: fpa(gg, q),
    }
    if include is not None:
        algos = {k2: v for k2, v in algos.items() if k2 in include}
    return algos


def variant_algorithms(g: LocalGraph, nca_budget: float | None = 120.0) -> Dict[str, AlgoFn]:
    """Figure 14's four (removable, scorer) combinations."""
    return {
        "NCA": lambda gg, q: nca(gg, q, time_budget=nca_budget),
        "NCA-DR": lambda gg, q: nca_dr(gg, q, time_budget=nca_budget),
        "FPA-DMG": lambda gg, q: fpa(gg, q, scorer="dmg"),
        "FPA": lambda gg, q: fpa(gg, q),
    }


def run_algorithms(
    g: LocalGraph,
    communities: Sequence[Set[int]],
    algos: Dict[str, AlgoFn],
    queries: Sequence[List[int]],
    dataset: str = "",
) -> pd.DataFrame:
    rows = []
    n = g.n
    for qid, q in enumerate(queries):
        for name, fn in algos.items():
            t0 = time.monotonic()
            try:
                found = fn(g, list(q))
                status = "ok" if found else "none"
            except Exception as exc:  # record, don't abort the sweep
                found, status = None, f"error:{type(exc).__name__}"
            dt = time.monotonic() - t0
            if found:
                nmi, ari, f1 = score_against_best_truth(n, found, communities, q)
                size = len(found)
                dm = dm_of(g, found)
            else:
                nmi = ari = f1 = 0.0
                size = 0
                dm = float("nan")
            rows.append(
                dict(
                    dataset=dataset,
                    algo=name,
                    qid=qid,
                    q=",".join(map(str, q)),
                    status=status,
                    seconds=dt,
                    size=size,
                    nmi=nmi,
                    ari=ari,
                    f1=f1,
                    dm=dm,
                )
            )
    return pd.DataFrame(rows)


def summarize(df: pd.DataFrame, by: Sequence[str] = ("dataset", "algo")) -> pd.DataFrame:
    """Per-algorithm medians (the paper reports medians for NMI/ARI)."""
    out = (
        df.groupby(list(by))
        .agg(
            nmi=("nmi", "median"),
            ari=("ari", "median"),
            f1=("f1", "median"),
            size=("size", "median"),
            seconds=("seconds", "median"),
            ok=("status", lambda s: (s == "ok").mean()),
        )
        .reset_index()
    )
    return out.round({"nmi": 4, "ari": 4, "f1": 4, "seconds": 4, "ok": 2})

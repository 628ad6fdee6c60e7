"""Write ``golden.json``: the exact communities that the DMCS peels return.

Run on commit 61f9f6228724becd3c4f2f03185cbd45f8eeedc3, before the peel
loops of Algorithm 1 were merged into one driver, so that
``tests/test_golden.py`` can prove that later refactors return the same
communities. The test only reads the fixture; re-run this script only
when an algorithm's output is meant to change:

    PYTHONPATH=src python tests/data/make_golden.py
"""
from __future__ import annotations

import json
from pathlib import Path

from repro.baselines import wu2015
from repro.core import fpa, nca, nca_dr
from repro.evaluation import datasets
from repro.evaluation.queries import query_sets
from repro.gendata.classic import karate

OUT = Path(__file__).with_name("golden.json")

# name -> fn(graph, Q); each one is a caller of the Algorithm 1 peel
ALGORITHMS = {
    "FPA": lambda g, q: fpa(g, q),
    "FPA-DMG": lambda g, q: fpa(g, q, scorer="dmg"),
    "FPA-pruned": lambda g, q: fpa(g, q, prune=True),
    "NCA": lambda g, q: nca(g, q),
    "NCA-DR": lambda g, q: nca_dr(g, q),
    "wu2015": lambda g, q: wu2015(g, q),
}
Q_SIZES = (1, 3)
N_SETS = 1  # query sets per (graph, |Q|)
QUERY_SEED = 7


def graphs():
    yield "Karate", karate()
    yield "LFR-1000", datasets.lfr()
    yield "DBLP-lite", datasets.overlapping()["DBLP-lite"]


def golden_cases():
    """Yield ``(graph name, graph, Q)`` for every pinned query set."""
    for name, (g, comms) in graphs():
        for q_size in Q_SIZES:
            for q in query_sets(g, comms, n_sets=N_SETS, q_size=q_size, seed=QUERY_SEED):
                yield name, g, q


def main() -> None:
    rows = []
    for name, g, q in golden_cases():
        for algo, fn in ALGORITHMS.items():
            found = fn(g, q)
            rows.append(dict(graph=name, algo=algo, q=q,
                             community=None if found is None else sorted(found)))
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()

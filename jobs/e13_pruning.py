"""Figure 13 (as table) — FPA with vs without the §5.7 layer-based
pruning strategy: accuracy and running time on default LFR.
"""
import pandas as pd

from repro.core import fpa
from repro.evaluation.datasets import lfr
from repro.evaluation.harness import run_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit, get_spark


def run(spark=None, n_queries: int = 10) -> pd.DataFrame:
    g, comms = lfr(seed=13)
    queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=4)
    algos = {
        "FPA (pruned)": lambda gg, q: fpa(gg, q, prune=True),
        "FPA w/o pruning": lambda gg, q: fpa(gg, q, prune=False),
    }
    df = run_algorithms(g, comms, algos, queries, dataset="lfr-default")
    return emit("e13_pruning", summarize(df))


if __name__ == "__main__":
    run()

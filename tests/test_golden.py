"""Golden outputs: every Algorithm 1 peel returns exactly the pinned
community (``tests/data/golden.json``, written by
``tests/data/make_golden.py``; this test never rewrites it)."""
import json
from pathlib import Path

import pytest

from .data.make_golden import ALGORITHMS, graphs

ROWS = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.fixture(scope="module")
def graph_by_name():
    return {name: g for name, (g, _) in graphs()}


def test_fixture_covers_every_algorithm():
    assert {r["algo"] for r in ROWS} == set(ALGORITHMS)
    assert {len(r["q"]) for r in ROWS} == {1, 3}


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{r['graph']}-{r['algo']}-{'_'.join(map(str, r['q']))}" for r in ROWS]
)
def test_same_community(row, graph_by_name):
    found = ALGORITHMS[row["algo"]](graph_by_name[row["graph"]], row["q"])
    assert (None if found is None else sorted(found)) == row["community"]

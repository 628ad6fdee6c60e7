"""Degenerate query inputs have defined results for every Algorithm 1 peel:
duplicate and numpy-typed query ids, missing ids, and edgeless graphs."""
import numpy as np
import pytest

from repro.graphs.local import LocalGraph

from .data.make_golden import ALGORITHMS

TRIANGLE_TAIL = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
ONE_NODE = LocalGraph.from_edges([], nodes=[0])
THREE_ISOLATED = LocalGraph.from_edges([], nodes=[0, 1, 2])

# graph, Q, expected from FPA/NCA and their variants, expected from wu2015
CASES = [
    pytest.param(TRIANGLE_TAIL, [0, 0], {0, 1}, {0, 1, 2}, id="duplicate-ids"),
    pytest.param(TRIANGLE_TAIL, [np.int64(0)], {0, 1}, {0, 1, 2}, id="numpy-id"),
    pytest.param(TRIANGLE_TAIL, [99], None, None, id="missing-id"),
    pytest.param(ONE_NODE, [0], {0}, {0}, id="edgeless-one-node"),
    pytest.param(THREE_ISOLATED, [1], {1}, {1}, id="edgeless-isolated"),
    pytest.param(THREE_ISOLATED, [0, 2], None, None, id="edgeless-disconnected-Q"),
]


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("g,q,expected,expected_wu", CASES)
def test_defined_result(algo, g, q, expected, expected_wu):
    want = expected_wu if algo == "wu2015" else expected
    assert ALGORITHMS[algo](g, q) == want

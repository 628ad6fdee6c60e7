"""The Algorithm 1 peel driver, PeelState incremental bookkeeping and
the §5.6 Steiner connector."""
import pytest

from repro.core.modularity import density_modularity, dm_of
from repro.core.peel import PeelState, peel
from repro.core.steiner import steiner_connector
from repro.graphs.local import LocalGraph

from .util import GNP_CASES, random_local_graph


def scripted_peel(scores, **kw):
    """Peel nodes 1, 2, ... where ``scores[i]`` is the score after i removals."""
    todo = list(range(len(scores) - 1, 0, -1))
    removed = []
    return peel(lambda: todo.pop() if todo else None, removed.append,
                lambda: scores[len(removed)], **kw)


class TestPeelDriver:
    @pytest.mark.parametrize("scores,best_i", [
        ([5.0], 0),  # nothing removable: the start set
        ([5.0, 1.0, 2.0], 0),  # never improved: the start set
        ([1.0, 3.0, 3.0, 2.0], 2),  # ties go to the latest prefix
        ([1.0, 1.0], 1),  # the start set loses a tie too
    ])
    def test_incumbent_rule(self, scores, best_i):
        order, got = scripted_peel(scores)
        assert order == list(range(1, len(scores)))
        assert got == best_i

    def test_expired_budget_stops_before_first_pick(self):
        order, best_i = scripted_peel([1.0, 2.0, 3.0], time_budget=-1.0)
        assert (order, best_i) == ([], 0)


class TestPeelState:
    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:5])
    def test_incremental_matches_recompute(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        st = PeelState(g, comp)
        order = sorted(comp)
        for v in order[: len(order) // 2]:
            st.remove(v)
            l = g.internal_edges(st.S)
            d = sum(g.degree(u) for u in st.S)
            assert st.l == l and st.d == d
            assert st.k == {
                u: sum(1 for w in g.adj[u] if w in st.S) for u in st.S
            }
            assert st.dm() == pytest.approx(
                density_modularity(l, d, len(st.S), g.m)
            )

    def test_remove_returns_changed(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        st = PeelState(g, {0, 1, 2, 3})
        changed = st.remove(0)
        assert sorted(changed) == [1, 2]

    def test_degrees_are_original(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        st = PeelState(g, {0, 1, 2, 3})
        st.remove(3)
        # d uses original degrees even though 2 lost a neighbour
        assert st.d == g.degree(0) + g.degree(1) + g.degree(2)

    def test_score_dispatch(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        st = PeelState(g, {0, 1, 2})
        assert st.score("dm") == st.dm()
        assert st.score("cm") == st.cm()
        assert st.score("gmd") == st.gmd()
        with pytest.raises(ValueError):
            st.score("nope")

    def test_subset_initialization(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        st = PeelState(g, {0, 1})
        assert st.l == 1 and st.d == 4 and st.k == {0: 1, 1: 1}


class TestSteiner:
    def test_single_query(self):
        g = LocalGraph.from_edges([(0, 1)])
        assert steiner_connector(g, [0]) == {0}

    def test_two_queries_path(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        t = steiner_connector(g, [0, 3])
        assert t == {0, 1, 2, 3}

    def test_contains_queries_and_connected(self):
        for n, p, seed in GNP_CASES[:5]:
            g = random_local_graph(n, p, seed)
            comp = sorted(max(g.connected_components(), key=len))
            qs = [comp[0], comp[len(comp) // 2], comp[-1]]
            t = steiner_connector(g, qs)
            assert set(qs) <= t
            assert g.subgraph(t).is_connected()

    def test_disconnected_queries_raise(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            steiner_connector(g, [0, 3])

    def test_missing_query_raises(self):
        g = LocalGraph.from_edges([(0, 1)])
        with pytest.raises(KeyError):
            steiner_connector(g, [42])

    def test_empty_raises(self):
        g = LocalGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            steiner_connector(g, [])

    def test_duplicate_queries(self):
        g = LocalGraph.from_edges([(0, 1), (1, 2)])
        assert steiner_connector(g, [2, 2, 0]) == {0, 1, 2}

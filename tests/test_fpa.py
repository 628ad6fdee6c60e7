"""FPA invariants and behaviours (Algorithm 2, §5.5-§5.7)."""
import pytest

from repro.core import dm_of, fpa
from repro.gendata.classic import karate, ring_of_cliques
from repro.gendata.lfr import lfr_graph

from .util import GNP_CASES, random_local_graph


@pytest.fixture(scope="module")
def lfr_small():
    return lfr_graph(n=300, d_avg=12, d_max=30, mu=0.3, min_c=10, max_c=60, seed=5)


class TestInvariants:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("q", [0, 16, 33])
    def test_karate_contains_query_connected(self, q, prune):
        g, _ = karate()
        r = fpa(g, [q], prune=prune)
        assert q in r
        assert g.subgraph(r).is_connected()

    @pytest.mark.parametrize("n,p,seed", GNP_CASES)
    def test_random_graphs(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        q = min(comp)
        r = fpa(g, [q], prune=False)
        assert q in r and g.subgraph(r).is_connected()
        # incumbent never worse than the starting component
        assert dm_of(g, r) >= dm_of(g, comp) - 1e-12

    def test_missing_query_none(self):
        g, _ = karate()
        assert fpa(g, [999]) is None

    def test_disconnected_queries_none(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges([(0, 1), (2, 3)])
        assert fpa(g, [0, 3]) is None

    def test_empty_queries_none(self):
        g, _ = karate()
        assert fpa(g, []) is None

    def test_whole_component_when_no_layers(self):
        from repro.graphs.local import LocalGraph

        g = LocalGraph.from_edges([(0, 1), (0, 2)])
        # all nodes at distance <= 1; query 0: layers exist, peels fine
        r = fpa(g, [0], prune=False)
        assert 0 in r


class TestResolutionLimit:
    """The headline claim: FPA + DM recovers a single clique on the ring
    (classic modularity would merge two — Example 3)."""

    @pytest.mark.parametrize("q", [0, 17, 60])
    def test_ring_returns_single_clique(self, q):
        g, comms = ring_of_cliques(30, 6)
        r = fpa(g, [q], prune=False)
        truth = next(c for c in comms if q in c)
        assert r == truth

    def test_ring_with_cm_merges(self):
        """With classic modularity as the selection measure the result is
        strictly larger (resolution limit in action)."""
        g, comms = ring_of_cliques(30, 6)
        r_cm = fpa(g, [0], prune=False, measure="cm")
        r_dm = fpa(g, [0], prune=False, measure="dm")
        assert len(r_cm) > len(r_dm)


class TestVariants:
    def test_dmg_scorer_valid(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r = fpa(g, [q], prune=False, scorer="dmg")
        assert q in r and g.subgraph(r).is_connected()

    def test_prune_vs_noprune_both_valid(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[0]))
        r1 = fpa(g, [q], prune=True)
        r2 = fpa(g, [q], prune=False)
        assert q in r1 and q in r2
        # pruning restricts the search space: never a better incumbent
        assert dm_of(g, r2) >= dm_of(g, r1) - 1e-9

    @pytest.mark.parametrize("measure", ["dm", "cm", "gmd"])
    def test_measures(self, measure, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[1]))
        r = fpa(g, [q], prune=False, measure=measure)
        assert r is not None and q in r


class TestMultiQuery:
    def test_karate_pair(self):
        g, _ = karate()
        r = fpa(g, [0, 33], prune=False)
        assert {0, 33} <= r and g.subgraph(r).is_connected()

    def test_lfr_same_community(self, lfr_small):
        g, comms = lfr_small
        c = sorted(max(comms, key=len))
        qs = [c[0], c[len(c) // 2], c[-1]]
        r = fpa(g, qs, prune=False)
        assert set(qs) <= r and g.subgraph(r).is_connected()

    def test_determinism(self, lfr_small):
        g, comms = lfr_small
        q = next(iter(comms[2]))
        assert fpa(g, [q]) == fpa(g, [q])


class TestLayerSafety:
    """Removing any subset of the farthest layer keeps the rest connected."""

    @pytest.mark.parametrize("n,p,seed", GNP_CASES[:4])
    def test_farthest_layer_removal_keeps_connectivity(self, n, p, seed):
        g = random_local_graph(n, p, seed)
        comp = max(g.connected_components(), key=len)
        sub = g.subgraph(comp)
        q = min(comp)
        layers = sub.bfs_layers([q])
        if len(layers) < 2:
            pytest.skip("single layer")
        rest = set(comp) - set(layers[-1])
        assert g.subgraph(rest).is_connected()

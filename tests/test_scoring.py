from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest

from cmhide import (
    ConfigError,
    EdgeDelta,
    Partition,
    apply_delta,
    pagerank,
    structural_scores,
)
from cmhide.graph import Graph
from cmhide.scoring import (
    _BLOCK,
    betweenness,
    check_weights,
    community_degrees,
    promising_actions,
    rank_scores,
    top_ranked,
)

from conftest import (
    brute_betweenness, brute_pagerank, graph_from_edges, layered_graph, planted_blocks,
    random_graph,
)


def queue_betweenness(g) -> np.ndarray:
    """Brandes (2001) one source at a time with a queue and a stack.

    The array kernel takes every sum in this order, so the two must agree
    bit for bit.
    """
    n = g.n
    bc = np.zeros(n)
    for s in range(n):
        stack: list[int] = []
        pred: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1)
        dist[s] = 0
        queue = deque((s,))
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in pred[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0


def test_rank_scores_example():
    assert rank_scores(np.array([42.0, 120.0, 5.0])).tolist() == [2, 3, 1]


def test_rank_scores_ties_by_node_id():
    assert rank_scores(np.array([7.0, 7.0, 7.0])).tolist() == [1, 2, 3]


def test_top_ranked_ties_go_to_the_smaller_id():
    assert top_ranked(np.full(6, 3), [5, 2, 4, 0], 2) == [0, 2]
    assert top_ranked(np.array([1.0, 9.0, 1.0, 9.0]), np.array([3, 2, 1, 0]), 3) == [1, 3, 0]


@pytest.mark.parametrize("dtype", [np.int64, float])
@pytest.mark.parametrize("as_array", [False, True])
def test_top_ranked_values_and_candidates(dtype, as_array):
    values = np.array([4, 0, 7, 7, 2, 9], dtype=dtype)
    candidates = [0, 2, 3, 4] if not as_array else np.array([0, 2, 3, 4])
    assert top_ranked(values, candidates, 0) == []
    assert top_ranked(values, candidates, 2) == [2, 3]
    every = top_ranked(values, candidates, 10)  # k beyond the candidates: all, in rank order
    assert every == [2, 3, 0, 4]
    assert all(type(v) is int for v in every)
    assert top_ranked(values, [], 3) == []


def test_top_ranked_matches_a_sort_on_value_then_id():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.integers(0, 4, size=12).astype(float)
        candidates = rng.permutation(12)[: rng.integers(0, 13)]
        k = int(rng.integers(0, 14))
        want = sorted(candidates.tolist(), key=lambda v: (-values[v], v))[:k]
        assert top_ranked(values, candidates, k) == want


def test_rank_normalisation_example():
    ranks = rank_scores(np.array([42.0, 120.0, 5.0]))
    s = (ranks - 1) / 2.0
    assert s.tolist() == [0.5, 1.0, 0.0]


def test_betweenness_path():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    bc = betweenness(g)
    assert bc[g.id_of("b")] == pytest.approx(1.0)
    assert bc[g.id_of("a")] == 0.0 and bc[g.id_of("c")] == 0.0


def test_betweenness_complete_graph_zero():
    g = graph_from_edges(itertools.combinations(range(4), 2))
    assert np.allclose(betweenness(g), 0.0)


def test_betweenness_star():
    g = graph_from_edges([(0, v) for v in range(1, 5)])
    bc = betweenness(g)
    assert bc[0] == pytest.approx(6.0)  # C(4,2) leaf pairs
    assert np.allclose(bc[1:], 0.0)


def test_betweenness_matches_path_enumeration():
    for seed in range(4):
        g = random_graph(7, 0.45, seed)
        assert np.allclose(betweenness(g), brute_betweenness(g), atol=1e-12)


def test_pagerank_cycle_uniform():
    g = graph_from_edges([(i, (i + 1) % 5) for i in range(5)])
    assert np.allclose(pagerank(g), 0.2, atol=1e-9)


def test_pagerank_sums_to_one(kar):
    assert pagerank(kar).sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_matches_dense_solve(kar):
    assert np.allclose(pagerank(kar), brute_pagerank(kar), atol=1e-8)


def test_pagerank_handles_isolated_nodes():
    g = random_graph(6, 0.0, 0)  # edgeless: all dangling
    g2 = graph_from_edges([(0, 1)])
    assert np.allclose(pagerank(g), 1.0 / 6.0, atol=1e-12)
    assert pagerank(g2).sum() == pytest.approx(1.0)
    assert pagerank(Graph([])).shape == (0,)


# rank_scores(betweenness(g)) as the queue-and-stack kernel left it. kar's
# nodes 5 and 6 tie exactly but come out one ulp apart, so a kernel that sums
# in another order swaps them; structural_scores and the centrality baseline
# would then rank those nodes the other way round.
LOCKED_BETWEENNESS_RANKS = {
    "kar": [34, 28, 31, 20, 13, 25, 24, 1, 29, 14, 2, 3, 27, 4, 26, 5, 30, 21, 15, 23,
            16, 32, 6, 33, 7, 8, 9, 10, 11, 22, 19, 18, 17, 12],
    "barbell": [1, 2, 5, 6, 3, 4],
    "cliques": [1, 2, 3, 4, 9, 10, 5, 6, 7, 8],
}


@pytest.mark.parametrize("name", sorted(LOCKED_BETWEENNESS_RANKS))
def test_betweenness_tie_order_is_locked(name):
    from cmhide import load_fixture

    ranks = rank_scores(betweenness(load_fixture(name)))
    assert ranks.tolist() == LOCKED_BETWEENNESS_RANKS[name]


def _kernel_cases():
    from cmhide import load_fixture

    cases = {name: load_fixture(name) for name in ("kar", "barbell", "cliques")}
    cases["sparse n=120"] = random_graph(120, 0.04, 7)  # several components
    cases["dense n=40"] = random_graph(40, 0.5, 3)
    cases["kar overlay"] = apply_delta(
        cases["kar"], EdgeDelta(0, frozenset({9, 26, 33, 1, 2}))
    )
    # Pull levels run once the frontier has more arcs than the unseen
    # nodes: the middle levels of a planted graph, level 1 of K_12 (which
    # is every other node) and the hub seen from a leaf of a star.
    cases["planted n=300"] = planted_blocks([75, 75, 75, 75], 0.12, 0.01, seed=5)
    cases["K_12"] = graph_from_edges(itertools.combinations(range(12), 2))
    cases["star n=40"] = graph_from_edges([(0, v) for v in range(1, 40)])
    # a dense component, a path, an edge and isolated nodes: pull levels
    # scan the nodes no source in the block can reach
    dense = sorted(random_graph(30, 0.3, 4).edges())
    cases["components"] = Graph(
        [(str(a), str(b)) for a, b in dense + [(30, 31), (31, 32), (33, 34)]],
        node_labels=[str(v) for v in range(38)],
    )
    # the last block of sources is short, or the only one
    cases["n below the block"] = random_graph(_BLOCK - 3, 0.4, 1)
    cases["n not a block multiple"] = random_graph(2 * _BLOCK + 5, 0.15, 2)
    # path counts up to 2**61: float sums past 2**53 round, so their order
    # shows in the last bits
    cases["layered n=177"] = layered_graph(40, 3)
    return cases


@pytest.mark.parametrize("name", sorted(_kernel_cases()))
def test_betweenness_equals_queue_version_bit_for_bit(name):
    g = _kernel_cases()[name]
    assert betweenness(g).tobytes() == queue_betweenness(g).tobytes()


def max_path_count(g) -> int:
    """The most shortest paths between any two nodes, counted in Python ints."""
    most = 0
    for s in range(g.n):
        sigma = [0] * g.n
        sigma[s] = 1
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque((s,))
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        most = max(most, max(sigma))
    return most


def test_layered_case_has_path_counts_beyond_2_53():
    assert max_path_count(_kernel_cases()["layered n=177"]) > 2**53


def _sorted_key_widths(monkeypatch, g) -> tuple[np.ndarray, set[int]]:
    """betweenness(g) and the byte widths of the keys its sorts received."""
    widths = set()
    argsort = np.argsort

    def recording(keys, *args, **kwargs):
        widths.add(keys.dtype.itemsize)
        return argsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    bc = betweenness(g)
    monkeypatch.undo()
    return bc, widths


def test_betweenness_with_32_bit_sort_keys(monkeypatch):
    # past n = 4096 a block's flat ids, and so its ranks, need 32 bits. Each
    # sort casts its keys down to the size of the frontier they rank, since
    # numpy sorts keys of 16 bits or fewer stably by radix. Isolated sources
    # add only zero rows, so the component's values still equal the queue
    # loop's on it alone.
    component = random_graph(60, 0.1, 5)
    g = Graph(
        [(str(a), str(b)) for a, b in component.edges()],
        node_labels=[str(v) for v in range(4100)],
    )
    assert np.min_scalar_type(_BLOCK * g.n) == np.uint32
    bc, widths = _sorted_key_widths(monkeypatch, g)
    assert widths and max(widths) <= 2
    assert bc[:60].tobytes() == queue_betweenness(component).tobytes()
    assert (bc[60:] == 0.0).all()


def test_betweenness_of_a_star_past_16_bit_frontiers(monkeypatch):
    # from a block of 16 leaves, level 2 holds 16 * 4098 = 65568 flat ids,
    # so that level's keys need 32 bits
    n = 4100
    bc, widths = _sorted_key_widths(monkeypatch, graph_from_edges([(0, v) for v in range(1, n)]))
    assert 4 in widths
    assert bc[0] == (n - 1) * (n - 2) / 2 == 8_398_851
    assert (bc[1:] == 0.0).all()


def _nx_graph(nx, g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def _oracle_cases(nx):
    sizes = [75, 75, 75, 75]
    probs = [[0.12 if a == b else 0.01 for b in range(4)] for a in range(4)]
    G = nx.stochastic_block_model(sizes, probs, seed=11)
    sbm = Graph(
        [(str(a), str(b)) for a, b in G.edges()],
        node_labels=[str(v) for v in range(G.number_of_nodes())],
    )
    outsiders = [v for v in range(sbm.n) if not sbm.has_edge(0, v) and v != 0][-6:]
    return {
        "sbm n=300": sbm,
        "disconnected": graph_from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8)]
        ),
        "isolated nodes": Graph(
            [("0", "1"), ("1", "2"), ("2", "3"), ("1", "3")],
            node_labels=[str(v) for v in range(7)],
        ),
        "n=1": Graph([], node_labels=["a"]),
        "n=2": graph_from_edges([(0, 1)]),
        "sbm overlay": apply_delta(
            sbm, EdgeDelta(0, frozenset(list(sbm.neighbors(0))[:3] + outsiders))
        ),
        "layered n=177": layered_graph(40, 3),
    }


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    for name, g in _oracle_cases(nx).items():
        ref = nx.betweenness_centrality(_nx_graph(nx, g), normalized=False)
        expected = np.array([ref[v] for v in range(g.n)])
        np.testing.assert_allclose(betweenness(g), expected, rtol=0, atol=1e-9, err_msg=name)


def test_pagerank_matches_networkx():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")  # networkx's pagerank runs on scipy
    for name, g in _oracle_cases(nx).items():
        ref = nx.pagerank(_nx_graph(nx, g), alpha=0.85, tol=1e-15, max_iter=10000)
        expected = np.array([ref[v] for v in range(g.n)])
        np.testing.assert_allclose(pagerank(g), expected, rtol=0, atol=1e-10, err_msg=name)


def test_community_degrees_disjoint_triangles():
    g = graph_from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = Partition.from_communities([{0, 1, 2}, {3, 4, 5}])
    intra, inter = community_degrees(g, part)
    assert intra.tolist() == [len(g.neighbors(v)) for v in range(6)]
    assert inter.tolist() == [0] * 6


def test_community_degrees_barbell_bridge(barbell):
    part = Partition.from_communities([{0, 1, 2}, {3, 4, 5}])
    intra, inter = community_degrees(barbell, part)
    assert inter[2] == 1 and inter[3] == 1
    assert int(intra.sum()) == 2 * 6  # two triangles of 3 intra edges each


def test_structural_scores_degenerate_weights(kar, kar_partition):
    s = structural_scores(kar, kar_partition, weights=(1.0, 0.0, 0.0, 0.0))
    expected = (rank_scores(betweenness(kar)) - 1) / (kar.n - 1)
    assert np.allclose(s.combined, expected)


def test_structural_scores_in_unit_interval(kar, kar_partition):
    s = structural_scores(kar, kar_partition)
    assert s.combined.min() >= 0.0 and s.combined.max() <= 1.0


def test_structural_scores_spreadsheet_oracle(kar, kar_partition):
    tuned = (0.33, 0.20, 0.21, 0.24)  # relative: structural_scores scales them
    s = structural_scores(kar, kar_partition, tuned)
    weights = tuple(w / sum(tuned) for w in tuned)
    intra, inter = community_degrees(kar, kar_partition)
    raw = (
        betweenness(kar),
        np.array([len(kar.neighbors(v)) for v in range(kar.n)], dtype=float),
        intra.astype(float),
        inter.astype(float),
    )
    manual = sum(
        w * (rank_scores(vals) - 1) / (kar.n - 1) for w, vals in zip(weights, raw)
    )
    assert np.allclose(s.combined, manual, atol=1e-12)


def test_check_weights_scales_relative_weights():
    assert check_weights((1, 1, 1, 1)) == (0.25,) * 4
    with pytest.raises(ConfigError, match="must be numbers"):
        check_weights(("a", 1, 1, 1))


def test_weights_validation():
    g = graph_from_edges([(0, 1)])
    part = Partition.from_communities([{0, 1}])
    with pytest.raises(ConfigError, match="positive, finite sum"):
        structural_scores(g, part, weights=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="positive, finite sum"):
        structural_scores(g, part, weights=(1e308, 1e308, 0.0, 0.0))
    with pytest.raises(ConfigError):
        structural_scores(g, part, weights=(1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        structural_scores(g, part, weights=(1.5, -0.5, 0.0, 0.0))
    with pytest.raises(ConfigError):
        structural_scores(g, part, weights=(np.nan, 1.0, 0.0, 0.0))


def test_promising_actions_formula(cliques, greedy):
    from cmhide import detect

    part = detect(cliques, greedy)
    u = 0
    scores = structural_scores(cliques, part)
    tgt = promising_actions(u, part, scores)
    s = scores.combined
    members = part.community_members(u)
    for v in range(cliques.n):
        if v == u:
            assert tgt[v] == 0.5
        elif v in members:
            assert tgt[v] == pytest.approx((1.0 - s[v]) / 2.0)
        else:
            assert tgt[v] == pytest.approx((1.0 + s[v]) / 2.0)
    assert tgt.min() >= 0.0 and tgt.max() <= 1.0


def test_promising_actions_boundaries():
    # in-community with top score -> 0; outsider with top score -> 1; S=0 -> 1/2
    s = np.array([1.0, 0.0, 1.0])
    in_comm = (1.0 - s) / 2.0
    out_comm = (1.0 + s) / 2.0
    assert in_comm[0] == 0.0 and out_comm[2] == 1.0
    assert in_comm[1] == 0.5 and out_comm[1] == 0.5

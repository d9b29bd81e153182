from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from cmhide import ConfigError, DetectorSpec, EdgeDelta, Partition, apply_delta, detect
from cmhide.detectors import DETECTOR_NAMES, modularity
from cmhide.graph import Graph

from conftest import (
    brute_modularity, brute_nmi, graph_from_edges, planted_blocks, random_graph, set_partitions,
)


def partition_of(blocks) -> Partition:
    return Partition.from_communities(frozenset(b) for b in blocks)


def test_modularity_single_community_is_zero():
    tri = graph_from_edges([(0, 1), (1, 2), (0, 2)])
    assert modularity(tri, partition_of([[0, 1, 2]])) == pytest.approx(0.0, abs=1e-15)


def test_modularity_singletons_on_triangle():
    tri = graph_from_edges([(0, 1), (1, 2), (0, 2)])
    q = modularity(tri, partition_of([[0], [1], [2]]))
    assert q == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_modularity_matches_double_sum_on_cliques(cliques):
    part = partition_of([range(5), range(5, 10)])
    assert modularity(cliques, part) == pytest.approx(
        brute_modularity(cliques, part), abs=1e-12
    )


def test_greedy_on_karate_finds_three_communities(kar, kar_partition):
    assert kar_partition.k == 3
    assert sorted(len(c) for c in kar_partition.communities) == [8, 9, 17]


def test_greedy_splits_cliques_and_is_exhaustively_optimal(cliques, greedy):
    part = detect(cliques, greedy)
    found = {frozenset(c) for c in part.communities}
    assert found == {frozenset(range(5)), frozenset(range(5, 10))}
    best = max(
        modularity(cliques, partition_of(blocks))
        for blocks in set_partitions(range(10))
    )
    assert modularity(cliques, part) == pytest.approx(best, abs=1e-12)


def test_single_edge_graph_is_degenerate_but_valid():
    g = graph_from_edges([("a", "b")])
    for name in ("greedy", "louvain", "label_propagation"):
        part = detect(g, DetectorSpec(name))
        assert part.k in (1, 2)
        assert sorted(v for c in part.communities for v in c) == [0, 1]


def test_detectors_are_deterministic(kar):
    for name in ("greedy", "louvain", "label_propagation"):
        spec = DetectorSpec(name, seed=13)
        a = detect(kar, spec)
        b = detect(kar, spec)
        assert a == b


def test_louvain_seed_changes_are_isolated(kar):
    parts = [detect(kar, DetectorSpec("louvain", seed=s)) for s in range(4)]
    for p in parts:
        assert sorted(v for c in p.communities for v in c) == list(range(kar.n))
        assert modularity(kar, p) > modularity(
            kar, partition_of([[v] for v in range(kar.n)])
        )


# sha256 of " ".join(labels), per graph and seed; each graph takes 3 or 4 levels
LOUVAIN_LOCKS = {
    "blocks600": {
        0: "12cf95a2bd3c59090aeb43767e7ff3be1595cdf769b19ebbce9ad976e312f508",
        1: "89b1e1bc3510dc04e1bd8abbfb0272ec02acc845ff6f1642fd16b0959d6c65a1",
        3: "fcd4e03005af0813cf81be528191e95b6d238df79ed2c69b0633643498c987ea",
    },
    "random60_0": {
        0: "31fe38cc500fc8405f3cd67483f7a9faaa41499e1c1c2b12a1077415246c4044",
        1: "5ba378de206e797bc18ad422d8942c202ee4f1422938f5ed784e2ee2799aa54e",
        3: "adefc7fc93554cebdd76df28044692bfc5e667ebbc7161ca83fed1d41d380b5a",
    },
    "random60_1": {
        0: "0cd9c6b5fe6c1f2d22890c74e8a6c9d80cf81b9dc013f87b2c1ee057e3d7e5dc",
        1: "bf002273a4c9e3c568b747f776edaa3e7e299cd7205ec892bc8dedc4e2a9bded",
        3: "2090b3b2082c04e12870f55a04062c1306a1a6421a06c5ad336f92c97a430aaf",
    },
    "random60_2": {
        0: "12099854596183136bb0d47b638b474bdd3f551fbcce9c1114399d5be048b2b0",
        1: "107ba0197668fbf46fe5b3d1609306fe495b2beb7d3e9de19d8b4b5968c0d8eb",
        3: "6569f0c690976a74aa9b797ac14d311f6eb0bd7ee71cc7ee25c4a155061fa33c",
    },
}


def test_louvain_labels_are_locked_beyond_karate():
    graphs = {"blocks600": planted_blocks([40, 80, 160, 320], 0.08, 0.004, seed=1)}
    graphs.update((f"random60_{s}", random_graph(60, 0.08, s)) for s in range(3))
    got = {
        name: {
            seed: hashlib.sha256(
                " ".join(map(str, detect(g, DetectorSpec("louvain", seed)).labels)).encode()
            ).hexdigest()
            for seed in LOUVAIN_LOCKS[name]
        }
        for name, g in graphs.items()
    }
    assert got == LOUVAIN_LOCKS


def test_greedy_never_spans_components():
    g = graph_from_edges([(0, 1), (1, 2), (3, 4), (4, 5)])
    part = detect(g, DetectorSpec("greedy"))
    for c in part.communities:
        assert c <= frozenset((0, 1, 2)) or c <= frozenset((3, 4, 5))


def test_partition_helpers(kar_partition):
    c = kar_partition.community_members(0)
    assert 0 in c
    assert kar_partition.labels[0] == kar_partition.labels[min(c)]
    membership = kar_partition.membership(34)
    assert len(membership) == 34
    for v in c:
        assert membership[v] == membership[0]


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition.from_communities([frozenset((0, 1)), frozenset((1, 2))])


def test_partition_rejects_a_gap_in_the_node_ids():
    with pytest.raises(ValueError, match="node 2 is in no community"):
        Partition.from_communities([{0, 1}, {3}])
    with pytest.raises(ValueError, match="node 1 is in no community"):
        Partition.from_communities([{-1, 0}])


def test_from_labels_renumbers_keys_by_first_appearance():
    assert Partition.from_labels(["b", "a", "b", "c", "a"]).labels == (0, 1, 0, 2, 1)
    assert Partition.from_labels([7, 7, 3, 7]).labels == (0, 0, 1, 0)
    assert Partition.from_labels((None, 2.5, None)).labels == (0, 1, 0)
    part = Partition.from_labels([])
    assert part.labels == () and part.k == 0 and part.communities == ()
    assert Partition.from_labels("xyzx").communities == (
        frozenset({0, 3}), frozenset({1}), frozenset({2}),
    )


def test_equal_partitions_compare_and_hash_equal():
    same = [
        Partition.from_communities([{2, 3}, {0, 1}, {4}]),
        Partition.from_communities([[4], [1, 0], [], [3, 2]]),
        Partition.from_labels("ppqqr"),
        Partition((0, 0, 1, 1, 2)),
    ]
    assert all(p == same[0] and hash(p) == hash(same[0]) for p in same)
    assert len(set(same)) == 1
    assert Partition.from_labels("pqpqr") != same[0]


@pytest.mark.parametrize("name", DETECTOR_NAMES)
def test_partition_views_agree(name, kar, barbell, cliques):
    graphs = [kar, barbell, cliques] + [random_graph(30, 0.15, s) for s in range(5)]
    for g in graphs:
        p = detect(g, DetectorSpec(name))
        assert Partition.from_communities(p.communities) == p
        assert p.membership(g.n).tolist() == list(p.labels)
        for v in range(g.n):
            assert p.community_members(v) == next(c for c in p.communities if v in c)
    with pytest.raises(KeyError):
        p.community_members(g.n)
    with pytest.raises(KeyError):
        p.community_members(-1)


@pytest.mark.parametrize("name", DETECTOR_NAMES)
def test_partition_holds_at_most_16_bytes_per_node(name):
    g = planted_blocks([250] * 4, 0.04, 0.002, seed=0)  # n = 1,000
    spec = DetectorSpec(name)
    detect(g, spec)  # first-call costs stay out of the figure
    gc.collect()
    tracemalloc.start()
    try:
        part = detect(g, spec)
        gc.collect()  # also empties the free lists the call's temporaries went to
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert part.k == 4
    assert held / g.n <= 16, f"{held / g.n:.1f} bytes per node"


def test_unknown_detector_lists_available():
    with pytest.raises(Exception) as err:
        DetectorSpec("walktrap")
    msg = str(err.value)
    assert "greedy" in msg and "louvain" in msg


def test_greedy_matches_exhaustive_max_on_small_graphs():
    for seed, p in ((0, 0.4), (1, 0.55), (2, 0.7)):
        g = random_graph(6, p, seed)
        if g.m == 0:
            continue
        part = detect(g, DetectorSpec("greedy"))
        best = max(
            modularity(g, partition_of(blocks))
            for blocks in set_partitions(range(g.n))
        )
        # agglomerative greedy is a heuristic: never better than the optimum
        assert modularity(g, part) <= best + 1e-12
        assert modularity(g, part) >= modularity(
            g, partition_of([[v] for v in range(g.n)])
        )


def test_detector_spec_validation():
    with pytest.raises(ConfigError, match="unknown detector"):
        DetectorSpec("labelprop")
    # numpy's generators take no negative seed; greedy ignores it but is held to it too
    for name in ("louvain", "greedy"):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            DetectorSpec(name, seed=-1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        DetectorSpec("louvain", seed=True)
    with pytest.raises(TypeError):  # Louvain's modularity gain has no resolution knob
        DetectorSpec("louvain", resolution=1.0)


def heap_greedy(g) -> Partition:
    """Clauset-Newman-Moore with every adjacent pair on a lazy-deletion heap.

    The detector keys each pair by an upper bound on its gain and pushes it
    back when that bound is stale; both must merge the same pairs in the
    same order, so their partitions must be equal.
    """
    n, m = g.n, g.m
    if m == 0:
        return Partition.from_communities([{v} for v in range(n)])
    members = {v: {v} for v in range(n)}
    dsum = {v: g.degree(v) for v in range(n)}
    cross = {v: {} for v in range(n)}
    for u, v in g.edges():
        cross[u][v] = 1
        cross[v][u] = 1

    def gain(a, b):
        return cross[a].get(b, 0) / m - dsum[a] * dsum[b] / (2.0 * m * m)

    heap = []
    for a, nbrs in cross.items():
        for b in nbrs:
            if a < b:
                heapq.heappush(heap, (-gain(a, b), a, b))
    while heap:
        neg_dq, a, b = heapq.heappop(heap)
        if a not in members or b not in members:
            continue
        dq = gain(a, b)
        if -neg_dq != dq:
            continue
        if dq <= 0:
            break
        members[a] |= members.pop(b)
        dsum[a] += dsum.pop(b)
        for c, w in cross.pop(b).items():
            if c == a:
                continue
            cross[c].pop(b)
            cross[a][c] = cross[a].get(c, 0) + w
            cross[c][a] = cross[a][c]
        cross[a].pop(b, None)
        for c in cross[a]:
            lo, hi = (a, c) if a < c else (c, a)
            heapq.heappush(heap, (-gain(lo, hi), lo, hi))
    return Partition.from_communities(members.values())


def test_greedy_merges_as_the_full_heap_does_on_fixtures(kar, barbell, cliques, greedy):
    graphs = [kar, barbell, cliques, Graph([], node_labels=[str(v) for v in range(5)])]
    for n in (3, 4, 5, 8, 13):
        ring = [(v, (v + 1) % n) for v in range(n)]
        graphs.append(graph_from_edges(ring))  # every gain ties
        graphs.append(graph_from_edges(itertools.combinations(range(n), 2)))
        graphs.append(graph_from_edges([(0, v) for v in range(1, n)]))
    for seed, (n, p) in enumerate(itertools.product((6, 20, 60), (0.02, 0.08, 0.2, 0.5))):
        graphs.append(random_graph(n, p, seed))  # isolated nodes, several components
    graphs.append(planted_blocks([75, 75, 75, 75], 0.12, 0.01, seed=3))
    # n = 600 and 1,000, communities of up to 320 nodes: hundreds of keys
    # go back on the heap
    graphs.append(planted_blocks([40, 80, 160, 320], 0.08, 0.004, seed=1))
    graphs.append(planted_blocks([100] * 10, 0.1, 0.005, seed=0))
    for g in graphs:
        assert detect(g, greedy) == heap_greedy(g), g


def test_greedy_merges_as_the_full_heap_does_on_karate_overlays(kar, greedy):
    rng = np.random.default_rng(2004)
    for _ in range(1000):
        g = kar
        for _ in range(int(rng.integers(1, 9))):
            u, v = rng.choice(kar.n, size=2, replace=False).tolist()
            g = apply_delta(g, EdgeDelta(u, frozenset((v,))))
        assert detect(g, greedy) == heap_greedy(g)


@pytest.mark.parametrize("name", DETECTOR_NAMES)
def test_detector_recovers_planted_blocks_as_well_as_networkx(name):
    nx = pytest.importorskip("networkx")
    counterpart = {
        "greedy": nx.community.greedy_modularity_communities,
        "louvain": lambda G: nx.community.louvain_communities(G, seed=0),
        "label_propagation": lambda G: nx.community.asyn_lpa_communities(G, seed=0),
    }[name]
    blocks = np.repeat(np.arange(4), 75)
    ours, theirs = [], []
    for seed in range(5):  # four blocks of 75 nodes, about 9.6 links inside and 2.4 across
        g = planted_blocks([75] * 4, 0.13, 0.0107, seed=seed)
        ours.append(brute_nmi(detect(g, DetectorSpec(name)).membership(g.n), blocks))
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        theirs.append(brute_nmi(partition_of(counterpart(G)).membership(g.n), blocks))
    # a single draw may fall below networkx's, the mean over the five may not
    assert np.mean(ours) >= np.mean(theirs), (ours, theirs)

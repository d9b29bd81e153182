from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

from cmhide import ConfigError, DetectorSpec, EdgeDelta, Partition, apply_delta, detect
from cmhide.detectors import modularity
from cmhide.graph import Graph

from conftest import (
    brute_modularity, graph_from_edges, planted_blocks, random_graph, set_partitions,
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


def test_greedy_never_spans_components():
    g = graph_from_edges([(0, 1), (1, 2), (3, 4), (4, 5)])
    part = detect(g, DetectorSpec("greedy"))
    for c in part.communities:
        assert c <= frozenset((0, 1, 2)) or c <= frozenset((3, 4, 5))


def test_partition_helpers(kar_partition):
    c = kar_partition.community_members(0)
    assert 0 in c
    assert kar_partition.community_of(0) == kar_partition.community_of(min(c))
    membership = kar_partition.membership(34)
    assert len(membership) == 34
    for v in c:
        assert membership[v] == membership[0]


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition.from_communities([frozenset((0, 1)), frozenset((1, 2))])


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

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
from collections import Counter
from typing import Iterable

import numpy as np
import pytest

from cmhide import DetectorSpec, HidingConfig, Partition, detect, load_fixture
from cmhide.gradient import Scorer
from cmhide.graph import EdgeDelta, Graph


@pytest.fixture(scope="session")
def kar() -> Graph:
    return load_fixture("kar")


@pytest.fixture(scope="session")
def barbell() -> Graph:
    return load_fixture("barbell")


@pytest.fixture(scope="session")
def cliques() -> Graph:
    return load_fixture("cliques")


@pytest.fixture(scope="session")
def greedy() -> DetectorSpec:
    return DetectorSpec("greedy")


@pytest.fixture(scope="session")
def kar_partition(kar, greedy):
    return detect(kar, greedy)



@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The max_workers of each process pool started, on a machine reporting two CPUs.

    The pools are real, so a parallel run forks its workers on any machine.
    """
    sizes: list[int] = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return sizes

def graph_from_edges(edges) -> Graph:
    return Graph([(str(a), str(b)) for a, b in edges])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi draw that always keeps node count n (isolated labels allowed)."""
    rng = np.random.default_rng(seed)
    edges = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(
        [(str(a), str(b)) for a, b in edges], node_labels=[str(v) for v in range(n)]
    )


def planted_blocks(sizes, p_in, p_out, seed) -> Graph:
    """Stochastic block model: edge probability p_in within a block, p_out across."""
    rng = np.random.default_rng(seed)
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = block.size
    prob = np.where(block[:, None] == block[None, :], p_in, p_out)
    a, b = np.nonzero(np.triu(rng.random((n, n)) < prob, k=1))
    return Graph(
        [(str(u), str(v)) for u, v in zip(a.tolist(), b.tolist())],
        node_labels=[str(v) for v in range(n)],
    )


def layered_graph(layers: int, seed: int) -> Graph:
    """Layers of 3 to 6 nodes; each node links to 2 or more random nodes of the layer before.

    Shortest-path counts multiply from layer to layer, so they soon pass 2**53,
    where float sums stop being exact and their order shows in the last bits.
    """
    rng = np.random.default_rng(seed)
    start = np.concatenate([[0], np.cumsum(rng.integers(3, 7, size=layers))])
    edges = []
    for i in range(1, layers):
        prev = np.arange(start[i - 1], start[i])
        for v in range(start[i], start[i + 1]):
            parents = rng.choice(prev, size=int(rng.integers(2, prev.size + 1)), replace=False)
            edges += [(int(u), v) for u in parents]
    return Graph(
        [(str(a), str(b)) for a, b in edges], node_labels=[str(v) for v in range(start[-1])]
    )


def set_partitions(items):
    """All partitions of a sequence into non-empty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def modularity(g: Graph, partition: Partition) -> float:
    """Newman modularity of a partition; 0.0 on an edgeless graph."""
    m = g.m
    if m == 0:
        return 0.0
    q = 0.0
    for comm in partition.communities:
        intra = 0
        dsum = 0
        for v in comm:
            dsum += len(g.neighbors(v))
            for w in g.neighbors(v):
                if w in comm and w > v:
                    intra += 1
        q += intra / m - (dsum / (2.0 * m)) ** 2
    return q


def brute_modularity(g: Graph, part: Partition) -> float:
    """Newman's double sum over all ordered node pairs; 0 on an edgeless graph."""
    if g.m == 0:
        return 0.0
    member = part.membership(g.n)
    two_m = 2.0 * g.m
    q = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if member[i] != member[j]:
                continue
            a = 1.0 if i != j and g.has_edge(i, j) else 0.0
            q += a - len(g.neighbors(i)) * len(g.neighbors(j)) / two_m
    return q / two_m


def brute_pagerank(g: Graph, damping: float = 0.85) -> np.ndarray:
    """Dense linear solve of the PageRank fixed point; a dangling node links to every node."""
    n = g.n
    link = np.zeros((n, n))
    for u in range(n):
        nbrs = g.neighbors(u)
        if nbrs:
            for v in nbrs:
                link[v, u] = 1.0 / len(nbrs)
        else:
            link[:, u] = 1.0 / n
    return np.linalg.solve(np.eye(n) - damping * link, np.full(n, (1 - damping) / n))


def brute_betweenness(g: Graph) -> np.ndarray:
    """Enumerate every shortest path between every pair; count interior visits."""
    n = g.n
    bc = np.zeros(n)
    for s, t in itertools.combinations(range(n), 2):
        dist = {s: 0}
        frontier = [s]
        while frontier and t not in dist:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if t not in dist:
            continue
        paths = [[t]]
        while any(p[-1] != s for p in paths):
            paths = [
                p + [w]
                for p in paths
                for w in g.neighbors(p[-1])
                if dist.get(w, -1) == dist[p[-1]] - 1
            ]
        for p in paths:
            for v in p[1:-1]:
                bc[v] += 1.0 / len(paths)
    return bc


def dice_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """Soerensen-Dice overlap of two node sets; defined as 0 when both are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def loss_value(p_hat: np.ndarray, target: np.ndarray, row: np.ndarray, lam: float) -> float:
    """The loss `gradient.loss_gradient` differentiates: pull plus a per-node size penalty."""
    pull = np.linalg.norm(target - row - p_hat)
    return float(pull + lam * np.linalg.norm(p_hat) / p_hat.size ** 0.5)


def fewest_flips(
    g: Graph, u: int, detector: DetectorSpec, config: HidingConfig, partition: Partition
) -> int | None:
    """The fewest toggles of u's row that hide u by `config.hides`, or None within beta.

    Every toggle set of each size is scored through `Scorer`, as an attack
    scores its rewiring, so the answer is exact for any single-row method.
    """
    score = Scorer(g, u, detector, partition)
    others = [v for v in range(g.n) if v != u]
    for size in range(1, config.beta + 1):
        for combo in itertools.combinations(others, size):
            if config.hides(score((EdgeDelta(u, frozenset(combo)),))[0], size):
                return size
    return None


def brute_nmi(a, b) -> float:
    """NMI from the contingency counts: mutual information over the mean entropy."""
    n = len(a)
    ca, cb = Counter(a), Counter(b)
    joint = Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    info = sum(
        c / n * math.log((c / n) / (ca[x] / n * cb[y] / n))
        for (x, y), c in joint.items()
    )
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, info / denom))

from __future__ import annotations

import itertools

import numpy as np
import pytest

from cmhide import DetectorSpec, detect, load_fixture
from cmhide.graph import Graph


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

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

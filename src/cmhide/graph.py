"""Immutable simple undirected graphs, edge-list ingestion and edge-delta overlays.

Graphs carry arbitrary string labels mapped to contiguous internal ids
0..n-1 (first-appearance order). A counterfactual graph is an overlay: a
Graph built from another graph by toggling one node's row, sharing every
untouched row with it; the graph it is built from is never copied or
mutated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator

import numpy as np

from .errors import EdgeListParseError


@dataclass(frozen=True)
class EdgeDelta:
    """Set of edge toggles on one node's row: (owner, v) flips for v in toggled."""

    owner: int
    toggled: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "toggled", frozenset(self.toggled))
        if self.owner in self.toggled:
            raise ValueError("delta cannot toggle the owner's self edge")

    @property
    def size(self) -> int:
        return len(self.toggled)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in self.toggled:
            yield (self.owner, v) if self.owner < v else (v, self.owner)


@dataclass
class LoadStats:
    """Normalisation counters from edge-list ingestion."""

    duplicate_lines: int = 0
    self_loops_dropped: int = 0


class Graph:
    """Simple undirected graph, immutable after construction.

    Each node's row is the sorted tuple of its neighbours; every read goes
    through the rows. The array kernels read the same rows compressed (see
    csr), built on first use and kept in the `_csr` slot.
    """

    __slots__ = ("n", "m", "_adj", "_labels", "_ids", "_csr")

    def __init__(self, labelled_edges: Iterable[tuple[str, str]], node_labels: Iterable[str] = ()):
        ids: dict[str, int] = {}
        for lab in node_labels:
            ids.setdefault(str(lab), len(ids))
        pairs: set[tuple[int, int]] = set()
        for a, b in labelled_edges:
            ia = ids.setdefault(str(a), len(ids))
            ib = ids.setdefault(str(b), len(ids))
            if ia == ib:
                raise ValueError(f"self loop on node {a!r}")
            pairs.add((ia, ib) if ia < ib else (ib, ia))
        self._set_rows(ids, pairs)

    @classmethod
    def _from_id_pairs(cls, ids: dict[str, int], pairs: Collection[tuple[int, int]]) -> Graph:
        """A graph from labels already mapped to ids and distinct non-loop id pairs."""
        g = cls.__new__(cls)
        g._set_rows(ids, pairs)
        return g

    def _set_rows(self, ids: dict[str, int], pairs: Collection[tuple[int, int]]) -> None:
        self.n = len(ids)
        self.m = len(pairs)
        self._labels = tuple(ids)  # insertion order == id order
        self._ids = ids
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, row in enumerate(self._adj) for v in row if u < v)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only compressed rows (indptr, indices, degree, tails), built once.

        v's neighbours are indices[indptr[v]:indptr[v + 1]], degree[v] of
        them, and tails[k] is the node that arc k leaves.
        """
        try:
            return self._csr
        except AttributeError:
            pass
        degree = np.fromiter(map(len, self._adj), dtype=np.int64, count=self.n)
        indptr = np.concatenate(([0], np.cumsum(degree)))
        indices = np.fromiter(chain.from_iterable(self._adj), dtype=np.int64, count=int(indptr[-1]))
        self._csr = (indptr, indices, degree, np.repeat(np.arange(self.n), degree))
        for array in self._csr:
            array.setflags(write=False)
        return self._csr

    def row(self, u: int) -> np.ndarray:
        """Node u's row of the adjacency matrix as a read-only int8 vector."""
        bits = np.zeros(self.n, dtype=np.int8)
        nbrs = self._adj[u]
        if nbrs:
            bits[list(nbrs)] = 1
        bits.setflags(write=False)
        return bits

    def label_of(self, v: int) -> str:
        return self._labels[v]

    def id_of(self, label: str) -> int:
        try:
            return self._ids[str(label)]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._labels == other._labels and self._adj == other._adj

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class GraphOverlay(Graph):
    """A graph with one node's row rewired by an edge delta.

    Built from whatever graph it is given, overlays included. Shares that
    graph's labels, ids and every row the delta leaves untouched; only the
    owner's row and the rows of the toggled nodes are rebuilt.
    """

    __slots__ = ()

    def __init__(self, g: Graph, delta: EdgeDelta):
        u = delta.owner
        self.n = g.n
        self._labels = g._labels
        self._ids = g._ids
        adj = list(g._adj)
        adj[u] = tuple(sorted(set(adj[u]) ^ delta.toggled))
        for v in delta.toggled:
            adj[v] = tuple(sorted(set(adj[v]) ^ {u}))
        self._adj = tuple(adj)
        self.m = g.m + len(adj[u]) - len(g._adj[u])


def apply_delta(g: Graph, delta: EdgeDelta) -> Graph:
    """The graph with the delta's edges toggled; g itself for an empty delta.

    Stacked deltas toggle row by row, so applying the same delta twice
    gives a graph equal to the original.
    """
    if not 0 <= delta.owner < g.n:
        raise ValueError(f"delta owner {delta.owner} outside graph with n={g.n}")
    if delta.toggled and not 0 <= min(delta.toggled) <= max(delta.toggled) < g.n:
        raise ValueError(f"delta toggles a node outside graph with n={g.n}")
    return GraphOverlay(g, delta) if delta.toggled else g


def clamp_add(row: np.ndarray, owner: int, p: np.ndarray) -> np.ndarray:
    """Element-wise clamp(row + p) into {0,1} for a discrete perturbation p.

    row is the owner's adjacency row; p must take values in {-1, 0, +1}
    with p[owner] == 0.
    """
    p = np.asarray(p)
    if p.shape != row.shape:
        raise ValueError("perturbation length does not match adjacency vector")
    if row[owner] != 0:
        raise ValueError("adjacency vector has a self edge")
    if p[owner] != 0:
        raise ValueError("perturbation must leave the owner position untouched")
    if not ((p == 0) | (p == 1) | (p == -1)).all():
        raise ValueError("perturbation entries must be in {-1, 0, +1}")
    return np.clip(row + p.astype(np.int64), 0, 1).astype(np.int8)


def delta_between(owner: int, a: np.ndarray, b: np.ndarray) -> EdgeDelta:
    """Edge delta turning the owner's adjacency row `a` into `b`."""
    return EdgeDelta(owner, frozenset(np.flatnonzero(a != b).tolist()))


def load_edge_list_with_stats(source: str) -> tuple[Graph, LoadStats]:
    """Parse the text of a whitespace-separated edge list; returns the graph and counters.

    Lines end at '\n' only. Lines starting with '#' or '%' are comments.
    Duplicate lines (either orientation) collapse; self-loop lines are
    dropped and counted.
    """
    stats = LoadStats()
    ids: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected two whitespace-separated labels, got {line!r}", lineno
            )
        a, b = parts
        ia = ids.setdefault(a, len(ids))
        ib = ids.setdefault(b, len(ids))
        if ia == ib:
            stats.self_loops_dropped += 1
            continue
        key = (ia, ib) if ia < ib else (ib, ia)
        if key in pairs:
            stats.duplicate_lines += 1
            continue
        pairs.add(key)
    if not pairs:
        raise EdgeListParseError("edge list contains no edges")
    return Graph._from_id_pairs(ids, pairs), stats


def load_edge_list(source: str) -> Graph:
    graph, _ = load_edge_list_with_stats(source)
    return graph

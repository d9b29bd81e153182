"""Immutable simple undirected graphs, edge-list ingestion and edge-delta overlays.

Graphs carry arbitrary string labels mapped to contiguous internal ids
0..n-1 (first-appearance order). A counterfactual graph is an overlay: a
Graph that XORs a set of toggled edges onto an immutable base graph and
shares every untouched row with it; the base is never copied or mutated.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import IO, Collection, Iterable, Iterator, Union

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

    edges: int = 0
    duplicate_lines: int = 0
    self_loops_dropped: int = 0
    comment_lines: int = 0


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

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, row in enumerate(self._adj) for v in row if u < v)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only compressed rows: v's neighbours are indices[indptr[v]:indptr[v + 1]]."""
        try:
            return self._csr
        except AttributeError:
            pass
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(row) for row in self._adj], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self._adj), dtype=np.int64, count=int(indptr[-1]))
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._csr = (indptr, indices)
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
    """A base graph with a set of toggled edges.

    Shares the base's labels, ids and untouched rows; only the rows the
    toggles touch are rebuilt. The base is kept so that stacked deltas
    combine their toggles on it (see apply_delta).
    """

    __slots__ = ("base", "toggled_edges")

    def __init__(self, base: Graph, toggled_edges: frozenset[tuple[int, int]]):
        self.base = base
        self.toggled_edges = toggled_edges
        self.n = base.n
        self._labels = base._labels
        self._ids = base._ids
        touched: dict[int, set[int]] = {}
        for u, v in toggled_edges:
            touched.setdefault(u, set()).add(v)
            touched.setdefault(v, set()).add(u)
        adj = list(base._adj)
        for v, flips in touched.items():
            adj[v] = tuple(sorted(set(adj[v]) ^ flips))
        self._adj = tuple(adj)
        added = sum(1 for u, v in toggled_edges if not base.has_edge(u, v))
        self.m = base.m + added - (len(toggled_edges) - added)


def apply_delta(g: Graph, delta: EdgeDelta) -> Graph:
    """Overlay an edge delta on a graph (or on another overlay).

    Applying the same delta twice cancels out; an overlay whose toggle set
    becomes empty collapses back to the base graph.
    """
    if not 0 <= delta.owner < g.n:
        raise ValueError(f"delta owner {delta.owner} outside graph with n={g.n}")
    toggles = frozenset(delta.edges())
    if isinstance(g, GraphOverlay):
        combined = g.toggled_edges ^ toggles
        if not combined:
            return g.base
        return GraphOverlay(g.base, combined)
    if not toggles:
        return g
    return GraphOverlay(g, toggles)


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


def load_edge_list_with_stats(source: Union[IO, str, bytes]) -> tuple[Graph, LoadStats]:
    """Parse a whitespace-separated edge list; returns the graph and counters.

    Lines starting with '#' or '%' are comments. Duplicate lines (either
    orientation) collapse; self-loop lines are dropped and counted.
    """
    if isinstance(source, bytes):
        source = io.StringIO(source.decode())
    elif isinstance(source, str):
        source = io.StringIO(source)
    stats = LoadStats()
    ids: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] in "#%":
            stats.comment_lines += 1
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
    stats.edges = len(pairs)
    return Graph._from_id_pairs(ids, pairs), stats


def load_edge_list(source: Union[IO, str, bytes]) -> Graph:
    graph, _ = load_edge_list_with_stats(source)
    return graph


def dump_edge_list(g: Graph, sink: IO[str]) -> None:
    """Deterministic serialisation: min label first per edge, sorted lines."""
    lines = []
    for u, v in g.edges():
        a, b = g.label_of(u), g.label_of(v)
        if b < a:
            a, b = b, a
        lines.append(f"{a} {b}\n")
    sink.writelines(sorted(lines))

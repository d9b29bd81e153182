"""Immutable simple undirected graphs, edge-list ingestion and edge-delta overlays.

Graphs carry arbitrary string labels mapped to contiguous internal ids
0..n-1 (first-appearance order). Counterfactual graphs are cheap overlays
that XOR a set of toggled edges on top of an immutable base graph; the
base is never copied or mutated.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

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


@dataclass(frozen=True)
class AdjacencyVector:
    """One row of the adjacency matrix; bits[owner] is always 0."""

    owner: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if bits[self.owner] != 0:
            raise ValueError("adjacency vector has a self edge")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdjacencyVector)
            and self.owner == other.owner
            and np.array_equal(self.bits, other.bits)
        )


@dataclass
class LoadStats:
    """Normalisation counters from edge-list ingestion."""

    edges: int = 0
    duplicate_lines: int = 0
    self_loops_dropped: int = 0
    comment_lines: int = 0


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "m", "_adj", "_edges", "_labels", "_ids")

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
        self.n = len(ids)
        self.m = len(pairs)
        self._edges = frozenset(pairs)
        self._labels = tuple(ids)  # insertion order == id order
        self._ids = ids
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    # -- read API (shared with GraphOverlay) --------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

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

    def adjacency_vector(self, u: int) -> AdjacencyVector:
        bits = np.zeros(self.n, dtype=np.int8)
        nbrs = self._adj[u]
        if nbrs:
            bits[list(nbrs)] = 1
        return AdjacencyVector(u, bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Graph, GraphOverlay)):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and self.edges() == other.edges()
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class GraphOverlay:
    """Read view of a base graph with a set of toggled edges.

    Only rows touched by the toggles differ from the base; neighbour lists
    for touched rows are computed on first access and cached (the overlay
    itself is immutable).
    """

    __slots__ = ("base", "toggled_edges", "m", "_touched", "_row_cache")

    def __init__(self, base: Graph, toggled_edges: frozenset[tuple[int, int]]):
        self.base = base
        self.toggled_edges = toggled_edges
        added = sum(1 for e in toggled_edges if e not in base.edges())
        self.m = base.m + added - (len(toggled_edges) - added)
        touched: dict[int, set[int]] = {}
        for u, v in toggled_edges:
            touched.setdefault(u, set()).add(v)
            touched.setdefault(v, set()).add(u)
        self._touched = touched
        self._row_cache: dict[int, tuple[int, ...]] = {}

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    def label_of(self, v: int) -> str:
        return self.base.label_of(v)

    def id_of(self, label: str) -> int:
        return self.base.id_of(label)

    def neighbors(self, v: int) -> tuple[int, ...]:
        flips = self._touched.get(v)
        if flips is None:
            return self.base.neighbors(v)
        row = self._row_cache.get(v)
        if row is None:
            row = tuple(sorted(set(self.base.neighbors(v)) ^ flips))
            self._row_cache[v] = row
        return row

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return (key in self.base.edges()) ^ (key in self.toggled_edges)

    def edges(self) -> frozenset[tuple[int, int]]:
        return self.base.edges() ^ self.toggled_edges

    def adjacency_vector(self, u: int) -> AdjacencyVector:
        bits = np.zeros(self.n, dtype=np.int8)
        nbrs = self.neighbors(u)
        if nbrs:
            bits[list(nbrs)] = 1
        return AdjacencyVector(u, bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Graph, GraphOverlay)):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and self.edges() == other.edges()
        )

    def __repr__(self) -> str:
        return f"GraphOverlay(n={self.n}, m={self.m}, toggles={len(self.toggled_edges)})"


GraphLike = Union[Graph, GraphOverlay]


def apply_delta(g: GraphLike, delta: EdgeDelta) -> GraphLike:
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


def clamp_add(a: AdjacencyVector, p: np.ndarray) -> AdjacencyVector:
    """Element-wise clamp(a + p) into {0,1} for a discrete perturbation p.

    p must take values in {-1, 0, +1} with p[owner] == 0.
    """
    p = np.asarray(p)
    if p.shape != a.bits.shape:
        raise ValueError("perturbation length does not match adjacency vector")
    if p[a.owner] != 0:
        raise ValueError("perturbation must leave the owner position untouched")
    if not ((p == 0) | (p == 1) | (p == -1)).all():
        raise ValueError("perturbation entries must be in {-1, 0, +1}")
    bits = np.clip(a.bits + p.astype(np.int64), 0, 1).astype(np.int8)
    return AdjacencyVector(a.owner, bits)


def delta_between(a: AdjacencyVector, b: AdjacencyVector) -> EdgeDelta:
    """Edge delta turning adjacency vector `a` into `b` (same owner)."""
    if a.owner != b.owner:
        raise ValueError("adjacency vectors have different owners")
    return EdgeDelta(a.owner, frozenset(np.flatnonzero(a.bits != b.bits).tolist()))


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
    order: list[str] = []
    pairs: set[tuple[str, str]] = set()
    edge_list: list[tuple[str, str]] = []
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
        for lab in (a, b):
            if lab not in ids:
                ids[lab] = len(ids)
                order.append(lab)
        if a == b:
            stats.self_loops_dropped += 1
            continue
        key = (a, b) if ids[a] < ids[b] else (b, a)
        if key in pairs:
            stats.duplicate_lines += 1
            continue
        pairs.add(key)
        edge_list.append(key)
    if not edge_list:
        raise EdgeListParseError("edge list contains no edges")
    stats.edges = len(edge_list)
    return Graph(edge_list, node_labels=order), stats


def load_edge_list(source: Union[IO, str, bytes]) -> Graph:
    graph, _ = load_edge_list_with_stats(source)
    return graph


def dump_edge_list(g: GraphLike, sink: IO[str]) -> None:
    """Deterministic serialisation: min label first per edge, sorted lines."""
    lines = []
    for u, v in g.edges():
        a, b = g.label_of(u), g.label_of(v)
        if b < a:
            a, b = b, a
        lines.append(f"{a} {b}\n")
    sink.writelines(sorted(lines))

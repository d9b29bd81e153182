"""Node importance scores and the target vector steering the optimiser.

Four structural properties (betweenness, degree, intra- and inter-community
degree) are rank-normalised into [0, 1] and mixed with convex weights. The
combined score decides which candidate edge flips look promising: drop ties
to important nodes inside the target's community, add ties to important
nodes outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors import Partition
from .errors import ConfigError
from .graph import Graph

PROPERTY_NAMES = ("betweenness", "degree", "intra_degree", "inter_degree")

DEFAULT_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


# Sources per betweenness pass. A pass holds O(_BLOCK * m) temporaries, one
# entry per (source, arc) pair, and pays a fixed numpy overhead per
# breadth-first level that larger blocks share among more sources. On
# graphs of 120 to 600 nodes 8 sources are 10-25% slower than 16. 64
# sources took 9.1 ms against 10.5 on an LFR-style n=300 graph, tied at
# 41 ms on an n=600 SBM and lost on an n=1000 LFR graph, 137 ms against
# 109, each time with 3.8 times the memory peak.
_BLOCK = 16


def _expand(front: np.ndarray, node: np.ndarray, indptr: np.ndarray, offset: np.ndarray):
    """Arcs leaving the flat (source, node) ids `front` of nodes `node`: tails, heads."""
    start = indptr[node]
    deg = indptr[node + 1] - start
    head = np.repeat(start - np.cumsum(deg) + deg, deg)
    head += np.arange(head.size)  # arc ids
    head = offset[head]
    tail = np.repeat(front, deg)
    head += tail
    return tail, head


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness, unnormalised, each node pair counted once.

    Brandes' accumulation, run for a block of sources at a time with
    level-synchronous frontiers. State lives in (block, n) arrays addressed
    by flat ids source * n + node, so an arc leads from flat id t to
    t + offset, where the arc's offset is its head node minus its tail node.
    Each level finds the arcs from the frontier to unseen nodes in one of
    two directions (Beamer, Asanovic & Patterson 2012): a push level
    expands the frontier's arcs, a pull level the arcs of the unseen nodes
    and keeps those whose other end is in the frontier. Pull levels run
    when the unseen nodes have fewer arcs than the frontier. A stable sort
    by parent rank then lists pull arcs exactly as push would: by parent in
    frontier order, children in id order.

    Each frontier is kept in breadth-first discovery order and the
    dependencies flow back from it in reverse, so every sum is taken in the
    order of the one-source-at-a-time queue-and-stack version and the
    result equals it bit for bit: nodes with tied scores keep their rank
    order. Ranks are held in `np.min_scalar_type(block * n)`, the sort key
    itself, and numpy sorts keys of 16 bits or fewer stably by radix.
    """
    n = g.n
    indptr, indices = g.csr()
    degree = np.diff(indptr)
    offset = indices - np.repeat(np.arange(n), degree)
    bc = np.zeros(n)
    for first in range(0, n, _BLOCK):
        block = min(_BLOCK, n - first)
        size = block * n
        key = np.min_scalar_type(size)
        node = np.arange(first, first + block)
        front = np.arange(block) * n + node  # flat ids of the sources
        sigma = np.zeros(size)
        sigma[front] = 1.0
        seen = sigma > 0.0
        rank = np.zeros(size, dtype=key)  # position in its frontier
        first_parent = np.full(size, size, dtype=key)  # rank of the first parent to reach a node
        unseen_arcs = block * int(indptr[-1])  # arcs of the nodes not yet reached
        dag = []  # per level: arcs into it, heads found last come first
        while True:
            front_arcs = int(degree[node].sum())
            unseen_arcs -= front_arcs
            pull = front_arcs > unseen_arcs
            if pull:  # an unseen node's seen neighbours are all in the frontier
                unseen = np.flatnonzero(~seen)
                head, tail = _expand(unseen, unseen % n, indptr, offset)
                keep = np.flatnonzero(seen[tail])
            else:
                tail, head = _expand(front, node, indptr, offset)
                keep = np.flatnonzero(~seen[head])
            if not keep.size:
                break
            # one take at a time, and the pull sort after them, so that each
            # expanded array is freed before the next copy is made
            tail = tail[keep]
            head = head[keep]
            if pull:
                keep = np.argsort(rank[tail], kind="stable")
                tail = tail[keep]
                head = head[keep]
            sigma += np.bincount(head, weights=sigma[tail], minlength=size)
            # arcs run in frontier order, so the arcs from each head's first
            # parent list the new heads in discovery order
            tail_rank = rank[tail]
            np.minimum.at(first_parent, head, tail_rank)
            front = head[tail_rank == first_parent[head]]
            node = front % n
            seen[front] = True
            rank[front] = np.arange(front.size)
            # sort ties are arcs into one head; their order changes no sum
            back = np.argsort(front.size - 1 - rank[head], kind="stable")
            dag.append((tail[back], head[back]))
            # free this level's arrays before the next one allocates its own
            del tail, head, keep, tail_rank, back
        delta = np.zeros(size)
        for tail, head in reversed(dag[1:]):
            coeff = sigma[tail] * ((1.0 + delta[head]) / sigma[head])
            delta += np.bincount(tail, weights=coeff, minlength=size)
        for row in delta.reshape(block, n):
            bc += row
    return bc / 2.0


def pagerank(
    g: Graph, damping: float = 0.85, tol: float = 1e-10, max_iter: int = 5000
) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport; sums to 1."""
    n = g.n
    if n == 0:
        return np.zeros(0)
    indptr, indices = g.csr()
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    dangling = deg == 0
    nonzero = ~dangling
    inv_deg = np.zeros(n)
    inv_deg[nonzero] = 1.0 / deg[nonzero]
    for _ in range(max_iter):
        share = x * inv_deg
        nxt = np.full(n, base + damping * x[dangling].sum() / n)
        nxt += damping * np.bincount(rows, weights=share[indices], minlength=n)
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise ArithmeticError(f"pagerank failed to converge within {max_iter} iterations")


def community_degrees(g: Graph, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (intra, inter) degree split relative to a partition."""
    n = g.n
    indptr, indices = g.csr()
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    label = partition.membership(n)
    intra = np.bincount(rows[label[rows] == label[indices]], minlength=n)
    return intra, deg - intra


def rank_scores(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ascending by value, equal values ordered by node id."""
    values = np.asarray(values, dtype=float)
    order = np.lexsort((np.arange(values.size), values))
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def check_weights(weights) -> tuple[float, ...]:
    """The property weights as floats: 4 finite, non-negative numbers summing to 1.

    Pure Python, since HidingConfig runs it on every construction.
    """
    try:
        w = tuple(map(float, weights))
    except (TypeError, ValueError):
        raise ConfigError(f"property weights must be numbers, got {weights!r}") from None
    if len(w) != len(PROPERTY_NAMES):
        raise ConfigError(f"expected {len(PROPERTY_NAMES)} property weights, got {len(w)}")
    if not all(map(math.isfinite, w)):
        raise ConfigError("property weights must be finite")
    if min(w) < 0:
        raise ConfigError("property weights must be non-negative")
    total = math.fsum(w)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"property weights must sum to 1, got {total:g}")
    return w


@dataclass(frozen=True)
class StructuralScores:
    """The weighted combination of the rank-normalised property scores.

    `raw` keeps the unnormalised property values the ranks were taken from.
    """

    combined: np.ndarray
    raw: dict[str, np.ndarray]


def structural_scores(
    g: Graph, partition: Partition, weights=DEFAULT_WEIGHTS
) -> StructuralScores:
    """Combine the four structural properties into one score per node."""
    w = check_weights(weights)
    intra, inter = community_degrees(g, partition)
    raw = {
        "betweenness": betweenness(g),
        "degree": (intra + inter).astype(float),
        "intra_degree": intra.astype(float),
        "inter_degree": inter.astype(float),
    }
    n = g.n
    combined = np.zeros(n)
    for i, name in enumerate(PROPERTY_NAMES):
        if n > 1:
            combined += w[i] * ((rank_scores(raw[name]) - 1) / (n - 1))
    return StructuralScores(combined=combined, raw=raw)


def promising_actions(u: int, partition: Partition, scores: StructuralScores) -> np.ndarray:
    """Target connectivity vector for node u in [0, 1]^n.

    Inside u's community the entry falls with node importance (prefer
    dropping heavy members); outside it rises with importance (prefer
    linking to heavy outsiders).
    """
    s = scores.combined
    members = partition.community_members(u)
    tgt = (1.0 + s) / 2.0
    idx = list(members)
    tgt[idx] = (1.0 - s[idx]) / 2.0
    tgt[u] = 0.5
    return tgt

"""Node importance scores and the target vector steering the optimiser.

Four structural properties (betweenness, degree, intra- and inter-community
degree) are rank-normalised into [0, 1] and mixed with convex weights. The
combined score decides which candidate edge flips look promising: drop ties
to important nodes inside the target's community, add ties to important
nodes outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .detectors import Partition
from .errors import ConfigError
from .graph import Graph

PROPERTY_NAMES = ("betweenness", "degree", "intra_degree", "inter_degree")

DEFAULT_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


# Sources per betweenness pass. A pass holds O(_BLOCK * m) temporaries, one
# entry per (source, arc) pair. On an n=300, m=1500 graph blocks of 8 to 32
# sources take about the same time and 4 is about a fifth slower, so the
# smallest block that keeps the speed holds the memory peak down.
_BLOCK = 8


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Compressed sparse rows of g: neighbours of v are indices[indptr[v]:indptr[v + 1]]."""
    rows = [g.neighbors(v) for v in range(g.n)]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _expand(front: np.ndarray, n: int, indptr: np.ndarray, indices: np.ndarray):
    """Arcs leaving the flat (source, node) ids in `front`: their tails and heads."""
    v = front % n
    start = indptr[v]
    deg = indptr[v + 1] - start
    head = np.repeat(start - np.cumsum(deg) + deg, deg)
    head += np.arange(head.size)  # arc ids
    head = indices[head]
    head += np.repeat(front - v, deg)
    return np.repeat(front, deg), head


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness, unnormalised, each node pair counted once.

    Brandes' accumulation, run for a block of sources at a time with
    level-synchronous frontiers. State lives in (block, n) arrays addressed
    by flat ids source * n + node. Each frontier is kept in breadth-first
    discovery order and the dependencies flow back from it in reverse, so
    every sum is taken in the order of the one-source-at-a-time
    queue-and-stack version and the result equals it bit for bit: nodes
    with tied scores keep their rank order.
    """
    n = g.n
    indptr, indices = _csr(g)
    bc = np.zeros(n)
    for first in range(0, n, _BLOCK):
        block = min(_BLOCK, n - first)
        size = block * n
        front = np.arange(block) * (n + 1) + first  # flat ids of the sources
        sigma = np.zeros(size)
        sigma[front] = 1.0
        seen = sigma > 0.0
        rank = np.zeros(size, dtype=np.int64)  # position in its frontier
        first_parent = np.full(size, size)  # rank of the first parent to reach a node
        dag = []  # per level: arcs into it, heads found last come first
        while True:
            tail, head = _expand(front, n, indptr, indices)
            new = ~seen[head]
            tail, head = tail[new], head[new]
            if not head.size:
                break
            sigma += np.bincount(head, weights=sigma[tail], minlength=size)
            # arcs run in frontier order, so the arcs from each head's first
            # parent list the new heads in discovery order
            tail_rank = rank[tail]
            np.minimum.at(first_parent, head, tail_rank)
            front = head[tail_rank == first_parent[head]]
            seen[front] = True
            rank[front] = np.arange(front.size)
            # sort ties are arcs into one head; their order changes no sum
            back = np.argsort(-rank[head])
            dag.append((tail[back], head[back]))
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
    indptr, indices = _csr(g)
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
    indptr, indices = _csr(g)
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    label = np.fromiter(map(partition.community_of, range(n)), dtype=np.int64, count=n)
    intra = np.bincount(rows[label[rows] == label[indices]], minlength=n)
    return intra, deg - intra


def rank_scores(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ascending by value, equal values ordered by node id."""
    values = np.asarray(values, dtype=float)
    order = np.lexsort((np.arange(values.size), values))
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(PROPERTY_NAMES),):
        raise ConfigError(f"expected {len(PROPERTY_NAMES)} property weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ConfigError("property weights must be finite")
    if (w < 0).any():
        raise ConfigError("property weights must be non-negative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigError(f"property weights must sum to 1, got {float(w.sum()):g}")
    return w


@dataclass(frozen=True)
class StructuralScores:
    """Rank-normalised property scores and their weighted combination.

    `raw` keeps the unnormalised property values the ranks were taken from.
    """

    properties: dict[str, np.ndarray]
    weights: np.ndarray
    combined: np.ndarray
    raw: dict[str, np.ndarray]


def structural_scores(
    g: Graph, partition: Partition, weights=DEFAULT_WEIGHTS
) -> StructuralScores:
    """Combine the four structural properties into one score per node."""
    w = _check_weights(weights)
    intra, inter = community_degrees(g, partition)
    raw = {
        "betweenness": betweenness(g),
        "degree": (intra + inter).astype(float),
        "intra_degree": intra.astype(float),
        "inter_degree": inter.astype(float),
    }
    n = g.n
    combined = np.zeros(n)
    normalised: dict[str, np.ndarray] = {}
    for i, name in enumerate(PROPERTY_NAMES):
        if n > 1:
            score = (rank_scores(raw[name]) - 1) / (n - 1)
        else:
            score = np.zeros(n)
        normalised[name] = score
        combined += w[i] * score
    return StructuralScores(properties=normalised, weights=w, combined=combined, raw=raw)


def promising_actions(
    g: Graph,
    u: int,
    partition: Partition,
    scores: StructuralScores | None = None,
    weights=DEFAULT_WEIGHTS,
    complement: bool = False,
) -> np.ndarray:
    """Target connectivity vector for node u in [0, 1]^n.

    Inside u's community the entry falls with node importance (prefer
    dropping heavy members); outside it rises with importance (prefer
    linking to heavy outsiders). `complement=True` ignores importance and
    targets the plain bitwise complement of u's row instead.
    """
    if complement:
        bits = g.row(u)
        tgt = 1.0 - bits.astype(float)
        tgt[u] = 0.5
        return tgt
    if scores is None:
        scores = structural_scores(g, partition, weights)
    s = scores.combined
    members = partition.community_members(u)
    tgt = (1.0 + s) / 2.0
    idx = list(members)
    tgt[idx] = (1.0 - s[idx]) / 2.0
    tgt[u] = 0.5
    return tgt

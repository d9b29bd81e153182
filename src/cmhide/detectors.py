"""Community detection: greedy modularity, Louvain and label propagation.

All detectors are deterministic given their spec (name and seed).
Partitions are canonical: communities ordered by their smallest member, so
two equal partitions compare equal structurally.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .graph import Graph
from .schema import check_types

DETECTOR_NAMES = ("greedy", "louvain", "label_propagation")

_EPS_GAIN = 1e-12
_LPA_MAX_SWEEPS = 100  # label propagation stops here if labels still change


@dataclass(frozen=True)
class DetectorSpec:
    """Identifies a detector run: algorithm name and seed."""

    name: str
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if self.name not in DETECTOR_NAMES:
            raise ConfigError(
                f"unknown detector {self.name!r}; available: {', '.join(DETECTOR_NAMES)}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Partition:
    """Disjoint node communities covering the graph, in canonical order."""

    communities: tuple[frozenset[int], ...]
    _index: dict[int, int] = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_communities(communities: Iterable[Iterable[int]]) -> "Partition":
        comms = tuple(
            sorted((frozenset(c) for c in communities if c), key=min)
        )
        seen: set[int] = set()
        for c in comms:
            if c & seen:
                raise ValueError("communities overlap")
            seen |= c
        return Partition(comms)

    def __post_init__(self):
        index = {v: i for i, c in enumerate(self.communities) for v in c}
        object.__setattr__(self, "_index", index)

    @property
    def k(self) -> int:
        return len(self.communities)

    def community_of(self, v: int) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"node {v} not covered by partition") from None

    def community_members(self, v: int) -> frozenset[int]:
        return self.communities[self.community_of(v)]

    def membership(self, n: int) -> np.ndarray:
        """The community index of each node 0..n-1, which must be the nodes covered."""
        out = np.empty(n, dtype=np.int64)
        out[np.fromiter(self._index, np.int64, n)] = np.fromiter(self._index.values(), np.int64, n)
        return out


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
            dsum += g.degree(v)
            for w in g.neighbors(v):
                if w in comm and w > v:
                    intra += 1
        q += intra / m - (dsum / (2.0 * m)) ** 2
    return q


def _greedy(g: Graph) -> Partition:
    """Clauset-Newman-Moore agglomeration: merge the best pair while its gain is > 0.

    Each heap key is an upper bound on its pair's current gain, and every
    pair with a positive gain has a key. Merging b into a raises a gain
    only for b's neighbours, so only those pairs are pushed; for the other
    neighbours of a the old key bounds the lowered gain. A popped key above
    its pair's gain is pushed back at that gain if it is positive, so the
    first key popped that equals its gain is the best pair (ties to the
    smallest ids) and an exhausted heap means no merge gains.
    """
    n, m = g.n, g.m
    if m == 0:
        return Partition.from_communities([{v} for v in range(n)])
    mm = 2.0 * m * m
    # per community id; None once merged away
    cross: list[dict[int, int] | None] = [dict.fromkeys(g.neighbors(v), 1) for v in range(n)]
    dsum = [len(nbrs) for nbrs in cross]
    members: list[set[int] | None] = [{v} for v in range(n)]
    heap: list[tuple[float, int, int]] = []
    for a, nbrs in enumerate(cross):
        for b in nbrs:
            if a < b:
                dq = 1 / m - dsum[a] * dsum[b] / mm
                if dq > 0:
                    heap.append((-dq, a, b))
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        neg_dq, a, b = heappop(heap)
        ca, cb = cross[a], cross[b]
        if ca is None or cb is None:
            continue  # stale: one side already merged away
        dq = ca[b] / m - dsum[a] * dsum[b] / mm
        if -neg_dq != dq:
            if dq > 0:
                heappush(heap, (-dq, a, b))  # the gain fell since the push
            continue
        members[a] |= members[b]
        members[b] = cross[b] = None
        da = dsum[a] = dsum[a] + dsum[b]
        for c, w in cb.items():
            if c != a:
                cc = cross[c]
                del cc[b]
                x = ca[c] = cc[a] = ca.get(c, 0) + w
                dq = x / m - da * dsum[c] / mm
                if dq > 0:
                    heappush(heap, (-dq, a, c) if a < c else (-dq, c, a))
        del ca[b]
    return Partition.from_communities(c for c in members if c is not None)


def _louvain(g: Graph, seed: int) -> Partition:
    """Seeded Louvain on the unweighted graph, aggregating levels until stable."""
    rng = np.random.default_rng(seed)
    # level state: weighted adjacency, self-loop weights, node -> original members
    adj: list[dict[int, float]] = [
        {w: 1.0 for w in g.neighbors(v)} for v in range(g.n)
    ]
    loops: list[float] = [0.0] * g.n
    carry: list[frozenset[int]] = [frozenset((v,)) for v in range(g.n)]
    m2 = float(sum(len(a) for a in adj))  # twice the edge weight
    if m2 == 0:
        return Partition.from_communities([set(c) for c in carry])

    while True:
        n = len(adj)
        k = [sum(adj[v].values()) + 2.0 * loops[v] for v in range(n)]
        node2com = list(range(n))
        sigma_tot = k[:]
        moved_any = False
        for _ in range(1000):
            moved = False
            for v in rng.permutation(n):
                v = int(v)
                c_old = node2com[v]
                links: dict[int, float] = {c_old: 0.0}
                for u, w in adj[v].items():
                    cu = node2com[u]
                    links[cu] = links.get(cu, 0.0) + w
                sigma_tot[c_old] -= k[v]
                best_c, best_gain = c_old, links[c_old] - sigma_tot[c_old] * k[v] / m2
                for c in sorted(links):
                    if c == c_old:
                        continue
                    cand = links[c] - sigma_tot[c] * k[v] / m2
                    if cand > best_gain + _EPS_GAIN:
                        best_c, best_gain = c, cand
                sigma_tot[best_c] += k[v]
                if best_c != c_old:
                    node2com[v] = best_c
                    moved = True
                    moved_any = True
            if not moved:
                break
        if not moved_any:
            return Partition.from_communities([set(c) for c in carry])
        # aggregate: new node per community, ordered by smallest original member
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(node2com):
            groups.setdefault(c, []).append(v)
        ordered = sorted(groups.values(), key=lambda vs: min(min(carry[v]) for v in vs))
        com_of = {}
        for i, vs in enumerate(ordered):
            for v in vs:
                com_of[v] = i
        new_n = len(ordered)
        new_adj: list[dict[int, float]] = [dict() for _ in range(new_n)]
        new_loops = [0.0] * new_n
        new_carry: list[frozenset[int]] = [frozenset()] * new_n
        for i, vs in enumerate(ordered):
            acc: frozenset[int] = frozenset()
            for v in vs:
                acc |= carry[v]
                new_loops[i] += loops[v]
                for u, w in adj[v].items():
                    j = com_of[u]
                    if j == i:
                        if u > v:
                            new_loops[i] += w
                    else:
                        new_adj[i][j] = new_adj[i].get(j, 0.0) + w
            new_carry[i] = acc
        if new_n == n:
            return Partition.from_communities([set(c) for c in new_carry])
        adj, loops, carry = new_adj, new_loops, new_carry


def _label_propagation(g: Graph, seed: int) -> Partition:
    """Asynchronous label propagation with seeded sweep order.

    A node keeps its own label while it ties for the most frequent among its
    neighbours; otherwise it takes one of the most frequent labels, drawn
    uniformly from them in ascending order (Raghavan, Albert & Kumara 2007).
    The seed draws both the sweep orders and the ties.
    """
    rng = np.random.default_rng(seed)
    labels = list(range(g.n))
    for _ in range(_LPA_MAX_SWEEPS):
        changed = False
        for v in rng.permutation(g.n):
            v = int(v)
            nbrs = g.neighbors(v)
            if not nbrs:
                continue
            counts: dict[int, int] = {}
            for u in nbrs:
                counts[labels[u]] = counts.get(labels[u], 0) + 1
            top = max(counts.values())
            if counts.get(labels[v]) == top:
                continue
            tied = sorted(lab for lab, c in counts.items() if c == top)
            labels[v] = tied[int(rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
            changed = True
        if not changed:
            break
    groups: dict[int, set[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(v)
    return Partition.from_communities(groups.values())


def detect(g: Graph, spec: DetectorSpec) -> Partition:
    """Run the detector named by the spec on the graph."""
    if spec.name == "greedy":
        return _greedy(g)
    if spec.name == "louvain":
        return _louvain(g, spec.seed)
    return _label_propagation(g, spec.seed)

"""Heuristic rewiring baselines the gradient attack is compared against.

Every baseline spends the same flip budget (stopping early only when it
runs out of candidates) and is scored by the same similarity criterion as
the optimiser. Ranked choices break ties by the smaller node id, so the
degree, centrality, dice and roam baselines are fully deterministic.

A baseline is a plan: given the graph, the target, its community, the
budget, a seed and the graph's structural scores (or None), it returns the
row deltas to apply. `run_baseline` applies them and scores the result.
"""

from __future__ import annotations

import time

import numpy as np

from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError
from .gradient import HidingConfig, HidingOutcome, _prepare_target, dice_similarity, resolve_seed
from .graph import EdgeDelta, Graph, apply_delta
from .scoring import StructuralScores, betweenness


def _dice(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Disconnect internally once, connect externally with the rest.

    Drops the edge to the highest-degree neighbour inside the target's
    community, then adds edges to the highest-degree outside non-neighbours
    until the budget is spent. Without an internal neighbour the whole
    budget goes to additions.
    """
    intra = [v for v in g.neighbors(u) if v in members]
    toggles: set[int] = set()
    if intra:
        toggles.add(min(intra, key=lambda v: (-g.degree(v), v)))
    outside = sorted(
        (v for v in range(g.n) if v != u and v not in members and not g.has_edge(u, v)),
        key=lambda v: (-g.degree(v), v),
    )
    toggles.update(outside[: beta - len(toggles)])
    return (EdgeDelta(u, frozenset(toggles)),)


def _roam(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Detach the strongest neighbour and rewire it to the target's others.

    Removes the edge to the highest-degree neighbour v0, then adds up to
    budget-1 edges from v0 to the highest-degree other neighbours of the
    target not yet adjacent to v0. The additions land on v0's row.
    """
    nbrs = g.neighbors(u)
    if not nbrs:
        return (EdgeDelta(u),)
    v0 = min(nbrs, key=lambda v: (-g.degree(v), v))
    additions = sorted(
        (w for w in nbrs if w != v0 and not g.has_edge(v0, w)),
        key=lambda w: (-g.degree(w), w),
    )[: beta - 1]
    removal = EdgeDelta(u, frozenset((v0,)))
    return (removal, EdgeDelta(v0, frozenset(additions))) if additions else (removal,)


def _random(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Toggle the edge to a uniformly drawn node, budget times.

    Draws are independent, so a node drawn twice is toggled back and the
    net change can be smaller than the budget. Draw i among the n - 1
    other nodes is node i, or i + 1 from u on.
    """
    draws = np.random.default_rng(seed).integers(g.n - 1, size=beta)
    nodes, counts = np.unique(draws + (draws >= u), return_counts=True)
    return (EdgeDelta(u, frozenset(nodes[counts % 2 == 1].tolist())),)


def _top_ranked(values: np.ndarray, u: int, beta: int) -> tuple[EdgeDelta, ...]:
    """Toggle the edges to the beta nodes other than u with the largest values."""
    order = np.lexsort((np.arange(values.size), -values))  # ties to the smaller id
    return (EdgeDelta(u, frozenset(order[order != u][:beta].tolist())),)


def _degree(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Toggle the edges to the highest-degree nodes of the input graph.

    Toggling (u, v) changes only the degrees of u and v, and neither can be
    picked again, so re-ranking after every toggle would pick the same nodes.
    """
    degrees = np.fromiter(map(g.degree, range(g.n)), dtype=np.int64, count=g.n)
    return _top_ranked(degrees, u, beta)


def _centrality(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Toggle edges to the top betweenness-centrality nodes.

    Centrality is taken on the original graph, from `scores` when given;
    recomputing it per toggle would cost another full all-pairs pass per step.
    """
    bc = betweenness(g) if scores is None else scores.raw["betweenness"]
    return _top_ranked(bc, u, beta)


_PLANS = {
    "dice": _dice,
    "roam": _roam,
    "random": _random,
    "degree": _degree,
    "centrality": _centrality,
}
BASELINE_NAMES = tuple(_PLANS)


def run_baseline(
    name: str,
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int | None = None,
    partition: Partition | None = None,
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Apply the named baseline's rewiring to node u and score it.

    `seed`, config.seed when None, drives `random`. `scores`, the
    structural scores of g, spare `centrality` its own betweenness pass.
    """
    try:
        plan = _PLANS[name]
    except KeyError:
        raise ConfigError(
            f"unknown baseline {name!r}; available: {', '.join(BASELINE_NAMES)}"
        ) from None
    t_start = time.perf_counter()
    seed = resolve_seed(seed, config)
    partition, reference, detections = _prepare_target(g, u, detector, partition)
    deltas = plan(g, u, partition.community_members(u), config.beta, seed, scores)
    g2 = g
    used = 0
    for d in deltas:
        used += d.size
        if d.size:
            g2 = apply_delta(g2, d)
    if used:
        part2 = detect(g2, detector)
        detections += 1
        sim = dice_similarity(reference, part2.community_members(u) - {u})
    else:
        part2 = partition
        sim = 1.0
    return HidingOutcome(
        target=u,
        success=sim <= config.tau and used <= config.beta,
        similarity=sim,
        deltas=deltas,
        used_budget=used,
        graph=g2,
        partition=part2,
        detections=detections,
        wall_seconds=time.perf_counter() - t_start,
    )

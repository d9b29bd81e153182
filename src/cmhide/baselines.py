"""Heuristic rewiring baselines the gradient attack is compared against.

Every baseline spends the same flip budget (stopping early only when it
runs out of candidates) and is scored by the same similarity criterion as
the optimiser. Ranked choices break ties by the smaller node id, so the
degree, centrality, dice and roam baselines are fully deterministic.

A baseline is a plan: given the graph, the target, its community, the
budget and a seed, it returns the row deltas to apply. `run_baseline`
applies them and scores the result.
"""

from __future__ import annotations

import time

import numpy as np

from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError
from .gradient import HidingConfig, HidingOutcome, _prepare_target, dice_similarity
from .graph import EdgeDelta, Graph, apply_delta
from .scoring import betweenness


def _dice(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int
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
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int
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
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int
) -> tuple[EdgeDelta, ...]:
    """Toggle the edge to a uniformly drawn node, budget times.

    Draws are independent, so a node drawn twice is toggled back and the
    net change can be smaller than the budget.
    """
    rng = np.random.default_rng(seed)
    candidates = np.array([v for v in range(g.n) if v != u])
    toggles: set[int] = set()
    if candidates.size:
        for idx in rng.integers(candidates.size, size=beta):
            toggles.symmetric_difference_update((int(candidates[idx]),))
    return (EdgeDelta(u, frozenset(toggles)),)


def _degree(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int
) -> tuple[EdgeDelta, ...]:
    """Toggle the edge to the currently highest-degree node, budget times.

    Degrees are recomputed on the perturbed graph after every toggle; each
    node is toggled at most once per run.
    """
    view = g
    toggles: set[int] = set()
    for _ in range(beta):
        remaining = [v for v in range(g.n) if v != u and v not in toggles]
        if not remaining:
            break
        v = min(remaining, key=lambda x: (-view.degree(x), x))
        toggles.add(v)
        view = apply_delta(view, EdgeDelta(u, frozenset((v,))))
    return (EdgeDelta(u, frozenset(toggles)),)


def _centrality(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int
) -> tuple[EdgeDelta, ...]:
    """Toggle edges to the top betweenness-centrality nodes.

    Centrality is computed once on the original graph; recomputing it per
    toggle would cost another full all-pairs pass per step.
    """
    bc = betweenness(g)
    ranked = sorted((v for v in range(g.n) if v != u), key=lambda v: (-bc[v], v))
    return (EdgeDelta(u, frozenset(ranked[:beta])),)


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
    seed: int = 0,
    partition: Partition | None = None,
) -> HidingOutcome:
    """Apply the named baseline's rewiring to node u and score it."""
    try:
        plan = _PLANS[name]
    except KeyError:
        raise ConfigError(
            f"unknown baseline {name!r}; available: {', '.join(BASELINE_NAMES)}"
        ) from None
    t_start = time.perf_counter()
    partition, reference, detections = _prepare_target(g, u, detector, partition)
    deltas = plan(g, u, partition.community_members(u), config.beta, seed)
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

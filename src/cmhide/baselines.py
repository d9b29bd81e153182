"""Heuristic rewiring baselines the gradient attack is compared against.

Every baseline spends the same flip budget (stopping early only when it
runs out of candidates) and is scored by the same similarity criterion as
the optimiser. Every ranked choice is made by `scoring.top_ranked`, ties to
the smaller node id, so the degree, centrality, dice and roam baselines are
fully deterministic.

A baseline is a plan: given the graph, the target, its community, the
budget, a seed and the graph's structural scores (or None), it returns the
row deltas to apply. `run_baseline` proposes them to the attack loop as one row.
"""

from __future__ import annotations

import numpy as np

from .detectors import DetectorSpec, Partition, detect  # detect: perfbench reads it here
from .errors import ConfigError
from .gradient import HidingConfig, HidingOutcome, _drive
from .graph import EdgeDelta, Graph
from .scoring import StructuralScores, betweenness, top_ranked


def _degrees_and_neighbours(g: Graph, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Every node's degree and u's sorted neighbours, read off the cached CSR."""
    indptr, indices = g.csr()  # np.diff would cost several times this slicing on small graphs
    return indptr[1:] - indptr[:-1], indices[indptr[u]:indptr[u + 1]]


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
    degrees, nbrs = _degrees_and_neighbours(g, u)
    skip = np.zeros(g.n, dtype=bool)  # u's community (u included), then its neighbours too
    skip[list(members)] = True
    drop = top_ranked(degrees, nbrs[skip[nbrs]], 1)
    skip[nbrs] = True
    adds = top_ranked(degrees, np.nonzero(~skip)[0], beta - len(drop))
    return (EdgeDelta(u, frozenset(drop + adds)),)


def _roam(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Detach the strongest neighbour and rewire it to the target's others.

    Removes the edge to the highest-degree neighbour v0, then adds up to
    budget-1 edges from v0 to the highest-degree other neighbours of the
    target not yet adjacent to v0. The additions land on v0's row.
    """
    degrees, nbrs = _degrees_and_neighbours(g, u)
    if not nbrs.size:
        return (EdgeDelta(u),)
    v0, *rest = top_ranked(degrees, nbrs, nbrs.size)
    linked = g.neighbors(v0)
    additions = [w for w in rest if w not in linked][: beta - 1]
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


def _degree(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Toggle the edges to the highest-degree nodes of the input graph.

    Toggling (u, v) changes only the degrees of u and v, and neither can be
    picked again, so re-ranking after every toggle would pick the same nodes.
    """
    degrees, _ = _degrees_and_neighbours(g, u)
    others = np.nonzero(np.arange(g.n) != u)[0]
    return (EdgeDelta(u, frozenset(top_ranked(degrees, others, beta))),)


def _centrality(
    g: Graph, u: int, members: frozenset[int], beta: int, seed: int,
    scores: StructuralScores | None,
) -> tuple[EdgeDelta, ...]:
    """Toggle edges to the top betweenness-centrality nodes.

    Centrality is taken on the original graph, from `scores` when given;
    recomputing it per toggle would cost another full all-pairs pass per step.
    """
    bc = betweenness(g) if scores is None else scores.betweenness
    others = np.nonzero(np.arange(g.n) != u)[0]
    return (EdgeDelta(u, frozenset(top_ranked(bc, others, beta))),)


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
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Propose the named baseline's plan for node u to the attack loop as its one row.

    The rewired graph is detected once, unless the plan toggles nothing,
    and the loop keeps the plan whatever it scores. A plan gets at most
    the n - 1 flips of a row as its budget, so `random` draws no more than
    that. `seed` drives `random`. `scores`, the structural scores of g,
    spare `centrality` its own betweenness pass.
    """
    try:
        plan = _PLANS[name]
    except KeyError:
        raise ConfigError(
            f"unknown baseline {name!r}; available: {', '.join(BASELINE_NAMES)}"
        ) from None
    return _drive(g, u, detector, config, seed, partition, scores, lambda score: [
        (plan(g, u, score.reference | {u}, min(config.beta, g.n - 1), seed, scores), False)
    ])

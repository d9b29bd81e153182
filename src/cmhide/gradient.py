"""Gradient-driven search for a small edge rewiring that hides a node.

The perturbation of the target's adjacency row is relaxed to a continuous
vector p_hat = tanh(theta). Adam steps the unconstrained theta against a
smooth loss that pulls the row toward the promising-actions target while
penalising large changes; p_hat is discretised back to edge flips after
every step. With exhaust_budget set, a projection step then keeps applying
the most promising flips until the whole budget is spent.

The settings a caller tunes live in HidingConfig; the rest are fixed below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError, SingletonCommunityError
from .graph import EdgeDelta, Graph, apply_delta, clamp_add, delta_between
from .schema import check_types, fits
from .scoring import (
    DEFAULT_WEIGHTS, StructuralScores, check_weights, promising_actions, structural_scores,
    top_ranked,
)

FLIP = 0.5  # a relaxed entry at or beyond +-FLIP flips its edge
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba (2015)
GAMMA = 0.9  # decay of the gradient average the projection slides along
NORM_EPS = 1e-12  # floor of a norm divided by in the loss gradient


@dataclass(frozen=True)
class HidingConfig:
    """The settings of one hiding search.

    tau is the similarity threshold under which the node counts as hidden,
    beta the maximum number of edge flips on the target's row. eta is the
    Adam step rate, lam the weight of the size penalty, max_iter the
    iteration limit and weights the four property weights of the target
    vector, kept as given: they are relative, and `structural_scores`
    scales them. exhaust_budget ends the search with project_to_budget.
    """

    tau: float = 0.5
    beta: int = 1
    eta: float = 0.01
    lam: float = 0.1
    max_iter: int = 100
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    exhaust_budget: bool = False

    def __post_init__(self):
        check_types(self)
        check_weights(self.weights)
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError("tau must lie in [0, 1)")
        if self.beta < 1:
            raise ConfigError("beta must be at least 1")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")


@dataclass(frozen=True)
class HidingOutcome:
    """Result of one hiding attempt on one target node."""

    target: int
    success: bool
    similarity: float
    deltas: tuple[EdgeDelta, ...]
    used_budget: int
    graph: Graph
    partition: Partition
    iterations: int = 0
    detections: int = 0
    restarts: int = 0
    wall_seconds: float = field(default=0.0, compare=False)

    @property
    def delta(self) -> EdgeDelta:
        if len(self.deltas) != 1:
            raise ValueError("outcome rewires more than one row")
        return self.deltas[0]


def dice_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """Soerensen-Dice overlap of two node sets; defined as 0 when both are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def community_similarity(reference: frozenset[int], partition: Partition, u: int) -> float:
    """dice_similarity(reference, partition.community_members(u) - {u}), from the labels alone."""
    labels = partition.labels
    c = labels[u]
    size = labels.count(c) - 1
    if not reference and not size:
        return 0.0
    return 2.0 * sum(labels[v] == c for v in reference) / (len(reference) + size)


def threshold(p_hat: np.ndarray) -> np.ndarray:
    """Discretise a relaxed perturbation to {-1, 0, +1} (thresholds inclusive)."""
    return np.where(p_hat >= FLIP, 1, np.where(p_hat <= -FLIP, -1, 0)).astype(np.int8)


def _norm(x: np.ndarray) -> float:
    return float((x * x).sum() ** 0.5)


def _unit(x: np.ndarray) -> np.ndarray:
    """x over its L2 norm: the gradient of that norm, 0 at x = 0."""
    return x / max(_norm(x), NORM_EPS)


def loss_value(p_hat: np.ndarray, target_vec: np.ndarray, row: np.ndarray, lam: float) -> float:
    """Pull toward the target vector plus a penalty on the perturbation size.

    The penalty is the L2 norm of p_hat divided by sqrt(n), the per-node
    root mean square; without that normalisation the tuned penalty weights
    stall the optimiser on small graphs, where a raw-norm penalty above 1
    makes the zero perturbation a global minimum.
    """
    return _norm(target_vec - row - p_hat) + lam * _norm(p_hat) * p_hat.size ** -0.5


def loss_gradient(
    p_hat: np.ndarray,
    target_vec: np.ndarray,
    row: np.ndarray,
    lam: float,
    owner: int | None = None,
) -> np.ndarray:
    """Analytic gradient of loss_value with respect to the relaxed perturbation."""
    g = -_unit(target_vec - row - p_hat) + lam * p_hat.size ** -0.5 * _unit(p_hat)
    if owner is not None:
        g[owner] = 0.0
    return g


def _prepare_target(
    g: Graph, u: int, detector: DetectorSpec, partition: Partition | None, seed: int
) -> tuple[Partition, frozenset[int], int]:
    """Prelude shared by every attack.

    Checks the attack seed and the target, detects the partition when none
    is given and returns it with the target's reference set (its community
    without itself) and the number of detector calls spent.
    """
    if not fits(int, seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 <= u < g.n:
        raise ValueError(f"target {u} outside graph with n={g.n}")
    detections = 0
    if partition is None:
        partition = detect(g, detector)
        detections = 1
    reference = partition.community_members(u) - {u}
    if not reference:
        raise SingletonCommunityError(
            f"node {u} forms a singleton community; nothing to hide"
        )
    return partition, reference, detections


def hide(
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int = 0,
    scores: StructuralScores | None = None,
    partition: Partition | None = None,
) -> HidingOutcome:
    """Search for a hiding rewiring of node u's row within the budget.

    Every row the search proposes within budget is scored once: detected,
    and its similarity, graph and partition kept. The search stops at the
    first row whose similarity is at most tau and returns the best row
    scored. Adam steps theta, with p_hat = tanh(theta); the loss gradient is
    taken with respect to p_hat, without the chain factor 1 - p_hat**2. A
    step that proposes more than beta flips restarts Adam from a fresh
    point. With config.exhaust_budget the search ends with project_to_budget,
    which spends whatever budget is left. `seed` draws the starting points.
    """
    t_start = time.perf_counter()
    n = g.n
    partition, reference, detections = _prepare_target(g, u, detector, partition, seed)
    rng = np.random.default_rng(seed)
    if scores is None:
        scores = structural_scores(g, partition, config.weights)
    target_vec = promising_actions(u, partition, scores)
    bits = g.row(u)
    row = bits.astype(float)
    best = EdgeDelta(u)
    scored: dict[EdgeDelta, tuple[float, Graph, Partition]] = {best: (1.0, g, partition)}

    def score(delta: EdgeDelta) -> float:
        """Similarity of a rewired row, detected the first time it is scored."""
        nonlocal detections
        hit = scored.get(delta)
        if hit is None:
            g2 = apply_delta(g, delta)
            part2 = detect(g2, detector)
            detections += 1
            hit = scored[delta] = (community_similarity(reference, part2, u), g2, part2)
        return hit[0]

    def start() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """A fresh theta and p_hat = tanh(theta), and Adam's moments and step count zeroed."""
        theta = np.arctanh(rng.uniform(-0.5, 0.5, n))
        theta[u] = 0.0
        return theta, np.tanh(theta), np.zeros(n), np.zeros(n), 0

    theta, p_hat, m, v, adam_t = start()
    g_acc = np.zeros(n)  # GAMMA-discounted gradient sum, kept across restarts
    restarts = iterations = 0
    # the first row that hides u is scored lower than every row before it
    while scored[best][0] > config.tau and iterations < config.max_iter:
        iterations += 1
        grad = loss_gradient(p_hat, target_vec, row, config.lam, owner=u)
        g_acc = GAMMA * g_acc + grad
        adam_t += 1
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**adam_t)
        v_hat = v / (1.0 - ADAM_BETA2**adam_t)
        theta = theta - config.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p_hat = np.tanh(theta)
        delta = delta_between(u, bits, clamp_add(bits, u, threshold(p_hat)))
        if delta.size > config.beta:
            restarts += 1
            theta, p_hat, m, v, adam_t = start()
        elif score(delta) < scored[best][0]:
            best = delta

    if config.exhaust_budget:
        g_bar = (1.0 - GAMMA) * g_acc
        best = EdgeDelta(u, project_to_budget(bits, u, p_hat, g_bar, best.toggled, config))
        score(best)
    sim, graph, part = scored[best]
    return HidingOutcome(
        target=u,
        success=sim <= config.tau,
        similarity=sim,
        deltas=(best,),
        used_budget=best.size,
        graph=graph,
        partition=part,
        iterations=iterations,
        detections=detections,
        restarts=restarts,
        wall_seconds=time.perf_counter() - t_start,
    )


def hide_projected(
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int = 0,
    scores: StructuralScores | None = None,
    partition: Partition | None = None,
) -> HidingOutcome:
    """Shorthand for hide() with config.exhaust_budget switched on."""
    return hide(g, u, detector, replace(config, exhaust_budget=True), seed, scores, partition)


def project_to_budget(
    bits: np.ndarray,
    u: int,
    p_hat: np.ndarray,
    g_bar: np.ndarray,
    applied: frozenset[int],
    config: HidingConfig,
) -> frozenset[int]:
    """Extend an applied flip set until the budget is exhausted.

    Coordinates slide along the averaged gradient without squashing: after
    r rounds p_hat - r * eta * g_bar. Each free coordinate flips at the
    first round r >= 1 that leaves it across its threshold, computed once.
    Flips are taken in order of that round, then of |p_hat| * |g_bar| at
    it, largest first, then of id, until the budget is spent. Coordinates
    the gradient cannot reach fill what is left, ranked by |p_hat| * |g_bar|
    after the last crossing round, or by |p_hat| when g_bar is all zero.
    bits is node u's adjacency row.
    """
    budget_left = config.beta - len(applied)
    if budget_left <= 0:
        return applied
    blocked = np.zeros(bits.size, dtype=bool)  # the owner and every taken flip
    blocked[u] = True
    blocked[list(applied)] = True
    step = config.eta * g_bar
    rounds = np.full(bits.size, np.inf)
    if np.any(step):
        sign = np.where(bits == 0, 1.0, -1.0)  # the way p_hat must cross FLIP to flip a bit
        rate = -sign * step  # progress toward that crossing per round
        moving = rate > 0
        rounds[moving] = np.maximum(
            1.0, np.ceil((FLIP - sign[moving] * p_hat[moving]) / rate[moving])
        )
        rounds[~moving & (sign * (p_hat - step) >= FLIP)] = 1.0  # past FLIP after one round anyway
        rounds[blocked] = np.inf
    crossing = np.flatnonzero(np.isfinite(rounds))
    r = rounds[crossing]
    strength = np.abs(p_hat[crossing] - r * step[crossing]) * np.abs(g_bar[crossing])
    taken = crossing[np.lexsort((crossing, -strength, r))[:budget_left]]
    blocked[taken] = True
    budget_left -= taken.size
    if budget_left > 0:
        last = r.max(initial=0.0)
        strength = np.abs(p_hat - last * step) * np.abs(g_bar) if np.any(g_bar) else np.abs(p_hat)
        blocked[top_ranked(strength, np.flatnonzero(~blocked), budget_left)] = True
    blocked[u] = False
    return frozenset(np.flatnonzero(blocked).tolist())

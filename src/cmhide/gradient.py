"""Gradient-driven search for a small edge rewiring that hides a node.

The perturbation of the target's adjacency row is relaxed to a continuous
vector, optimised by Adam against a smooth loss that pulls the row toward
the promising-actions target while penalising large changes, and
discretised back to edge flips after every step. With exhaust_budget set, a
projection step then keeps applying the most promising flips until the
whole budget is spent.

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
    vector. seed draws the starting points. exhaust_budget ends the search
    with project_to_budget.
    """

    tau: float = 0.5
    beta: int = 1
    eta: float = 0.01
    lam: float = 0.1
    max_iter: int = 100
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    seed: int = 0
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def resolve_seed(seed: int | None, config: HidingConfig) -> int:
    """`seed`, or config.seed when it is None; a negative or non-integer seed is an error."""
    if seed is None:
        return config.seed
    if not fits(int, seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


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
    g: Graph, u: int, detector: DetectorSpec, partition: Partition | None
) -> tuple[Partition, frozenset[int], int]:
    """Prelude shared by every attack.

    Checks the target, detects the partition when none is given and returns
    it with the target's reference set (its community without itself) and
    the number of detector calls spent.
    """
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
    seed: int | None = None,
    scores: StructuralScores | None = None,
    partition: Partition | None = None,
) -> HidingOutcome:
    """Search for a hiding rewiring of node u's row within the budget.

    With config.exhaust_budget the search ends with project_to_budget,
    which spends whatever budget is left. `seed` draws the starting points
    in place of config.seed.
    """
    t_start = time.perf_counter()
    n = g.n
    rng = np.random.default_rng(resolve_seed(seed, config))
    partition, reference, detections = _prepare_target(g, u, detector, partition)
    if scores is None:
        scores = structural_scores(g, partition, config.weights)
    target_vec = promising_actions(u, partition, scores)
    bits = g.row(u)
    row = bits.astype(float)
    empty = EdgeDelta(u)
    cache: dict[EdgeDelta, tuple[float, Graph, Partition]] = {
        empty: (1.0, g, partition)
    }

    def evaluate(delta: EdgeDelta) -> tuple[float, Graph, Partition]:
        """Similarity, graph and partition of a rewired row, detected once per row."""
        nonlocal detections
        hit = cache.get(delta)
        if hit is None:
            g2 = apply_delta(g, delta)
            part2 = detect(g2, detector)
            detections += 1
            sim2 = dice_similarity(reference, part2.community_members(u) - {u})
            hit = cache[delta] = (sim2, g2, part2)
        return hit

    p_hat = rng.uniform(-0.5, 0.5, n)
    p_hat[u] = 0.0
    m = np.zeros(n)
    v = np.zeros(n)
    adam_t = 0
    g_acc = np.zeros(n)  # GAMMA-discounted gradient sum, kept across restarts

    sim = 1.0
    cur_graph = g
    cur_part = partition
    cur_delta = empty
    best = (1.0, empty, g, partition)
    restarts = 0
    iterations = 0

    while sim > config.tau and iterations < config.max_iter:
        iterations += 1
        grad = loss_gradient(p_hat, target_vec, row, config.lam, owner=u)
        g_acc = GAMMA * g_acc + grad
        adam_t += 1
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**adam_t)
        v_hat = v / (1.0 - ADAM_BETA2**adam_t)
        p_hat = np.tanh(p_hat - config.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        p = threshold(p_hat)
        new_row = clamp_add(bits, u, p)
        delta = delta_between(u, bits, new_row)
        if delta.size > config.beta:
            # over budget: drop the overlay and restart from a fresh sample
            restarts += 1
            p_hat = rng.uniform(-0.5, 0.5, n)
            p_hat[u] = 0.0
            m = np.zeros(n)
            v = np.zeros(n)
            adam_t = 0
            sim = 1.0
            cur_graph, cur_part, cur_delta = g, partition, empty
            continue
        if delta != cur_delta:
            sim, cur_graph, cur_part = evaluate(delta)
            cur_delta = delta
            if sim < best[0]:
                best = (sim, delta, cur_graph, cur_part)

    if sim > config.tau:
        sim, cur_delta, cur_graph, cur_part = best
    if config.exhaust_budget:
        g_bar = (1.0 - GAMMA) * g_acc
        toggled = project_to_budget(bits, u, p_hat, g_bar, cur_delta.toggled, config)
        cur_delta = EdgeDelta(u, toggled)
        sim, cur_graph, cur_part = evaluate(cur_delta)
    return HidingOutcome(
        target=u,
        success=sim <= config.tau,
        similarity=sim,
        deltas=(cur_delta,),
        used_budget=cur_delta.size,
        graph=cur_graph,
        partition=cur_part,
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
    seed: int | None = None,
    scores: StructuralScores | None = None,
    partition: Partition | None = None,
) -> HidingOutcome:
    """Shorthand for hide() with config.exhaust_budget switched on."""
    return hide(g, u, detector, replace(config, exhaust_budget=True), seed, scores, partition)


def _ranked_fill(
    scores_vec: np.ndarray, candidates: Iterable[int], count: int
) -> list[int]:
    ordered = sorted(candidates, key=lambda v: (-scores_vec[v], v))
    return ordered[:count]


def _rounds_to_flip(
    bits: np.ndarray,
    p_hat: np.ndarray,
    step: np.ndarray,
    blocked: np.ndarray,
) -> np.ndarray:
    """First round k >= 1 at which p_hat - k*step crosses into a bit flip."""
    n = bits.size
    k = np.full(n, np.inf)
    add = bits == 0
    rem = ~add
    with np.errstate(divide="ignore", invalid="ignore"):
        up = add & (step < 0)
        if up.any():
            k[up] = np.maximum(1.0, np.ceil((FLIP - p_hat[up]) / -step[up]))
        down = rem & (step > 0)
        if down.any():
            k[down] = np.maximum(1.0, np.ceil((p_hat[down] + FLIP) / step[down]))
    imm_add = add & (step >= 0) & (p_hat - step >= FLIP)
    imm_rem = rem & (step <= 0) & (p_hat - step <= -FLIP)
    k[imm_add | imm_rem] = 1.0
    k[blocked] = np.inf
    return k


def project_to_budget(
    bits: np.ndarray,
    u: int,
    p_hat: np.ndarray,
    g_bar: np.ndarray,
    applied: frozenset[int],
    config: HidingConfig,
) -> frozenset[int]:
    """Extend an applied flip set until the budget is exhausted.

    Coordinates move along the averaged gradient without squashing; flips
    are committed as they cross the thresholds and never retracted. When a
    round would overshoot the budget, the crossing coordinates are ranked
    by |p_hat| * |g_bar| and only the best fit. Coordinates the gradient
    cannot reach are filled in by the same ranking at the end. bits is
    node u's adjacency row.
    """
    n = bits.size
    applied_set = set(applied)
    budget_left = config.beta - len(applied_set)
    if budget_left <= 0:
        return frozenset(applied_set)
    p_hat = p_hat.astype(float).copy()
    step = config.eta * g_bar

    def blocked_mask() -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[u] = True
        if applied_set:
            mask[list(applied_set)] = True
        return mask

    if np.any(step):
        while budget_left > 0:
            k = _rounds_to_flip(bits, p_hat, step, blocked_mask())
            r = k.min()
            if not np.isfinite(r):
                break
            p_hat = p_hat - r * step
            p = threshold(p_hat)
            row = np.clip(bits + p.astype(np.int64), 0, 1)
            fresh = [
                v for v in np.flatnonzero(row != bits).tolist()
                if v not in applied_set and v != u
            ]
            if not fresh:
                break
            if len(fresh) <= budget_left:
                applied_set.update(fresh)
                budget_left -= len(fresh)
            else:
                strength = np.abs(p_hat) * np.abs(g_bar)
                applied_set.update(_ranked_fill(strength, fresh, budget_left))
                budget_left = 0
    if budget_left > 0:
        untouched = [v for v in range(n) if v != u and v not in applied_set]
        if np.any(g_bar):
            strength = np.abs(p_hat) * np.abs(g_bar)
        else:
            strength = np.abs(p_hat)
        applied_set.update(_ranked_fill(strength, untouched, budget_left))
    return frozenset(applied_set)

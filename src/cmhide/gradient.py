"""Gradient-driven search for a small edge rewiring that hides a node.

The perturbation of the target's adjacency row is relaxed to a continuous
vector, optimised against a smooth loss that pulls the row toward the
promising-actions target while penalising large changes, and discretised
back to edge flips after every step. With exhaust_budget set, a projection
step then keeps applying the most promising flips until the whole budget
is spent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

import numpy as np

from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError, SingletonCommunityError
from .graph import EdgeDelta, Graph, apply_delta, clamp_add, delta_between
from .scoring import DEFAULT_WEIGHTS, StructuralScores, promising_actions, structural_scores


@dataclass(frozen=True)
class HidingConfig:
    """All knobs of the hiding optimisation.

    tau is the similarity threshold under which the node counts as hidden,
    beta the maximum number of edge flips on the target's row.
    """

    tau: float = 0.5
    beta: int = 1
    eta: float = 0.01
    lam: float = 0.1
    max_iter: int = 100
    q: float = 2.0
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    t_plus: float = 0.5
    t_minus: float = -0.5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    norm_eps: float = 1e-12
    gamma: float = 0.9
    seed: int = 0
    exhaust_budget: bool = False
    squared_loss: bool = False
    complement_targets: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in parts if isinstance(x, float)):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
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
        if self.q < 1:
            raise ConfigError("q must be at least 1")
        if not self.t_minus < 0 < self.t_plus:
            raise ConfigError("thresholds must satisfy t_minus < 0 < t_plus")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("adam decay rates must lie in [0, 1)")
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")
        if self.adam_eps <= 0 or self.norm_eps <= 0:
            raise ConfigError("epsilons must be positive")


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
    projected: bool = False
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


def threshold(p_hat: np.ndarray, t_plus: float = 0.5, t_minus: float = -0.5) -> np.ndarray:
    """Discretise a relaxed perturbation to {-1, 0, +1} (thresholds inclusive)."""
    return np.where(p_hat >= t_plus, 1, np.where(p_hat <= t_minus, -1, 0)).astype(np.int8)


def _q_norm_grad(x: np.ndarray, q: float, eps: float) -> tuple[float, np.ndarray]:
    ax = np.abs(x)
    norm = float((ax**q).sum() ** (1.0 / q)) if ax.any() else 0.0
    grad = np.sign(x) * ax ** (q - 1.0) / max(norm, eps) ** (q - 1.0)
    return norm, grad


def loss_value(
    p_hat: np.ndarray,
    target_vec: np.ndarray,
    row: np.ndarray,
    lam: float,
    q: float = 2.0,
    squared: bool = False,
) -> float:
    """Pull toward the target vector plus a penalty on the perturbation size.

    The penalty is the per-node root mean of |p_hat|^q (the q-norm divided
    by n^(1/q)); without that normalisation the tuned penalty weights stall
    the optimiser on small graphs, where a raw-norm penalty above 1 makes
    the zero perturbation a global minimum.
    """
    r = target_vec - row - p_hat
    nr = float(np.linalg.norm(r, ord=q)) if r.any() else 0.0
    np_ = float(np.linalg.norm(p_hat, ord=q)) if p_hat.any() else 0.0
    dist = np_ / p_hat.size ** (1.0 / q)
    if squared:
        return nr * nr + lam * dist * dist
    return nr + lam * dist


def loss_gradient(
    p_hat: np.ndarray,
    target_vec: np.ndarray,
    row: np.ndarray,
    lam: float,
    q: float = 2.0,
    eps: float = 1e-12,
    squared: bool = False,
    owner: int | None = None,
) -> np.ndarray:
    """Analytic gradient of loss_value with respect to the relaxed perturbation."""
    r = target_vec - row - p_hat
    scale = p_hat.size ** (-1.0 / q)
    nr, gr = _q_norm_grad(r, q, eps)
    npn, gp = _q_norm_grad(p_hat, q, eps)
    if squared:
        g = -2.0 * nr * gr + 2.0 * lam * (npn * scale) * (gp * scale)
    else:
        g = -gr + lam * scale * gp
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
    which spends whatever budget is left.
    """
    t_start = time.perf_counter()
    n = g.n
    partition, reference, detections = _prepare_target(g, u, detector, partition)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    if scores is None and not config.complement_targets:
        scores = structural_scores(g, partition, config.weights)
    target_vec = promising_actions(
        g, u, partition, scores=scores, weights=config.weights,
        complement=config.complement_targets,
    )
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
    g_acc = np.zeros(n)  # gamma-discounted gradient sum, kept across restarts

    sim = 1.0
    cur_graph = g
    cur_part = partition
    cur_delta = empty
    best = (1.0, empty, g, partition)
    restarts = 0
    iterations = 0

    while sim > config.tau and iterations < config.max_iter:
        iterations += 1
        grad = loss_gradient(
            p_hat, target_vec, row, config.lam, config.q, config.norm_eps,
            squared=config.squared_loss, owner=u,
        )
        g_acc = config.gamma * g_acc + grad
        adam_t += 1
        m = config.beta1 * m + (1.0 - config.beta1) * grad
        v = config.beta2 * v + (1.0 - config.beta2) * grad * grad
        m_hat = m / (1.0 - config.beta1**adam_t)
        v_hat = v / (1.0 - config.beta2**adam_t)
        p_hat = np.tanh(p_hat - config.eta * m_hat / (np.sqrt(v_hat) + config.adam_eps))
        p = threshold(p_hat, config.t_plus, config.t_minus)
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
        g_bar = (1.0 - config.gamma) * g_acc
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
        projected=config.exhaust_budget,
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
    t_plus: float,
    t_minus: float,
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
            k[up] = np.maximum(1.0, np.ceil((t_plus - p_hat[up]) / -step[up]))
        down = rem & (step > 0)
        if down.any():
            k[down] = np.maximum(1.0, np.ceil((p_hat[down] - t_minus) / step[down]))
    imm_add = add & (step >= 0) & (p_hat - step >= t_plus)
    imm_rem = rem & (step <= 0) & (p_hat - step <= t_minus)
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
            k = _rounds_to_flip(bits, p_hat, step, config.t_plus, config.t_minus, blocked_mask())
            r = k.min()
            if not np.isfinite(r):
                break
            p_hat = p_hat - r * step
            p = threshold(p_hat, config.t_plus, config.t_minus)
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

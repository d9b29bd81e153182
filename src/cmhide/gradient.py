"""Gradient-driven search for a small edge rewiring that hides a node.

The perturbation of the target's adjacency row is relaxed to a continuous
vector p_hat = tanh(theta). Adam steps the unconstrained theta against a
smooth loss that pulls the row toward the promising-actions target while
penalising large changes; after every step `flipped` reads the edge flips
off p_hat. `hide` zeroes the gradient at the target's own entry, so that
entry never flips. Every method runs through `_drive`, the one attack
loop; with exhaust_budget, a projection step ends it and spends the budget.

The settings a caller tunes live in HidingConfig; the rest are fixed below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from itertools import count

import numpy as np

from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError, SingletonCommunityError
from .graph import EdgeDelta, Graph, apply_delta, clamp_add  # clamp_add: perfbench reads it here
from .schema import check_types, fits
from .scoring import (
    DEFAULT_WEIGHTS, StructuralScores, check_weights, promising_actions, structural_scores,
    top_ranked,
)

FLIP = 0.5  # p_hat at or past +FLIP adds a missing edge, at or past -FLIP drops one
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

    def hides(self, similarity: float, used: int) -> bool:
        """The one success rule of every attack: similarity at most tau, at most beta flips."""
        return similarity <= self.tau and used <= self.beta


# the keys a config object may set, and the config that report.json records
CONFIG_KEYS = tuple(
    f.name for f in fields(HidingConfig) if f.name not in {"tau", "beta", "exhaust_budget"}
)


@dataclass(frozen=True)
class HidingOutcome:
    """Result of one attack on one target node; restarts counts truncated steps.

    success is `HidingConfig.hides(similarity, used_budget)`, with the flips
    of every delta summed in used_budget.
    """

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


def community_similarity(reference: frozenset[int], partition: Partition, u: int) -> float:
    """Soerensen-Dice overlap of reference and u's community without u; 0 when both are empty."""
    labels = partition.labels
    c = labels[u]
    size = labels.count(c) - 1
    if not reference and not size:
        return 0.0
    return 2.0 * sum(labels[v] == c for v in reference) / (len(reference) + size)


def flipped(row: np.ndarray, p_hat: np.ndarray) -> list[int]:
    """Ids p_hat flips on an adjacency row, ascending: p_hat >= FLIP on a 0, <= -FLIP on a 1."""
    return np.flatnonzero((1.0 - 2.0 * row) * p_hat >= FLIP).tolist()


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
    p_hat: np.ndarray, target_vec: np.ndarray, row: np.ndarray, lam: float
) -> np.ndarray:
    """Analytic gradient of loss_value with respect to p_hat; `hide` zeroes the owner's entry."""
    return -_unit(target_vec - row - p_hat) + lam * p_hat.size ** -0.5 * _unit(p_hat)


class Scorer:
    """Detects rewired graphs of g and reads u's similarity off them; `calls` counts each run.

    g's partition is detected, as one call, when none is given. Called on row
    deltas, it applies the ones that toggle something, detects the result once
    and caches (similarity, graph, partition) under them; no toggle gives g.
    """

    __slots__ = ("g", "u", "detector", "partition", "reference", "calls", "_cache")

    def __init__(self, g: Graph, u: int, detector: DetectorSpec, partition: Partition | None):
        self.g, self.u, self.detector, self.calls = g, u, detector, 0
        if partition is None:
            partition = detect(g, detector)
            self.calls = 1
        self.partition = partition
        self.reference = partition.community_members(u) - {u}
        # the input graph: u's community is its reference, Dice 0 only when both are empty
        self._cache = {(): (1.0 if self.reference else 0.0, g, partition)}

    def __call__(self, deltas: tuple[EdgeDelta, ...]) -> tuple[float, Graph, Partition]:
        key = tuple([d for d in deltas if d.toggled])
        hit = self._cache.get(key)
        if hit is None:
            rewired = self.g
            for d in key:
                rewired = apply_delta(rewired, d)
            part = detect(rewired, self.detector)
            self.calls += 1
            sim = community_similarity(self.reference, part, self.u)
            hit = self._cache[key] = (sim, rewired, part)
        return hit


def _drive(
    g: Graph, u: int, detector: DetectorSpec, config: HidingConfig, seed: int,
    partition: Partition | None, scores: StructuralScores | None, propose, finish=None,
) -> HidingOutcome:
    """The one attack loop: scores the rows a method proposes, keeps the best and stops.

    After the checks of the seed, the target and the sizes of the partition
    and the scores given, `propose(score)` yields (deltas, truncated)
    pairs, taken only while the kept row fails `config.hides` and fewer than
    max_iter rows followed the first. The first row is kept whatever it scores, a
    later one only when strictly lower; `finish(kept)` may replace the kept deltas.
    """
    t_start = time.perf_counter()
    if not fits(int, seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 <= u < g.n:
        raise ValueError(f"target {u} outside graph with n={g.n}")
    if partition is not None and len(partition.labels) != g.n:
        raise ValueError(f"partition covers {len(partition.labels)} nodes, graph has n={g.n}")
    if scores is not None and scores.combined.size != g.n:
        raise ValueError(f"scores cover {scores.combined.size} nodes, graph has n={g.n}")
    score = Scorer(g, u, detector, partition)
    if not score.reference:
        raise SingletonCommunityError(
            f"node {g.label_of(u)!r} forms a singleton community; nothing to hide"
        )
    best = (np.inf,)  # every similarity is below inf, so the first row is kept
    restarts = 0
    for iterations, (deltas, truncated) in enumerate(propose(score)):
        restarts += truncated
        if (scored := score(deltas))[0] < best[0]:
            kept, best, used = deltas, scored, sum(d.size for d in deltas)
        if config.hides(best[0], used) or iterations == config.max_iter:
            break
    if finish is not None:
        kept = finish(kept)
        best, used = score(kept), sum(d.size for d in kept)
    similarity, graph, partition = best
    return HidingOutcome(
        target=u, success=config.hides(similarity, used), similarity=similarity, deltas=kept,
        used_budget=used, graph=graph, partition=partition, iterations=iterations,
        detections=score.calls, restarts=restarts, wall_seconds=time.perf_counter() - t_start,
    )


def hide(
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int = 0,
    partition: Partition | None = None,
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Search for a hiding rewiring of node u's row within the budget.

    The search proposes rows to the attack loop `_drive`, the unchanged row
    first, then one row per Adam step. Adam steps theta, with p_hat =
    tanh(theta); the loss gradient is taken with respect to p_hat, without
    the chain factor 1 - p_hat**2, and zeroed at u, so theta[u] stays 0 and
    u never flips. A step proposes the flips `flipped` reads off p_hat; one
    that proposes more than beta flips is truncated to the beta of them
    ranked highest by |p_hat| * |grad|, ties to the smaller id, and Adam goes
    on from the theta it moved. With config.exhaust_budget the loop ends with
    project_to_budget, which spends whatever budget the kept row left.
    `seed` draws the one starting point.
    """
    n = g.n
    row = p_hat = g_acc = None  # the search's state, which the projection reads

    def propose(score: Scorer):
        nonlocal row, p_hat, g_acc
        s = structural_scores(g, score.partition, config.weights) if scores is None else scores
        target_vec = promising_actions(u, score.partition, s)
        row = g.row(u).astype(float)
        yield (EdgeDelta(u),), False
        theta = np.arctanh(np.random.default_rng(seed).uniform(-0.5, 0.5, n))
        theta[u] = 0.0
        p_hat, m, v = np.tanh(theta), np.zeros(n), np.zeros(n)
        g_acc = np.zeros(n)  # GAMMA-discounted gradient sum
        for t in count(1):
            grad = loss_gradient(p_hat, target_vec, row, config.lam)
            grad[u] = 0.0
            g_acc = GAMMA * g_acc + grad
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            theta = theta - config.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p_hat = np.tanh(theta)
            flips = flipped(row, p_hat)
            truncated = len(flips) > config.beta
            if truncated:
                flips = top_ranked(np.abs(p_hat * grad), flips, config.beta)
            yield (EdgeDelta(u, flips),), truncated

    def finish(kept: tuple[EdgeDelta, ...]) -> tuple[EdgeDelta, ...]:
        g_bar = (1.0 - GAMMA) * g_acc
        return (EdgeDelta(u, project_to_budget(row, u, p_hat, g_bar, kept[0].toggled, config)),)

    return _drive(
        g, u, detector, config, seed, partition, scores, propose,
        finish if config.exhaust_budget else None,
    )


def hide_projected(
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int = 0,
    partition: Partition | None = None,
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Shorthand for hide() with config.exhaust_budget switched on."""
    return hide(g, u, detector, replace(config, exhaust_budget=True), seed, partition, scores)


def project_to_budget(
    row: np.ndarray,
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
    row is node u's adjacency row.
    """
    budget_left = config.beta - len(applied)
    if budget_left <= 0:
        return applied
    blocked = np.zeros(row.size, dtype=bool)  # the owner and every taken flip
    blocked[u] = True
    blocked[list(applied)] = True
    step = config.eta * g_bar
    rounds = np.full(row.size, np.inf)
    if np.any(step):
        sign = np.where(row == 0, 1.0, -1.0)  # the way p_hat must cross FLIP to flip a bit
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

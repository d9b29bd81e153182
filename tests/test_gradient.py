from dataclasses import replace

import numpy as np
import pytest

from cmhide import (
    ConfigError,
    EdgeDelta,
    HidingConfig,
    SingletonCommunityError,
    apply_delta,
    detect,
    get_preset,
    hide,
)
from cmhide.gradient import (
    HidingOutcome,
    dice_similarity,
    hide_projected,
    loss_gradient,
    loss_value,
    project_to_budget,
    threshold,
)
from cmhide.graph import Graph


def test_dice_similarity_examples():
    assert dice_similarity({1, 2, 3}, {1, 2, 3}) == 1.0
    assert dice_similarity({1, 2}, {3, 4}) == 0.0
    assert dice_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(2 / 3)
    assert dice_similarity(set(), set()) == 0.0
    assert dice_similarity({1}, set()) == 0.0


def test_threshold_is_inclusive():
    p = np.array([0.5, 0.49, 0.3, -0.5, -0.49, -0.6, 0.0, 0.9])
    out = threshold(p)
    assert out.tolist() == [1, 0, 0, -1, 0, -1, 0, 1]


def test_loss_value_closed_forms():
    rng = np.random.default_rng(0)
    row = rng.integers(0, 2, 12).astype(float)
    target = rng.integers(0, 2, 12).astype(float)
    # a perturbation matching the pull exactly leaves only the penalty
    p_exact = target - row
    assert loss_value(p_exact, target, row, lam=0.0) == 0.0
    pen = np.linalg.norm(p_exact) / 12 ** 0.5
    assert loss_value(p_exact, target, row, lam=1.71) == pytest.approx(1.71 * pen)
    # the zero perturbation costs the full pull distance
    zero = np.zeros(12)
    assert loss_value(zero, target, row, lam=0.7) == pytest.approx(
        np.linalg.norm(target - row)
    )
    # at the zero perturbation the penalty has no slope, so the gradient is
    # the pull alone: minus the unit vector along target - row
    pull = target - row
    assert np.allclose(
        loss_gradient(zero, target, row, lam=0.7), -pull / np.linalg.norm(pull)
    )


def central_difference(p_hat, target, row, lam, h=1e-6):
    fd = np.zeros_like(p_hat)
    for i in range(p_hat.size):
        e = np.zeros_like(p_hat)
        e[i] = h
        up = loss_value(p_hat + e, target, row, lam)
        dn = loss_value(p_hat - e, target, row, lam)
        fd[i] = (up - dn) / (2 * h)
    return fd


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 10
        row = rng.integers(0, 2, n).astype(float)
        target = rng.uniform(0, 1, n)
        p_hat = rng.uniform(-0.45, 0.45, n)
        lam = rng.uniform(0.1, 2.0)
        g = loss_gradient(p_hat, target, row, lam)
        fd = central_difference(p_hat, target, row, lam)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5


def test_loss_gradient_zeroes_owner_coordinate():
    rng = np.random.default_rng(9)
    row = rng.integers(0, 2, 8).astype(float)
    target = rng.uniform(0, 1, 8)
    p_hat = rng.uniform(-0.4, 0.4, 8)
    g = loss_gradient(p_hat, target, row, lam=0.5, owner=3)
    assert g[3] == 0.0
    g_free = loss_gradient(p_hat, target, row, lam=0.5)
    mask = np.arange(8) != 3
    assert np.array_equal(g[mask], g_free[mask])


def assert_replays(g, outcome, detector, beta):
    """The outcome's graph and partition are what its deltas reproduce."""
    replayed = apply_delta(g, outcome.delta)
    assert replayed == outcome.graph
    assert detect(outcome.graph, detector) == outcome.partition
    assert outcome.used_budget <= beta


def sparse_graph_n4() -> Graph:
    # node 3 is isolated so its adjacency row is all zeros
    return Graph([("0", "1"), ("1", "2")], node_labels=["0", "1", "2", "3"])


def test_projection_ranks_overshooting_flips():
    bits = sparse_graph_n4().row(3)
    p_hat = np.array([0.3, 0.1, -0.1, 0.0])
    g_bar = np.array([-1.0, -0.5, -1.0, 0.0])
    config = HidingConfig(beta=1, eta=0.6)
    # one round moves p_hat to (0.9, 0.4, 0.5, 0): coords 0 and 2 cross at
    # once, and |p_hat| * |g_bar| = (0.9, _, 0.5) keeps only coord 0
    toggled = project_to_budget(bits, 3, p_hat, g_bar, frozenset(), config)
    assert toggled == frozenset({0})


def test_projection_falls_back_to_magnitude_without_gradient():
    bits = sparse_graph_n4().row(3)
    p_hat = np.array([0.2, -0.7, 0.4, 0.0])
    toggled = project_to_budget(
        bits, 3, p_hat, np.zeros(4), frozenset(), HidingConfig(beta=2, eta=0.1)
    )
    assert toggled == frozenset({1, 2})


def test_projection_keeps_exhausted_budget_untouched():
    bits = sparse_graph_n4().row(3)
    applied = frozenset({0})
    toggled = project_to_budget(
        bits, 3, np.zeros(4), np.ones(4), applied, HidingConfig(beta=1, eta=0.5)
    )
    assert toggled == applied


def test_projection_skips_already_applied_coordinates():
    bits = sparse_graph_n4().row(3)
    p_hat = np.zeros(4)
    g_bar = np.array([-1.0, -1.0, -0.5, 0.0])
    toggled = project_to_budget(
        bits, 3, p_hat, g_bar, frozenset({1}), HidingConfig(beta=2, eta=0.6)
    )
    assert toggled == frozenset({0, 1})


def test_hiding_config_rejects_bad_knobs():
    bad = [
        dict(tau=1.0),
        dict(tau=-0.1),
        dict(beta=0),
        dict(eta=0.0),
        dict(lam=-1.0),
        dict(max_iter=0),
        dict(eta=float("nan")),
        dict(eta=float("inf")),
        dict(lam=float("nan")),
        dict(lam=float("inf")),
        dict(weights=(float("nan"), 0.0, 0.0, 1.0)),
        dict(weights=(1.0, 1.0, 1.0, 1.0)),
        dict(weights=(0.5, 0.5, 0.5, -0.5)),
        dict(weights=(0.5, 0.5)),
        dict(beta=2.5),
        dict(max_iter=2.7),
        dict(seed=0.5),
        dict(max_iter=3.0),
        dict(beta=True),
        dict(eta="0.1"),
        dict(exhaust_budget="false"),
        dict(weights="1,1,1,1"),
        dict(seed=-1),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            HidingConfig(**kwargs)


def test_outcome_delta_property_requires_single_row(kar, greedy, kar_partition):
    outcome = HidingOutcome(
        target=0,
        success=False,
        similarity=1.0,
        deltas=(EdgeDelta(0), EdgeDelta(1)),
        used_budget=0,
        graph=kar,
        partition=kar_partition,
    )
    with pytest.raises(ValueError):
        outcome.delta


def test_hide_is_deterministic_and_consistent(kar, greedy):
    config = get_preset("kar").config(tau=0.5, beta=3)
    u = kar.id_of("9")
    first = hide(kar, u, greedy, config, seed=7)
    second = hide(kar, u, greedy, config, seed=7)
    assert first == second
    assert first.wall_seconds > 0
    assert first.success
    assert first.similarity <= 0.5
    assert first.used_budget == first.delta.size <= 3
    assert first.delta.owner == u
    assert_replays(kar, first, greedy, 3)


def test_seed_argument_overrides_config_seed(kar, greedy):
    base = get_preset("kar").config(tau=0.5, beta=3)
    u = kar.id_of("9")
    via_config = hide(kar, u, greedy, replace(base, seed=7))
    via_argument = hide(kar, u, greedy, base, seed=7)
    assert via_config == via_argument


def test_hide_restarts_when_one_step_overshoots_budget(kar, greedy):
    # a huge step rate saturates tanh, so every iteration flips far more
    # than one edge and trips the restart path
    config = HidingConfig(tau=0.3, beta=1, eta=5.0, max_iter=10)
    outcome = hide(kar, 0, greedy, config, seed=1)
    assert outcome.restarts > 0
    assert outcome.iterations == 10
    assert not outcome.success
    assert_replays(kar, outcome, greedy, 1)


def test_hide_failure_reports_best_feasible_rewiring(kar, greedy):
    config = get_preset("kar").config(tau=0.5, beta=3)
    config = replace(config, tau=0.01, max_iter=3)
    u = kar.id_of("9")
    outcome = hide(kar, u, greedy, config, seed=3)
    assert not outcome.success
    assert outcome.used_budget > 0
    assert outcome.used_budget <= 3
    base = detect(kar, greedy)
    reference = base.community_members(u) - {u}
    replayed = apply_delta(kar, outcome.delta)
    part = detect(replayed, greedy)
    sim = dice_similarity(reference, part.community_members(u) - {u})
    assert outcome.similarity == sim


def test_projection_after_failed_search_is_locked(kar, greedy):
    # the search misses tau, so its best-so-far rewiring seeds the projection
    config = get_preset("kar").config(tau=0.5, beta=3)
    config = replace(config, tau=0.01, max_iter=3)
    u = kar.id_of("9")
    plain = hide(kar, u, greedy, config, seed=3)
    assert not plain.success
    projected = hide(kar, u, greedy, replace(config, exhaust_budget=True), seed=3)
    assert projected.deltas == (EdgeDelta(u, frozenset({8, 21, 29})),)
    assert plain.delta.toggled < projected.delta.toggled
    assert projected.similarity == 0.0
    assert projected.detections == 3
    assert_replays(kar, projected, greedy, 3)


def test_hide_rejects_singleton_community(greedy):
    g = Graph(
        [("a", "b"), ("b", "c"), ("c", "a")], node_labels=["a", "b", "c", "d"]
    )
    with pytest.raises(SingletonCommunityError):
        hide(g, g.id_of("d"), greedy, HidingConfig(tau=0.5, beta=1))


def test_hide_rejects_target_outside_graph(kar, greedy):
    with pytest.raises(ValueError):
        hide(kar, 34, greedy, HidingConfig())


def test_hide_succeeds_inside_clique(cliques, greedy):
    config = get_preset("kar").config(tau=0.3, beta=4)
    outcome = hide(cliques, 7, greedy, config, seed=2)
    assert_replays(cliques, outcome, greedy, 4)
    assert outcome.success
    assert outcome.similarity == 0.0
    assert sorted(outcome.delta.toggled) == [4, 6, 8, 9]
    assert outcome.used_budget == 4
    assert outcome.restarts == 0


def test_projected_variant_spends_remaining_budget(kar, greedy):
    config = get_preset("kar").config(tau=0.5, beta=3)
    u = kar.id_of("9")
    plain = hide(kar, u, greedy, config, seed=7)
    assert plain.used_budget == 2  # leaves one flip unspent
    projected = hide_projected(kar, u, greedy, config, seed=7)
    assert projected.used_budget == 3
    assert plain.delta.toggled < projected.delta.toggled
    assert_replays(kar, projected, greedy, 3)


def test_projected_variant_skips_detection_when_budget_already_full(cliques, greedy):
    config = get_preset("kar").config(tau=0.3, beta=4)
    plain = hide(cliques, 7, greedy, config, seed=2)
    assert plain.used_budget == 4
    projected = hide_projected(cliques, 7, greedy, config, seed=2)
    assert projected.deltas == plain.deltas
    assert projected.detections == plain.detections


def test_hide_dispatches_on_exhaust_flag(kar, greedy):
    config = get_preset("kar").config(tau=0.5, beta=3)
    config = replace(config, exhaust_budget=True)
    u = kar.id_of("9")
    assert hide(kar, u, greedy, config, seed=7) == hide_projected(
        kar, u, greedy, config, seed=7
    )


@pytest.mark.parametrize("beta", [9, 20])
def test_projected_budget_caps_at_row_length(cliques, greedy, beta):
    config = replace(get_preset("kar").config(tau=0.3, beta=beta), max_iter=20)
    outcome = hide_projected(cliques, 0, greedy, config, seed=0)
    assert_replays(cliques, outcome, greedy, beta)
    assert outcome.used_budget == min(beta, cliques.n - 1)


def test_hide_reuses_supplied_partition(kar, greedy, kar_partition):
    config = get_preset("kar").config(tau=0.5, beta=3)
    u = kar.id_of("9")
    with_part = hide(kar, u, greedy, config, seed=7, partition=kar_partition)
    without = hide(kar, u, greedy, config, seed=7)
    assert with_part.deltas == without.deltas
    assert with_part.similarity == without.similarity
    assert with_part.partition == without.partition
    assert with_part.detections == without.detections - 1

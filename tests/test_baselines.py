import pytest

from cmhide import (
    ConfigError,
    Graph,
    HidingConfig,
    Partition,
    SingletonCommunityError,
    apply_delta,
    betweenness,
    detect,
    run_baseline,
)

CFG = HidingConfig(tau=0.5, beta=3)


def whole(g: Graph) -> Partition:
    return Partition.from_communities([list(range(g.n))])


def labels(g: Graph, nodes) -> list[str]:
    return sorted(g.label_of(v) for v in nodes)


def dice_micro():
    # u's intra neighbours are p (degree 2) and q (degree 4); outside,
    # b2 (degree 2) outranks b1 and b3 (degree 1, id breaks the tie)
    g = Graph(
        [
            ("u", "p"),
            ("u", "q"),
            ("p", "q"),
            ("q", "r1"),
            ("q", "r2"),
            ("b1", "b2"),
            ("b2", "b3"),
        ]
    )
    part = Partition.from_communities(
        [
            [g.id_of(x) for x in ("u", "p", "q", "r1", "r2")],
            [g.id_of(x) for x in ("b1", "b2", "b3")],
        ]
    )
    return g, part


@pytest.mark.parametrize(
    "beta,expected",
    [(1, ["q"]), (2, ["b2", "q"]), (3, ["b1", "b2", "q"])],
)
def test_dice_removes_top_intra_then_adds_top_outside(greedy, beta, expected):
    g, part = dice_micro()
    outcome = run_baseline(
        "dice", g, g.id_of("u"), greedy, HidingConfig(tau=0.5, beta=beta), partition=part
    )
    assert labels(g, outcome.delta.toggled) == expected
    assert outcome.delta.owner == g.id_of("u")
    assert outcome.used_budget == beta


def test_dice_spends_whole_budget_on_additions_without_intra_edge(greedy):
    # u shares a community with p but has no edge to it, and the only
    # outside non-neighbour is b1, so the run stops short of the budget
    g = Graph([("p", "b1"), ("b1", "b2"), ("u", "b2")])
    part = Partition.from_communities(
        [[g.id_of("u"), g.id_of("p")], [g.id_of("b1"), g.id_of("b2")]]
    )
    outcome = run_baseline(
        "dice", g, g.id_of("u"), greedy, HidingConfig(tau=0.5, beta=2), partition=part
    )
    assert labels(g, outcome.delta.toggled) == ["b1"]
    assert outcome.used_budget == 1


def test_dice_on_bridged_cliques(cliques, greedy):
    # remove the bridge endpoint 4 (degree 5), then add the other clique's
    # bridge endpoint 5 and its smallest-id member 6
    outcome = run_baseline("dice", cliques, 0, greedy, CFG)
    assert sorted(outcome.delta.toggled) == [4, 5, 6]
    assert not outcome.success
    assert outcome.similarity == 1.0
    assert outcome.detections == 2
    assert outcome.graph == apply_delta(cliques, outcome.delta)


def test_roam_rewires_detached_neighbour(greedy):
    g = Graph([("a", "u"), ("u", "b"), ("b", "c")])
    outcome = run_baseline(
        "roam", g, g.id_of("u"), greedy, HidingConfig(tau=0.5, beta=2), partition=whole(g)
    )
    removal, addition = outcome.deltas
    assert removal.owner == g.id_of("u")
    assert labels(g, removal.toggled) == ["b"]  # b outranks a on degree
    assert addition.owner == g.id_of("b")
    assert labels(g, addition.toggled) == ["a"]
    assert outcome.used_budget == 2


def test_roam_from_star_center(greedy):
    g = Graph([("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")])
    outcome = run_baseline("roam", g, g.id_of("c"), greedy, CFG, partition=whole(g))
    removal, addition = outcome.deltas
    assert labels(g, removal.toggled) == ["l1"]  # degree tie broken by id
    assert addition.owner == g.id_of("l1")
    assert labels(g, addition.toggled) == ["l2", "l3"]
    assert outcome.used_budget == 3


def test_roam_from_star_leaf_only_removes(greedy):
    g = Graph([("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")])
    outcome = run_baseline("roam", g, g.id_of("l2"), greedy, CFG, partition=whole(g))
    assert len(outcome.deltas) == 1  # leaf has no other neighbours to rewire
    assert labels(g, outcome.delta.toggled) == ["c"]
    assert outcome.used_budget == 1


def test_roam_isolated_target_is_a_noop(greedy):
    g = Graph([("a", "b")], node_labels=["a", "b", "u"])
    part = Partition.from_communities([[g.id_of("a"), g.id_of("u")], [g.id_of("b")]])
    outcome = run_baseline("roam", g, g.id_of("u"), greedy, CFG, partition=part)
    assert outcome.used_budget == 0
    assert not outcome.success
    assert outcome.similarity == 1.0
    assert outcome.detections == 0
    assert outcome.graph is g


def test_random_is_reproducible_and_roughly_uniform(greedy):
    g = Graph([("u", "x"), ("x", "y"), ("y", "u")])
    cfg = HidingConfig(tau=0.5, beta=1)
    u = g.id_of("u")
    first = run_baseline("random", g, u, greedy, cfg, seed=11, partition=whole(g))
    again = run_baseline("random", g, u, greedy, cfg, seed=11, partition=whole(g))
    assert first.deltas == again.deltas
    counts = {g.id_of("x"): 0, g.id_of("y"): 0}
    for seed in range(1000):
        out = run_baseline("random", g, u, greedy, cfg, seed=seed, partition=whole(g))
        counts[next(iter(out.delta.toggled))] += 1
    for hits in counts.values():
        assert 450 <= hits <= 550


def test_random_redraw_toggles_back(greedy):
    # seed 0 draws the same node twice, so the net rewiring is empty
    g = Graph([("u", "x"), ("x", "y"), ("y", "u")])
    cfg = HidingConfig(tau=0.5, beta=2)
    outcome = run_baseline("random", g, g.id_of("u"), greedy, cfg, seed=0, partition=whole(g))
    assert outcome.used_budget == 0
    assert outcome.similarity == 1.0


def test_degree_walks_down_the_degree_ranking(greedy):
    g = Graph([("c", "l1"), ("c", "l2"), ("c", "l3"), ("l1", "l2")])
    u = g.id_of("l3")
    outcome = run_baseline(
        "degree", g, u, greedy, HidingConfig(tau=0.5, beta=2), partition=whole(g)
    )
    # c (degree 3) first, then l1 wins the degree-2 tie by id
    assert labels(g, outcome.delta.toggled) == ["c", "l1"]


def test_centrality_uses_betweenness_of_original_graph(kar, greedy):
    u = kar.id_of("9")
    outcome = run_baseline("centrality", kar, u, greedy, CFG)
    bc = betweenness(kar)
    expected = sorted((v for v in range(kar.n) if v != u), key=lambda v: (-bc[v], v))[:3]
    assert sorted(outcome.delta.toggled) == sorted(expected) == [0, 21, 23]


@pytest.mark.parametrize("name", ["dice", "roam", "random", "degree", "centrality"])
@pytest.mark.parametrize("beta", [1, 3, 6])
def test_baselines_respect_budget_and_replay(kar, greedy, name, beta):
    cfg = HidingConfig(tau=0.5, beta=beta)
    u = kar.id_of("9")
    outcome = run_baseline(name, kar, u, greedy, cfg, seed=0)
    assert outcome.used_budget <= beta
    assert outcome.deltas[0].owner == u
    g2 = kar
    for d in outcome.deltas:
        if d.size:
            g2 = apply_delta(g2, d)
    assert g2 == outcome.graph
    if outcome.used_budget:
        assert detect(g2, greedy) == outcome.partition
    assert outcome.success == (outcome.similarity <= cfg.tau)
    assert outcome.wall_seconds > 0


def test_baseline_outputs_locked_on_karate(kar, greedy):
    u = kar.id_of("9")
    dice = run_baseline("dice", kar, u, greedy, CFG)
    assert sorted(dice.delta.toggled) == [0, 2, 21]
    assert dice.success and dice.similarity == 0.0

    roam = run_baseline("roam", kar, u, greedy, CFG)
    assert [(d.owner, sorted(d.toggled)) for d in roam.deltas] == [(u, [23]), (23, [2])]
    assert not roam.success and roam.similarity == 1.0

    degree = run_baseline("degree", kar, u, greedy, CFG)
    assert sorted(degree.delta.toggled) == [0, 21, 23]
    assert degree.success and degree.similarity == pytest.approx(2 / 17)

    random = run_baseline("random", kar, u, greedy, CFG, seed=0)
    assert sorted(random.delta.toggled) == [16, 22, 29]
    assert random.success and random.similarity == 0.0


def test_baselines_reject_singletons_and_bad_targets(greedy):
    g = Graph([("a", "b")], node_labels=["a", "b", "u"])
    with pytest.raises(SingletonCommunityError):
        run_baseline("dice", g, g.id_of("u"), greedy, CFG)
    with pytest.raises(ValueError):
        run_baseline("dice", g, 3, greedy, CFG)


def test_unknown_baseline_name_is_rejected(kar, greedy):
    with pytest.raises(ConfigError, match="unknown baseline"):
        run_baseline("strongest", kar, 0, greedy, CFG)


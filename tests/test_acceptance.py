"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a `[acceptance] ...: PASS/FAIL` line (visible with -s or
through the capsys bypass) before asserting, so a full run always shows
the per-criterion scoreboard.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from cmhide import (
    DetectorSpec,
    EdgeDelta,
    ExperimentSpec,
    HidingConfig,
    Partition,
    apply_delta,
    detect,
    f1_score,
    get_preset,
    hide,
    load_fixture,
    nmi,
    pagerank,
    run_baseline,
    run_experiment,
)
from cmhide.cli import main as cli_main
from cmhide.evaluation import ALL_METHODS, attack
from cmhide.gradient import Scorer, loss_gradient, loss_value
from cmhide.graph import Graph
from cmhide.scoring import betweenness, promising_actions, structural_scores, top_ranked

from conftest import (
    brute_betweenness, brute_modularity, brute_nmi, brute_pagerank, dice_similarity,
    fewest_flips, modularity, random_graph, set_partitions,
)

ORACLE_TOL = 1e-10


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" - {detail}"
        print(line)


def small_graph(n: int, edge_bits: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    edges = [pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1]
    return Graph(
        [(str(a), str(b)) for a, b in edges], node_labels=[str(v) for v in range(n)]
    )


@pytest.fixture(scope="module")
def kar_report(kar):
    spec = ExperimentSpec(
        methods=("gradient", "random", "degree", "centrality"),
        taus=(0.3, 0.5, 0.8),
        beta_factors=(1.0,),
        runs=3,
        seed=0,
        config=get_preset("kar").config(),
        mu_plus_one=True,
    )
    t0 = time.perf_counter()
    report = run_experiment(kar, spec)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cliques_f1_report(cliques):
    spec = ExperimentSpec(
        methods=("gradient", "random", "degree"),
        taus=(0.3, 0.5, 0.8),
        beta_factors=(1.0,),
        runs=3,
        seed=0,
        config=get_preset("kar").config(),
    )
    t0 = time.perf_counter()
    report = run_experiment(cliques, spec)
    return report, time.perf_counter() - t0


def cell(report, method: str, tau: float):
    return next(
        row for row in report.summary if row.method == method and row.tau == tau
    )


def test_criterion_1_metric_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    max_err = 0.0

    graphs = [small_graph(n, bits) for n in (2, 3) for bits in range(2 ** (n * (n - 1) // 2))]
    graphs += [small_graph(4, int(b)) for b in rng.integers(0, 64, 30)]
    graphs += [random_graph(n, 0.45, seed) for n in (5, 6, 7, 8) for seed in range(7)]
    graphs += [
        Graph([(str(i), str(i + 1)) for i in range(7)]),  # path
        Graph([("0", str(i)) for i in range(1, 8)]),  # star
        Graph([(str(i), str((i + 1) % 8)) for i in range(8)]),  # cycle
        Graph([(str(a), str(b)) for a, b in combinations(range(8), 2)]),  # complete
    ]
    greedy = DetectorSpec("greedy")
    for g in graphs:
        max_err = max(max_err, float(np.abs(pagerank(g) - brute_pagerank(g)).max()))
        max_err = max(max_err, float(np.abs(betweenness(g) - brute_betweenness(g)).max()))
        if g.n <= 4:
            parts = [Partition.from_communities(p) for p in set_partitions(range(g.n))]
        else:
            parts = [detect(g, greedy)]
            for _ in range(5):
                member = rng.integers(0, 3, g.n)
                comms = [np.flatnonzero(member == c).tolist() for c in range(3)]
                parts.append(Partition.from_communities(c for c in comms if c))
        for part in parts:
            max_err = max(max_err, abs(modularity(g, part) - brute_modularity(g, part)))

    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = rng.integers(0, 3, n).tolist()
        b = rng.integers(0, 4, n).tolist()
        max_err = max(max_err, abs(nmi(a, b) - brute_nmi(a, b)))

    for _ in range(60):
        pool = range(8)
        sa = {int(v) for v in rng.choice(8, rng.integers(0, 9), replace=False)}
        sb = {int(v) for v in rng.choice(8, rng.integers(0, 9), replace=False)}
        inter = sum(1 for v in pool if v in sa and v in sb)
        want = 0.0 if not sa and not sb else 2 * inter / (len(sa) + len(sb))
        max_err = max(max_err, abs(dice_similarity(sa, sb) - want))
        sr, nm = rng.uniform(0, 1), rng.uniform(0, 1)
        want_f1 = 0.0 if sr + nm == 0 else 2 * sr * nm / (sr + nm)
        max_err = max(max_err, abs(f1_score(sr, nm) - want_f1))

    elapsed = time.perf_counter() - t0
    ok = max_err <= ORACLE_TOL and elapsed < 10
    _report(
        capsys, "criterion 1 (metric oracles)", ok,
        f"max |err| {max_err:.2e} over {len(graphs)} graphs in {elapsed:.1f}s",
    )
    assert max_err <= ORACLE_TOL
    assert elapsed < 10


def test_criterion_2_gradient_vs_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    instances = 100
    for _ in range(instances):
        n = 50
        row = rng.integers(0, 2, n).astype(float)
        target = rng.uniform(0, 1, n)
        p_hat = rng.uniform(-0.45, 0.45, n)
        lam = float(rng.uniform(0.1, 2.0))
        grad = loss_gradient(p_hat, target, row, lam)
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (
                loss_value(p_hat + e, target, row, lam)
                - loss_value(p_hat - e, target, row, lam)
            ) / (2 * h)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5
    _report(
        capsys, "criterion 2 (analytic gradient)", ok,
        f"worst rel err {worst:.2e} over {instances} instances in {elapsed:.1f}s",
    )
    assert worst <= 1e-5
    assert elapsed < 5


def test_criterion_3_search_loop_invariants(capsys):
    t0 = time.perf_counter()
    greedy = DetectorSpec("greedy")
    fixtures = {name: load_fixture(name) for name in ("cliques", "barbell", "kar")}
    partitions = {name: detect(g, greedy) for name, g in fixtures.items()}
    names = ("cliques", "barbell", "kar")
    taus = (0.1, 0.3, 0.5, 0.8)
    betas = (1, 2, 3)
    etas = (0.03, 0.079, 0.2, 0.6)
    violations: list[str] = []
    flipped = truncated = 0
    for i in range(1000):
        name = names[i % 3]
        g = fixtures[name]
        u = (i // 3) % g.n
        config = HidingConfig(
            tau=taus[i % 4],
            beta=betas[i % 3],
            eta=etas[(i // 7) % 4],
            max_iter=12,
            exhaust_budget=(i % 2 == 0),
        )
        outcome = hide(g, u, greedy, config, seed=i, partition=partitions[name])
        replayed = g
        for delta in outcome.deltas:
            replayed = apply_delta(replayed, delta)
        if replayed != outcome.graph:
            violations.append(f"run {i} ({name}, u={u}): graph is not the replayed delta")
        if detect(outcome.graph, greedy) != outcome.partition:
            violations.append(f"run {i} ({name}, u={u}): partition is not a re-detection")
        if outcome.used_budget > config.beta:
            violations.append(f"run {i}: used {outcome.used_budget} > beta {config.beta}")
        if config.exhaust_budget and outcome.used_budget != min(config.beta, g.n - 1):
            violations.append(
                f"run {i}: exhaust left budget at {outcome.used_budget}/{config.beta}"
            )
        flipped += bool(outcome.used_budget)
        truncated += bool(outcome.restarts)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    _report(
        capsys, "criterion 3 (loop invariants)", ok,
        f"1000 runs, {flipped} rewired, {truncated} truncated, "
        f"{len(violations)} violations in {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 60


def test_criterion_4_partial_budget_usage(capsys, kar_report):
    t0 = time.perf_counter()
    report, build_s = kar_report
    row = cell(report, "gradient", 0.5)
    used = row.used_mean
    elapsed = time.perf_counter() - t0 + build_s
    ok = 1.6 <= used <= 3.0 and row.beta == 3 and elapsed < 120
    _report(
        capsys, "criterion 4 (partial budget)", ok,
        f"mean used {used:.2f} of beta {row.beta} (SR {row.sr_mean:.2f}) in {elapsed:.1f}s",
    )
    assert row.beta == 3
    assert 1.6 <= used <= 3.0
    assert elapsed < 120


def test_criterion_5_outranks_random_and_degree(capsys, kar_report, cliques_f1_report):
    t0 = time.perf_counter()
    margins = []
    builds = kar_report[1] + cliques_f1_report[1]
    for label, (report, _) in (("kar", kar_report), ("cliques", cliques_f1_report)):
        for tau in (0.3, 0.5, 0.8):
            ours = cell(report, "gradient", tau).f1_mean
            for rival in ("random", "degree"):
                margins.append((label, tau, rival, ours - cell(report, rival, tau).f1_mean))
    elapsed = time.perf_counter() - t0 + builds
    worst = min(m for *_, m in margins)
    ok = worst >= 0 and elapsed < 300
    _report(
        capsys, "criterion 5 (F1 ordering)", ok,
        f"worst margin {worst:+.3f} across {len(margins)} comparisons in {elapsed:.1f}s",
    )
    assert worst >= 0, margins
    assert elapsed < 300


def test_criterion_6_threshold_monotonicity(capsys, kar_report):
    report, _ = kar_report
    rates = {}
    for tau in (0.3, 0.5, 0.8):
        recs = [r for r in report.records if r.method == "gradient" and r.tau == tau]
        rates[tau] = sum(r.similarity <= tau for r in recs) / len(recs)
    ok = rates[0.8] >= rates[0.5] >= rates[0.3]
    _report(
        capsys, "criterion 6 (threshold monotonicity)", ok,
        "SR " + " >= ".join(f"{rates[t]:.3f}@{t}" for t in (0.8, 0.5, 0.3)),
    )
    assert rates[0.8] >= rates[0.5] >= rates[0.3]


def test_criterion_7_touches_less_central_nodes(capsys, kar_report):
    report, _ = kar_report
    ours = cell(report, "gradient", 0.5).counterpart_pr_mean
    rival = cell(report, "centrality", 0.5).counterpart_pr_mean
    lo, hi = 0.045 * 0.5, 0.045 * 1.5
    ok = ours < rival and lo <= ours <= hi
    _report(
        capsys, "criterion 7 (counterpart pagerank)", ok,
        f"ours {ours:.4f} < centrality {rival:.4f}, band [{lo:.4f}, {hi:.4f}]",
    )
    assert ours < rival
    assert lo <= ours <= hi


def test_criterion_8_exhaustive_feasibility(capsys, cliques):
    t0 = time.perf_counter()
    greedy = DetectorSpec("greedy")
    base = detect(cliques, greedy)
    best_by_size: dict[int, dict[int, float]] = {}
    for u in (0, 4, 7):
        ref = base.community_members(u) - {u}
        others = [v for v in range(cliques.n) if v != u]
        best = {0: 1.0}
        for size in range(1, 5):
            best[size] = best[size - 1]
            for combo in combinations(others, size):
                g2 = apply_delta(cliques, EdgeDelta(u, frozenset(combo)))
                sim = dice_similarity(
                    ref, detect(g2, greedy).community_members(u) - {u}
                )
                best[size] = min(best[size], sim)
        best_by_size[u] = best

    violations: list[str] = []
    successes = 0
    preset = get_preset("kar")
    for u in (0, 4, 7):
        ref = base.community_members(u) - {u}
        for tau in (0.3, 0.5, 0.8):
            for beta in (1, 2, 3, 4):
                feasible = best_by_size[u][beta] <= tau
                for seed in (0, 1, 2):
                    outcome = hide(
                        cliques, u, greedy, preset.config(tau=tau, beta=beta), seed=seed
                    )
                    if outcome.success and not feasible:
                        violations.append(
                            f"u={u} tau={tau} beta={beta} seed={seed}: "
                            "claimed success where none exists"
                        )
                    if outcome.success:
                        successes += 1
                        replay = apply_delta(cliques, outcome.delta)
                        sim = dice_similarity(
                            ref, detect(replay, greedy).community_members(u) - {u}
                        )
                        if sim > tau or outcome.used_budget > beta:
                            violations.append(
                                f"u={u} tau={tau} beta={beta} seed={seed}: "
                                f"replay sim {sim:.3f} used {outcome.used_budget}"
                            )
    elapsed = time.perf_counter() - t0
    ok = not violations and successes > 0 and elapsed < 120
    _report(
        capsys, "criterion 8 (exhaustive feasibility)", ok,
        f"{successes} confirmed successes, {len(violations)} violations in {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert successes > 0
    assert elapsed < 120


def _oracle_violations(
    g: Graph, detector: DetectorSpec, beta: int
) -> tuple[list[str], int, int, dict[str, tuple[int, int, int]]]:
    """Every method on every target with a community, checked against the exact oracle.

    Returns the violations, the targets the oracle can hide within beta, the
    targets, and per method the hideable targets it hid, the flips it spent on
    them above the oracle's fewest, and its detector calls on all targets. A
    success must fit beta and replay to its similarity; a single-row method
    (all but roam, which edits a second row) must also spend at least the
    oracle's fewest flips, so never hide an unhideable target.
    """
    part = detect(g, detector)
    config = get_preset("kar").config(tau=0.5, beta=beta)
    targets = [u for u in range(g.n) if len(part.community_members(u)) > 1]
    fewest = {u: fewest_flips(g, u, detector, config, part) for u in targets}
    violations = []
    tally = {}
    for method in ALL_METHODS:
        hidden = excess = calls = 0
        for u in targets:
            outcome = attack(method, g, u, detector, config, seed=u, partition=part)
            calls += outcome.detections
            if not outcome.success:
                continue
            if fewest[u] is not None:
                hidden, excess = hidden + 1, excess + outcome.used_budget - fewest[u]
            replay = g
            for delta in outcome.deltas:
                replay = apply_delta(replay, delta)
            sim = dice_similarity(
                part.community_members(u) - {u}, detect(replay, detector).community_members(u) - {u}
            )
            where = f"{detector.name} n={g.n} {method} u={u}"
            if outcome.used_budget > beta or sim != pytest.approx(outcome.similarity, abs=1e-12):
                violations.append(f"{where}: used {outcome.used_budget}, replay sim {sim:.3f}")
            if method != "roam" and (fewest[u] is None or outcome.used_budget < fewest[u]):
                violations.append(f"{where}: {outcome.used_budget} flips, oracle {fewest[u]}")
        tally[method] = (hidden, excess, calls)
    return violations, sum(f is not None for f in fewest.values()), len(targets), tally


def test_criterion_11_no_attack_beats_the_exact_oracle(capsys, kar):
    t0 = time.perf_counter()
    violations, hideable, targets, tally = _oracle_violations(kar, DetectorSpec("greedy"), 2)
    kar_counts = (hideable, targets)
    found, hideable_1, _, tally_1 = _oracle_violations(kar, DetectorSpec("greedy"), 1)
    violations += found
    for n in (9, 11):
        for seed in range(4):
            for algo in ("greedy", "louvain", "label_propagation"):
                found, h, t, _ = _oracle_violations(random_graph(n, 0.5, seed), DetectorSpec(algo), 3)
                violations += found
                hideable, targets = hideable + h, targets + t
    elapsed = time.perf_counter() - t0
    ok = not violations and kar_counts == (29, 34) and hideable < targets
    # per method, at beta 1 then 2: hideable targets hidden, flips above the
    # oracle's fewest on them, and detector calls per hidden target
    per_method = "; ".join(
        f"{m} " + ", ".join(
            f"{h}/{best} +{x} {c / max(h, 1):.1f}"
            for (h, x, c), best in ((tally_1[m], hideable_1), (tally[m], kar_counts[0]))
        )
        for m in ALL_METHODS
    )
    _report(
        capsys, "criterion 11 (exact fewest-flips oracle)", ok,
        f"karate {kar_counts[0]} of {kar_counts[1]} hideable at beta 2; {hideable} of "
        f"{targets} in all; {len(violations)} violations in {elapsed:.1f}s; karate at "
        f"beta 1 and 2, hidden/hideable +excess flips calls per hide: {per_method}",
    )
    assert not violations, violations[:5]
    assert kar_counts == (29, 34)
    assert hideable < targets  # some targets are unhideable, so that check bites


def strip_wall(csv_text: str, drop: tuple[str, ...]) -> list[tuple[str, ...]]:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    return [tuple(row[i] for i in keep) for row in rows]


def test_criterion_9_parallel_determinism(capsys, tmp_path, pool_sizes):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "graph": "cliques",
                "preset": "kar",
                "methods": ["gradient", "dice", "random"],
                "taus": [0.5],
                "beta_factors": [1.0],
                "runs": 2,
                "seed": 0,
            }
        ),
        "utf-8",
    )
    outputs = []
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        rc = cli_main(
            ["benchmark", "--spec", str(spec), "--out", str(out_dir), "--jobs", str(jobs)]
        )
        assert rc == 0
        summary = strip_wall((out_dir / "summary.csv").read_text("utf-8"), ("wall_seconds",))
        records = strip_wall(
            (out_dir / "records.csv").read_text("utf-8"), ("wall_seconds",)
        )
        outputs.append((summary, records))
    capsys.readouterr()  # swallow the printed summary paths
    assert pool_sizes == [2]  # --jobs 2 ran in two worker processes
    ok = outputs[0] == outputs[1]
    _report(
        capsys, "criterion 9 (parallel determinism)", ok,
        f"{len(outputs[0][1]) - 1} records identical across --jobs 1/2",
    )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_criterion_10_every_tuned_preset_searches(capsys, kar):
    # karate under greedy, tau 0.5, beta 3, every target whose community has
    # another member, each attack seeded with the target's id
    greedy = DetectorSpec("greedy")
    part = detect(kar, greedy)
    before = part.membership(kar.n)
    targets = [u for u in range(kar.n) if len(part.community_members(u)) > 1]

    def calls_and_f1(outcomes) -> tuple[int, float]:
        success_rate = float(np.mean([o.success for o in outcomes]))
        mean_nmi = float(np.mean([nmi(before, o.partition.membership(kar.n)) for o in outcomes]))
        return sum(o.detections for o in outcomes), f1_score(success_rate, mean_nmi)

    results = {}
    for name in ("kar", "words", "vote", "fb-75"):
        config = get_preset(name).config(tau=0.5, beta=3)
        calls, ours = calls_and_f1(
            [hide(kar, u, greedy, config, seed=u, partition=part) for u in targets]
        )
        _, rival = calls_and_f1(
            [run_baseline("random", kar, u, greedy, config, seed=u, partition=part)
             for u in targets]
        )
        results[name] = (calls, ours, rival)
    ok = all(calls >= 1 and ours > rival for calls, ours, rival in results.values())
    _report(
        capsys, "criterion 10 (every tuned preset searches)", ok,
        "; ".join(
            f"{name} {calls} calls, F1 {ours:.3f} vs random {rival:.3f}"
            for name, (calls, ours, rival) in results.items()
        ),
    )
    for name, (calls, ours, rival) in results.items():
        assert calls >= 1, name
        assert ours > rival, (name, ours, rival)


# targets hidden on karate under greedy with the kar preset at beta 1, 2 and 3,
# as measured when this check landed: floors, never to be lowered
GRADIENT_HIDES_KARATE = {1: 19, 2: 26, 3: 28}
# the sign-aware random rows at gradient's calls, in the same cells: the search
# leads them by 5, 2 and 3 targets, a margin reported, not asserted
SIGN_AWARE_HIDES_KARATE = {1: 14, 2: 24, 3: 25}


def _hides_at_equal_calls(g, u, detector, part, config, pool, calls) -> bool:
    """Whether one of `calls` rows of beta nodes drawn from `pool` hides u."""
    rng = np.random.default_rng(u)
    score = Scorer(g, u, detector, part)
    for _ in range(calls):
        flips = rng.choice(pool, size=min(config.beta, len(pool)), replace=False)
        if config.hides(score((EdgeDelta(u, flips.tolist()),))[0], flips.size):
            return True
    return False


def test_criterion_12_the_search_beats_its_own_target_vector(capsys, kar):
    # karate under greedy, kar preset, tau 0.5, every attack seeded with its
    # target's id and given the partition and scores. Static top-beta scores
    # once the beta coordinates that pull hardest toward the target vector,
    # (1 - 2 row) (target - row), the target itself left out. The equal-calls
    # references draw, per target, up to as many rows as the search made
    # detector calls and stop at the first that hides: "uniform" draws beta of
    # the other nodes, "sign-aware" beta of the in-community neighbours (to
    # drop) and the outside non-neighbours (to add).
    greedy = DetectorSpec("greedy")
    part = detect(kar, greedy)
    targets = [u for u in range(kar.n) if len(part.community_members(u)) > 1]
    scores = structural_scores(kar, part, get_preset("kar").weights)
    results = {}
    for beta in GRADIENT_HIDES_KARATE:
        config = get_preset("kar").config(tau=0.5, beta=beta)
        searched = [
            hide(kar, u, greedy, config, seed=u, partition=part, scores=scores) for u in targets
        ]
        static = uniform = sign_aware = 0
        for u, outcome in zip(targets, searched):
            row = kar.row(u).astype(float)
            others = [v for v in range(kar.n) if v != u]
            pull = (1.0 - 2.0 * row) * (promising_actions(u, part, scores) - row)
            flips = top_ranked(pull, others, beta)
            similarity = Scorer(kar, u, greedy, part)((EdgeDelta(u, flips),))[0]
            static += config.hides(similarity, len(flips))
            comm = part.community_members(u)
            signed = [v for v in others if (v in comm) == bool(row[v])]
            calls = outcome.detections
            uniform += _hides_at_equal_calls(kar, u, greedy, part, config, others, calls)
            sign_aware += _hides_at_equal_calls(kar, u, greedy, part, config, signed, calls)
        results[beta] = (
            sum(o.success for o in searched), sum(o.detections for o in searched), static,
            uniform, sign_aware,
        )
    ok = all(
        hidden >= GRADIENT_HIDES_KARATE[beta] and hidden > static and hidden > uniform
        and sign_aware == SIGN_AWARE_HIDES_KARATE[beta]
        for beta, (hidden, _, static, uniform, sign_aware) in results.items()
    )
    _report(
        capsys, "criterion 12 (search beats static top-beta and uniform rows at equal calls)",
        ok,
        "; ".join(
            f"beta {beta}: gradient {hidden} of {len(targets)} ({calls} calls), "
            f"static {static}, uniform {uniform}, sign-aware {sign_aware}"
            for beta, (hidden, calls, static, uniform, sign_aware) in results.items()
        ),
    )
    for beta, (hidden, _, static, uniform, sign_aware) in results.items():
        assert hidden >= GRADIENT_HIDES_KARATE[beta], (beta, hidden)
        assert hidden > static, (beta, hidden, static)
        assert hidden > uniform, (beta, hidden, uniform)
        assert sign_aware == SIGN_AWARE_HIDES_KARATE[beta], (beta, sign_aware)

"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a `[acceptance] ...: PASS/FAIL` line (visible with -s or
through the capsys bypass) before asserting, so a full run always shows
the per-criterion scoreboard.
"""

import itertools
import json
import math
import time
from collections import Counter
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
    run_experiment,
)
from cmhide.cli import main as cli_main
from cmhide.detectors import modularity
from cmhide.gradient import dice_similarity, loss_gradient, loss_value
from cmhide.graph import Graph
from cmhide.scoring import betweenness

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


def random_small_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
    return Graph(
        [(str(a), str(b)) for a, b in edges], node_labels=[str(v) for v in range(n)]
    )


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def brute_pagerank(g: Graph, damping: float = 0.85) -> np.ndarray:
    n = g.n
    link = np.zeros((n, n))
    for u in range(n):
        nbrs = g.neighbors(u)
        if nbrs:
            for v in nbrs:
                link[v, u] = 1.0 / len(nbrs)
        else:
            link[:, u] = 1.0 / n
    return np.linalg.solve(np.eye(n) - damping * link, np.full(n, (1 - damping) / n))


def brute_betweenness(g: Graph) -> np.ndarray:
    n = g.n
    bc = np.zeros(n)
    for s, t in combinations(range(n), 2):
        dist = {s: 0}
        frontier = [s]
        while frontier and t not in dist:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if t not in dist:
            continue
        paths = [[t]]
        while any(p[-1] != s for p in paths):
            paths = [
                p + [w]
                for p in paths
                for w in g.neighbors(p[-1])
                if dist.get(w, -1) == dist[p[-1]] - 1
            ]
        for p in paths:
            for v in p[1:-1]:
                bc[v] += 1.0 / len(paths)
    return bc


def brute_modularity(g: Graph, part: Partition) -> float:
    if g.m == 0:
        return 0.0
    member = part.membership(g.n)
    two_m = 2.0 * g.m
    q = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if member[i] != member[j]:
                continue
            a = 1.0 if i != j and g.has_edge(i, j) else 0.0
            q += a - g.degree(i) * g.degree(j) / two_m
    return q / two_m


def brute_nmi(a, b) -> float:
    n = len(a)
    ca, cb = Counter(a), Counter(b)
    joint = Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    info = sum(
        c / n * math.log((c / n) / (ca[x] / n * cb[y] / n))
        for (x, y), c in joint.items()
    )
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, info / denom))


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
    graphs += [random_small_graph(n, seed) for n in (5, 6, 7, 8) for seed in range(7)]
    graphs += [
        Graph([(str(i), str(i + 1)) for i in range(7)]),  # path
        Graph([("0", str(i)) for i in range(1, 8)]),  # star
        Graph([(str(i), str((i + 1) % 8)) for i in range(8)]),  # cycle
        Graph([(str(a), str(b)) for a, b in combinations(range(8), 2)]),  # complete
    ]
    greedy = DetectorSpec("greedy")
    for g in graphs:
        max_err = max(max_err, float(np.abs(pagerank(g, tol=1e-12) - brute_pagerank(g)).max()))
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
    flipped = restarted = 0
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
        restarted += bool(outcome.restarts)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    _report(
        capsys, "criterion 3 (loop invariants)", ok,
        f"1000 runs, {flipped} rewired, {restarted} restarted, "
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


def strip_wall(csv_text: str, drop: tuple[str, ...]) -> list[tuple[str, ...]]:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    return [tuple(row[i] for i in keep) for row in rows]


def test_criterion_9_parallel_determinism(capsys, tmp_path):
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
        summary = strip_wall((out_dir / "summary.csv").read_text("utf-8"), ("wall_ms_mean",))
        records = strip_wall(
            (out_dir / "records.csv").read_text("utf-8"), ("wall_seconds",)
        )
        outputs.append((summary, records))
    capsys.readouterr()  # swallow the printed summary paths
    ok = outputs[0] == outputs[1]
    _report(
        capsys, "criterion 9 (parallel determinism)", ok,
        f"{len(outputs[0][1]) - 1} records identical across --jobs 1/2",
    )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]

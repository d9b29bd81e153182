import concurrent.futures
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

import cmhide
from cmhide import (
    ALL_METHODS,
    ConfigError,
    DetectorSpec,
    ExperimentSpec,
    Partition,
    budget_for,
    f1_score,
    get_preset,
    nmi,
    pagerank,
    run_experiment,
)
from cmhide.cli import report_to_json, write_csv
from cmhide.evaluation import SummaryRow, TargetRecord, sample_targets, summarise
from cmhide import baselines, detectors, evaluation, gradient, scoring
from cmhide.gradient import CONFIG_KEYS
from cmhide.graph import Graph

from conftest import brute_nmi


def test_nmi_boundary_cases():
    assert nmi([0, 0, 1, 1, 2], [5, 5, 7, 7, 9]) == pytest.approx(1.0, abs=1e-12)
    assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0  # no shared information
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0  # both sides carry zero entropy
    # renaming communities is free
    assert nmi([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_matches_contingency_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        a = rng.integers(0, 3, n).tolist()
        b = rng.integers(0, 4, n).tolist()
        got = nmi(a, b)
        assert got == pytest.approx(brute_nmi(a, b), abs=1e-12)
        assert got == pytest.approx(nmi(b, a), abs=1e-12)


def test_nmi_input_validation():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])


def test_f1_score_is_the_harmonic_mean():
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.9) == 0.0
    assert f1_score(0.0, 0.0) == 0.0  # no mean to take: defined as 0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    assert f1_score(0.3, 0.7) == f1_score(0.7, 0.3)


def test_budget_scales_with_mean_degree(kar):
    # kar: m/n + 1 = 78/34 + 1, floored at factors 0.5 / 1 / 2 gives 1, 3, 6
    assert budget_for(kar, 0.5, mu_plus_one=True) == 1
    assert budget_for(kar, 1.0, mu_plus_one=True) == 3
    assert budget_for(kar, 2.0, mu_plus_one=True) == 6
    assert budget_for(kar, 1.0) == 2
    ring = Graph([(str(i), str((i + 1) % 5)) for i in range(5)])
    assert budget_for(ring, 0.5) == 1  # floor(0.5) is clamped up to 1
    # a row has n - 1 flips: no budget exceeds them, and mu * 1e308, which
    # overflows to infinity, is capped like any other
    assert budget_for(ring, 10.0) == 4
    assert budget_for(kar, 20.0) == budget_for(kar, 1e308) == budget_for(kar, 1e308, True) == 33
    for factor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="budget factor must be positive and finite"):
            budget_for(kar, factor)


# blocks of 10, 8, 5, 3 and 4 members: 30/50/80 percent of the largest
# want 3, 5 and 8, which the 3-, 5- and 8-member blocks match exactly
SIZED_BLOCKS = [
    list(range(10)), list(range(10, 18)), list(range(18, 23)), [23, 24, 25], list(range(26, 30))
]


def test_sample_targets_picks_closest_sized_communities():
    targets = sample_targets(Partition.from_communities(SIZED_BLOCKS), seed=0, cap=100)
    assert sorted(targets) == list(range(10, 26))
    assert sample_targets(Partition.from_communities(SIZED_BLOCKS), seed=0, cap=100) == targets


def test_sample_targets_breaks_size_ties_toward_earlier_community():
    # wanted sizes 1.2 and 2.0 tie between the two pairs; 3.2 picks the four
    part = Partition.from_communities([[0, 1, 2, 3], [4, 5], [6, 7]])
    assert set(sample_targets(part, seed=1, cap=100)) == set(range(6))


def test_sample_targets_caps_skips_singletons_and_dedupes():
    capped = sample_targets(Partition.from_communities(SIZED_BLOCKS), seed=5, cap=2)
    assert len(capped) == 6
    for block in SIZED_BLOCKS[1:4]:
        assert len(set(capped) & set(block)) == 2
    # every fraction picks the one block with two or more members
    part = Partition.from_communities([list(range(8)), [8]])
    assert sorted(sample_targets(part, seed=5, cap=100)) == list(range(8))
    singletons = Partition.from_communities([[0], [1], [2]])
    assert sample_targets(singletons, seed=0, cap=100) == ()


def mk_record(run, target, success, similarity, used, nmi_val, counterparts, wall):
    return TargetRecord(
        run=run,
        method="m",
        tau=0.5,
        beta_factor=1.0,
        beta=3,
        target=target,
        success=success,
        similarity=similarity,
        attack_similarity=similarity,
        used_budget=used,
        nmi=nmi_val,
        counterparts=counterparts,
        iterations=0,
        detections=0,
        restarts=0,
        wall_seconds=wall,
    )


def test_summarise_aggregates_per_run_then_across_runs():
    g = Graph([("a", "b"), ("b", "c")])
    pr = pagerank(g)
    records = [
        mk_record(0, 0, True, 0.2, 2, 0.8, (0, 1), 0.25),
        mk_record(0, 2, False, 0.9, 3, 0.6, (2,), 0.5),
        mk_record(1, 0, True, 0.1, 1, 1.0, (1,), 0.25),
    ]
    (row,) = summarise(records, g, runs=2)
    assert (row.method, row.tau, row.beta_factor, row.beta) == ("m", 0.5, 1.0, 3)
    assert row.runs == 2 and row.targets == 3
    assert row.sr_mean == pytest.approx(np.mean([0.5, 1.0]))
    assert row.sr_std == pytest.approx(np.std([0.5, 1.0]))
    assert row.nmi_mean == pytest.approx(np.mean([0.7, 1.0]))
    f1s = [f1_score(0.5, 0.7), f1_score(1.0, 1.0)]
    assert row.f1_mean == pytest.approx(np.mean(f1s))
    assert row.f1_std == pytest.approx(np.std(f1s))
    assert row.used_mean == pytest.approx(np.mean([2, 3, 1]))
    assert row.used_success_mean == pytest.approx(np.mean([2, 1]))
    pooled_run0 = np.mean([pr[0], pr[1], pr[2]])
    pooled_run1 = pr[1]
    assert row.counterpart_pr_mean == pytest.approx(np.mean([pooled_run0, pooled_run1]))
    assert row.counterpart_pr_std == pytest.approx(np.std([pooled_run0, pooled_run1]))
    assert row.wall_seconds == pytest.approx(1.0)


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(methods=("gradient", "strongest"))
    with pytest.raises(ConfigError):
        ExperimentSpec(runs=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(jobs=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(max_targets=0)
    for taus in ((1.0,), (0.5, float("nan"))):
        with pytest.raises(ConfigError, match="tau"):
            ExperimentSpec(taus=taus)
    for factors in ((0.0,), (1.0, float("inf"))):
        with pytest.raises(ConfigError, match="budget factor"):
            ExperimentSpec(beta_factors=factors)
    for name in ("runs", "seed", "max_targets", "jobs"):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExperimentSpec(**{name: 1.5})
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExperimentSpec(**{name: True})
    for kwargs in (dict(taus=("0.5",)), dict(beta_factors=(True,))):
        with pytest.raises(ConfigError, match="must be a"):
            ExperimentSpec(**kwargs)
    with pytest.raises(ConfigError, match="mu_plus_one must be true or false"):
        ExperimentSpec(mu_plus_one="false")
    for axis in (dict(methods=()), dict(taus=[]), dict(beta_factors=())):
        with pytest.raises(ConfigError, match=f"{next(iter(axis))} must list one or more"):
            ExperimentSpec(**axis)
    for axis in (dict(methods=("dice", "dice")), dict(taus=(0.5, 0.5)), dict(beta_factors=(1, 1.0))):
        with pytest.raises(ConfigError, match=f"{next(iter(axis))} must list one or more distinct"):
            ExperimentSpec(**axis)
    spec = ExperimentSpec(detector=DetectorSpec("greedy"))
    assert spec.effective_eval_detector == spec.detector
    louvain = ExperimentSpec(eval_detector=DetectorSpec("louvain"))
    assert louvain.effective_eval_detector == DetectorSpec("louvain")


def test_float_fields_store_floats():
    # attack seeds hash repr(tau) and repr(beta_factor): 1 and 1.0 must run alike
    spec = ExperimentSpec(taus=[0, 0.5], beta_factors=(1, 2), config=cmhide.HidingConfig(eta=1))
    assert spec.taus == (0.0, 0.5) and spec.beta_factors == (1.0, 2.0)
    assert [repr(x) for x in spec.taus + spec.beta_factors] == ["0.0", "0.5", "1.0", "2.0"]
    assert repr(spec.config.eta) == "1.0"


@pytest.fixture(scope="module")
def cliques_report(cliques):
    spec = ExperimentSpec(
        methods=("gradient", "gradient_projected", "dice"),
        taus=(0.5,),
        beta_factors=(1.0,),
        runs=2,
        seed=0,
        config=get_preset("kar").config(),
    )
    return spec, run_experiment(cliques, spec)


def test_experiment_produces_full_sorted_grid(cliques, cliques_report):
    spec, report = cliques_report
    # both communities have five members, so each run samples one of them
    assert len(report.records) == 2 * 3 * 5
    keys = [(r.method, r.tau, r.beta_factor, r.run, r.target) for r in report.records]
    assert keys == sorted(keys)
    assert {r.beta for r in report.records} == {budget_for(cliques, 1.0)}
    assert all(r.used_budget <= r.beta for r in report.records)
    projected = [r for r in report.records if r.method == "gradient_projected"]
    assert all(r.used_budget == r.beta for r in projected)
    assert len(report.summary) == 3
    assert report.meta["runs"] == 2 and report.meta["n"] == cliques.n


def test_experiment_is_deterministic_across_jobs(cliques, cliques_report, pool_sizes):
    spec, report = cliques_report
    parallel = run_experiment(cliques, replace(spec, jobs=2))
    assert pool_sizes == [2]
    assert parallel.records == report.records
    parallel.meta.pop("wall_seconds")
    assert parallel.meta == {k: v for k, v in report.meta.items() if k != "wall_seconds"}


def test_report_meta_records_the_spec_it_ran(cliques, cliques_report):
    spec, report = cliques_report
    meta = report.meta
    # the settings a config may set; each cell and method set tau, beta and exhaust_budget
    assert meta["config"] == {k: asdict(spec.config)[k] for k in CONFIG_KEYS}
    assert not {"tau", "beta", "exhaust_budget"} & set(meta["config"])
    assert meta["max_targets"] == spec.max_targets
    assert meta["eval_detector"] == asdict(spec.detector)  # the detector that scored
    assert (meta["n"], meta["m"], meta["runs"], meta["seed"]) == (cliques.n, cliques.m, 2, 0)
    assert list(meta["methods"]) == list(spec.methods) and meta["wall_seconds"] > 0.0
    assert "jobs" not in meta


def test_pool_starts_no_more_workers_than_cells_or_cpus(cliques, cliques_report, monkeypatch):
    # the fake pool records its size and runs the cells in this process, so
    # no worker is ever forked
    spec, report = cliques_report
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(evaluation, "_shared", None)
    for cpus, want in ((64, [2]), (1, [])):  # 2 cells; one CPU runs them serially
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pooled = run_experiment(cliques, replace(spec, jobs=10_000))
        assert sizes == want
        assert pooled.records == report.records


def test_records_take_the_wall_time_their_attack_stamps(kar, monkeypatch):
    # one clock per attack: a record's wall time is its outcome's, not a second reading
    spec = ExperimentSpec(
        methods=("gradient_projected", "degree"), taus=(0.5,), beta_factors=(0.5, 1.0),
        runs=2, seed=3, max_targets=2, config=get_preset("kar").config(),
    )
    outcomes = {}
    real_attack = evaluation.attack

    def recording(method, g, u, detector, config, seed, *rest):
        outcome = real_attack(method, g, u, detector, config, seed, *rest)
        outcomes[seed] = outcome
        return outcome

    monkeypatch.setattr(evaluation, "attack", recording)
    report = run_experiment(kar, spec)
    assert len(outcomes) == len(report.records) > 0
    for r in report.records:
        seed = evaluation.derive_seed(
            spec.seed, "attack", r.run, r.method, repr(r.tau), repr(r.beta_factor), r.target
        )
        assert r.wall_seconds == outcomes[seed].wall_seconds > 0.0
    for row in report.summary:
        cell = [r for r in report.records if (r.method, r.tau, r.beta_factor)
                == (row.method, row.tau, row.beta_factor)]
        assert row.wall_seconds == sum(r.wall_seconds for r in cell)
    # two runs' rows compare equal whatever their wall times read
    for row in (report.records[0], report.summary[0]):
        assert replace(row, wall_seconds=-1.0) == row


@pytest.mark.parametrize("eval_detector", [None, DetectorSpec("louvain", seed=3)])
def test_experiment_computes_graph_invariants_once(kar, monkeypatch, eval_detector):
    betweenness_calls = []
    unperturbed_detects = []

    def counted_betweenness(g):
        betweenness_calls.append(g)
        return scoring_betweenness(g)

    def counted_detect(g, spec):
        if g is kar:
            unperturbed_detects.append(spec.name)
        return detectors.detect(g, spec)

    scoring_betweenness = scoring.betweenness
    for module in (scoring, baselines):
        monkeypatch.setattr(module, "betweenness", counted_betweenness)
    for module in (evaluation, baselines, gradient):
        monkeypatch.setattr(module, "detect", counted_detect)
    spec = ExperimentSpec(
        taus=(0.3, 0.5), beta_factors=(0.5, 1.0), runs=2, seed=1, max_targets=2,
        detector=DetectorSpec("greedy"), eval_detector=eval_detector,
        config=get_preset("kar").config(),
    )
    report = run_experiment(kar, spec)
    assert {r.method for r in report.records} == set(ALL_METHODS)
    assert {(r.run, r.tau, r.beta_factor) for r in report.records} == {
        (run, tau, bf) for run in (0, 1) for tau in (0.3, 0.5) for bf in (0.5, 1.0)
    }
    assert betweenness_calls == [kar]
    assert report.meta["eval_detector"] == asdict(eval_detector or spec.detector)
    expected = ["greedy"] if eval_detector is None else ["greedy", "louvain"]
    assert sorted(unperturbed_detects) == expected


def test_a_target_alone_under_the_eval_detector_still_gives_records(kar):
    # the attack detector puts every target in a community; the eval partition
    # here leaves each one alone, so its eval reference is empty and scores 0
    spec = ExperimentSpec(
        methods=("gradient", "roam", "random"), taus=(0.5,), beta_factors=(1.0,), runs=1,
        seed=1, max_targets=3, detector=DetectorSpec("greedy"),
        eval_detector=DetectorSpec("louvain"), config=get_preset("kar").config(),
    )
    inv = evaluation._invariants(kar, spec)
    targets = sample_targets(inv.part_attack, evaluation.derive_seed(1, "targets", 0), 3)
    alone = Partition.from_labels(
        ("alone", v) if v in targets else c for v, c in enumerate(inv.part_eval.labels)
    )
    inv = replace(inv, part_eval=alone, labels_before=alone.membership(kar.n))
    records = evaluation._run_cell(kar, spec, inv, 0, 0.5, 1.0)
    assert len(records) == 3 * len(targets) > 0
    assert all(r.similarity == 0.0 and r.success for r in records)


def test_import_leaves_process_pools_unloaded():
    # only run_experiment with jobs > 1 needs them, and only the CLI writes CSV
    code = (
        "import sys, cmhide; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'csv') if m in sys.modules])"
    )
    src = str(Path(cmhide.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_summary_csv_tells_budget_factors_apart(kar):
    # with the kar preset both factors floor to beta = 1; only beta_factor
    # tells the two rows apart
    preset = get_preset("kar")
    spec = ExperimentSpec(
        methods=("dice",), taus=(0.5,), beta_factors=(0.4, 0.5), runs=1,
        config=preset.config(), mu_plus_one=preset.mu_plus_one, max_targets=3,
    )
    report = run_experiment(kar, spec)
    sink = io.StringIO()
    write_csv([f.name for f in fields(SummaryRow)], map(astuple, report.summary), sink)
    header, *lines = sink.getvalue().splitlines()
    assert header.split(",") == [f.name for f in fields(SummaryRow)]
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [(r["beta_factor"], r["beta"]) for r in rows] == [("0.4", "1"), ("0.5", "1")]
    for row, cells in zip(report.summary, rows):
        for f in fields(SummaryRow):
            value = getattr(row, f.name)
            expected = pytest.approx(value, rel=1e-11) if isinstance(value, float) else value
            assert type(value)(cells[f.name]) == expected, f.name


def test_records_csv_round_trips(cliques_report):
    _, report = cliques_report
    sink = io.StringIO()
    write_csv([f.name for f in fields(TargetRecord)], map(astuple, report.records), sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0].startswith("run,method,tau,")
    assert len(lines) == len(report.records) + 1
    cols = lines[0].split(",")
    first = dict(zip(cols, lines[1].split(",")))
    rec = report.records[0]
    assert first["method"] == rec.method
    assert first["success"] in {"0", "1"}
    assert first["counterparts"] == ";".join(str(v) for v in rec.counterparts)


def test_report_serialises_to_json(cliques_report):
    _, report = cliques_report
    payload = json.loads(report_to_json(report))
    assert set(payload) == {"meta", "records", "summary"}
    assert len(payload["records"]) == len(report.records)
    assert payload["summary"][0]["method"] == report.summary[0].method
    assert "used_success_mean" in payload["summary"][0]



# Records of two small grids over every method, taken before the method
# dispatch was folded into `attack`; a change that alters any of them is a
# behaviour change and must be declared. Each line of
# tests/data/records_<name>.txt holds the fields named in its header: the
# discrete ones must match exactly, the last three (similarities, NMI) to 1e-9.
DATA = Path(__file__).parent / "data"


def _discrete_fields(r: TargetRecord) -> str:
    counterparts = ";".join(map(str, r.counterparts)) or "-"
    return " ".join(map(str, (
        r.method, r.tau, r.beta_factor, r.beta, r.run, r.target, int(r.success),
        r.used_budget, counterparts, r.iterations, r.detections, r.restarts,
    )))


@pytest.mark.parametrize(
    "name,preset,overrides,grid",
    [
        ("kar_greedy", "kar", {}, dict(max_targets=4)),
        (
            "vote_louvain", "vote", dict(eta=0.3),
            dict(max_targets=1, detector=DetectorSpec("louvain"),
                 eval_detector=DetectorSpec("greedy")),
        ),
    ],
    ids=["kar_greedy", "vote_louvain"],
)
def test_records_are_locked_for_every_method(kar, name, preset, overrides, grid):
    p = get_preset(preset)
    spec = ExperimentSpec(
        config=replace(p.config(), **overrides), mu_plus_one=p.mu_plus_one,
        taus=(0.3, 0.8), beta_factors=(0.5, 2.0), runs=1, **grid,
    )
    assert spec.methods == ALL_METHODS
    records = run_experiment(kar, spec).records
    text = (DATA / f"records_{name}.txt").read_text("utf-8")
    lines = [line.split() for line in text.splitlines() if not line.startswith("#")]
    assert len(records) == len(lines)
    for r, fields in zip(records, lines):
        assert _discrete_fields(r) == " ".join(fields[:12])
        want = tuple(float(x) for x in fields[12:])
        assert (r.similarity, r.attack_similarity, r.nmi) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_attack_seed_defaults_to_0(kar, greedy, method):
    config = get_preset("kar").config(beta=3)
    u = kar.id_of("9")
    unseeded = evaluation.attack(method, kar, u, greedy, config)
    assert unseeded == evaluation.attack(method, kar, u, greedy, config, seed=0)
    if method == "random":  # the seed is used at all
        assert unseeded != evaluation.attack(method, kar, u, greedy, config, seed=5)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_no_method_spends_more_than_a_row(kar, greedy, method):
    config = replace(get_preset("kar").config(beta=10**20), max_iter=5)  # keeps the search short
    outcome = evaluation.attack(method, kar, kar.id_of("9"), greedy, config, seed=0)
    assert outcome.used_budget <= kar.n - 1 == 33
    if method in ("gradient_projected", "degree", "centrality"):  # each spends the budget
        assert outcome.used_budget == 33


@pytest.mark.parametrize("seed", [-1, 0.5, True])
def test_attack_rejects_a_bad_seed(kar, greedy, seed):
    config = get_preset("kar").config(beta=3)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        cmhide.hide(kar, 9, greedy, config, seed=seed)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        cmhide.run_baseline("random", kar, 9, greedy, config, seed=seed)


def test_attack_rejects_an_unknown_method_listing_all(kar, greedy):
    with pytest.raises(ConfigError, match="unknown method 'nope'; available: ") as err:
        evaluation.attack("nope", kar, 0, greedy, cmhide.HidingConfig())
    assert str(err.value).split("available: ")[1].split(", ") == list(ALL_METHODS)
    assert len(ALL_METHODS) == 7


def test_method_name_alone_picks_projection(kar, greedy):
    config = get_preset("kar").config(tau=0.5, beta=3)
    u = kar.id_of("9")
    projecting = replace(config, exhaust_budget=True)
    plain = evaluation.attack("gradient", kar, u, greedy, config, seed=7)
    assert evaluation.attack("gradient", kar, u, greedy, projecting, seed=7) == plain
    projected = evaluation.attack("gradient_projected", kar, u, greedy, config, seed=7)
    assert projected == evaluation.attack("gradient_projected", kar, u, greedy, projecting, seed=7)
    assert projected == gradient.hide_projected(kar, u, greedy, config, seed=7)
    assert projected.used_budget == 3 > plain.used_budget


def test_each_attack_enters_one_entry_point_as_the_tracer_sees_it(kar, greedy, monkeypatch):
    """What perfbench's tracer counts on: every binding of hide, run_baseline and
    project_to_budget is wrapped, and each attack reaches exactly one entry point,
    the right one, which calls neither the other nor a projection it was not asked for."""
    calls, depth = [], 0

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            nonlocal depth
            calls.append((name, depth))
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cmhide"]
    wrappers = {}
    for fn in (gradient.hide, baselines.run_baseline, gradient.project_to_budget):
        wrappers[fn.__name__] = recorder(fn.__name__, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrappers[fn.__name__])
    assert evaluation.hide is wrappers["hide"]
    assert evaluation.run_baseline is wrappers["run_baseline"]
    assert gradient.project_to_budget is wrappers["project_to_budget"]
    config = get_preset("kar").config(tau=0.5, beta=3)
    for method in ALL_METHODS:
        calls.clear()
        evaluation.attack(method, kar, kar.id_of("9"), greedy, config, seed=7)
        expected = {
            "gradient": [("hide", 0)],
            "gradient_projected": [("hide", 0), ("project_to_budget", 1)],
        }.get(method, [("run_baseline", 0)])
        assert calls == expected, method

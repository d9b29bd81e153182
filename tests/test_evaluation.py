import io
import json
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace
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
from cmhide.evaluation import (
    SUMMARY_COLUMNS,
    TargetRecord,
    report_to_json,
    sample_targets,
    summarise,
    write_records_csv,
    write_summary_csv,
)
from cmhide import baselines, detectors, evaluation, gradient, scoring
from cmhide.graph import Graph


def brute_nmi(a, b):
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
    for factor in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            budget_for(kar, factor)


def test_sample_targets_picks_closest_sized_communities():
    part = Partition.from_communities(
        [list(range(6)), [6, 7, 8], [9, 10]]
    )
    targets = sample_targets(part, seed=0, fractions=(0.3, 0.5, 0.8))
    # wanted sizes 1.8 / 3.0 / 4.8 resolve to the 2-, 3- and 6-member blocks
    assert set(targets) == set(range(11))
    assert len(targets) == len(set(targets)) == 11


def test_sample_targets_breaks_size_ties_toward_earlier_community():
    part = Partition.from_communities([[0, 1, 2, 3], [4, 5], [6, 7]])
    targets = sample_targets(part, seed=1, fractions=(0.5,))
    assert set(targets) <= {4, 5}


def test_sample_targets_caps_skips_singletons_and_dedupes():
    part = Partition.from_communities([list(range(8)), [8]])
    capped = sample_targets(part, seed=5, fractions=(0.5,), cap=3)
    assert len(capped) == 3
    assert set(capped) <= set(range(8))  # the singleton is never eligible
    doubled = sample_targets(part, seed=5, fractions=(0.5, 0.5))
    assert len(doubled) == len(set(doubled)) == 8
    assert sample_targets(part, seed=5, fractions=(0.5,)) == sample_targets(
        part, seed=5, fractions=(0.5,)
    )
    singletons = Partition.from_communities([[0], [1], [2]])
    assert sample_targets(singletons, seed=0) == ()


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
    for kwargs in (dict(taus=("0.5",)), dict(beta_factors=(True,)), dict(fractions="0.5")):
        with pytest.raises(ConfigError, match="must be a"):
            ExperimentSpec(**kwargs)
    with pytest.raises(ConfigError, match="mu_plus_one must be true or false"):
        ExperimentSpec(mu_plus_one="false")
    for fractions in ((), (float("nan"),), (0.0,), (0.5, 1.5)):
        with pytest.raises(ConfigError, match="fractions"):
            ExperimentSpec(fractions=fractions)
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


def test_experiment_is_deterministic_across_jobs(cliques, cliques_report):
    spec, report = cliques_report
    parallel = run_experiment(cliques, replace(spec, jobs=2))
    strip = lambda recs: [replace(r, wall_seconds=0.0) for r in recs]
    assert strip(parallel.records) == strip(report.records)


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
    expected = ["greedy"] if eval_detector is None else ["greedy", "louvain"]
    assert sorted(unperturbed_detects) == expected


def test_import_leaves_process_pools_unloaded():
    # only run_experiment with jobs > 1 needs them
    code = (
        "import sys, cmhide; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    src = str(Path(cmhide.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_summary_csv_uses_pinned_columns(cliques, cliques_report):
    _, report = cliques_report
    sink = io.StringIO()
    write_summary_csv(report.summary, sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert lines[0].endswith("used_budget_mean,pagerank_mean,wall_ms_mean")
    assert len(lines) == len(report.summary) + 1
    first = lines[1].split(",")
    row = report.summary[0]
    assert first[0] == row.method
    assert float(first[1]) == row.tau
    assert int(first[2]) == row.beta
    assert float(first[3]) == pytest.approx(row.sr_mean)
    assert float(first[-1]) == pytest.approx(
        1000.0 * row.wall_seconds / row.targets
    )


def test_records_csv_round_trips(cliques_report):
    _, report = cliques_report
    sink = io.StringIO()
    write_records_csv(report.records, sink)
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
        config=p.config(**overrides), mu_plus_one=p.mu_plus_one,
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
def test_attack_seed_comes_from_config_unless_given(kar, greedy, method):
    config = get_preset("kar").config(beta=3)
    u = kar.id_of("9")
    via_config = evaluation.attack(method, kar, u, greedy, replace(config, seed=5))
    via_argument = evaluation.attack(method, kar, u, greedy, config, seed=5)
    assert via_config == via_argument
    if method == "random":  # the seed is used at all
        assert via_config != evaluation.attack(method, kar, u, greedy, config)


@pytest.mark.parametrize("seed", [-1, 0.5, True])
def test_attack_rejects_a_bad_seed(kar, greedy, seed):
    config = get_preset("kar").config(beta=3)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        cmhide.hide(kar, 9, greedy, config, seed=seed)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        cmhide.run_baseline("random", kar, 9, greedy, config, seed=seed)

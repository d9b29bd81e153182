"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its smallest size in both modes and checks that each
metric BENCHMARK.json names is emitted with its unit. Then feeds the output
checks corrupted outcomes, to show they are not vacuous.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cmhide  # noqa: E402
import run  # noqa: E402
from checks import check_attack  # noqa: E402
from tracer import Attack, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, outcome_fingerprint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "kar_grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def attack():
    g = cmhide.load_fixture("kar")
    det = cmhide.DetectorSpec("greedy")
    cfg = cmhide.get_preset("kar").config(tau=0.5, beta=3)
    part = cmhide.detect(g, det)
    u = g.id_of("9")
    out = cmhide.hide(g, u, det, cfg, seed=7, partition=part)
    return Attack(g, u, det, cfg, part, out)


def _failed_frac(attacks) -> float:
    ledger = run.Ledger()
    res = OpResult([1.0] * len(attacks), [outcome_fingerprint(a.outcome) for a in attacks],
                   list(attacks))
    run.check_all([(ledger.add(0, res), res)], ledger)
    return ledger.failed / ledger.attempted


def test_clean_outcome_passes(attack):
    assert check_attack(attack).errors == []
    assert _failed_frac([attack]) == 0.0


def _corrupt(attack, **changes):
    return replace(attack, outcome=replace(attack.outcome, **changes))


def test_corrupted_outcomes_are_caught(attack):
    out = attack.outcome
    first = min(out.delta.toggled)
    stray = next(v for v in range(attack.graph.n)
                 if v not in (attack.target, first) and v not in out.delta.toggled)
    extra_edge = cmhide.apply_delta(out.graph, cmhide.EdgeDelta(attack.target, {stray}))
    corrupted = [
        _corrupt(attack, similarity=out.similarity + 0.25),
        _corrupt(attack, graph=extra_edge),
        _corrupt(attack, used_budget=attack.config.beta + 1),
        _corrupt(attack, success=not out.success),
        _corrupt(attack, partition=cmhide.Partition.from_communities([{0, 1}])),
    ]
    for bad in corrupted:
        assert check_attack(bad).errors
    assert _failed_frac([attack] + corrupted) == len(corrupted) / (len(corrupted) + 1)


def test_repeat_with_another_result_fails(attack):
    ledger = run.Ledger()
    fp = outcome_fingerprint(attack.outcome)
    ledger.add(0, OpResult([1.0], [fp], None))
    ledger.add(0, OpResult([1.0], [fp[:1] + (fp[1] + 0.5,) + fp[2:]], None))
    assert ledger.failed == 1 and ledger.attempted == 2


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (cmhide.gradient.detect, cmhide.baselines.detect, cmhide.evaluation.detect,
                 cmhide.scoring.betweenness, cmhide.baselines.betweenness,
                 cmhide.gradient.clamp_add, cmhide.evaluation.hide)
    tracer = Tracer()
    with tracer.installed():
        wrapped = (cmhide.gradient.detect, cmhide.baselines.detect, cmhide.evaluation.detect,
                   cmhide.scoring.betweenness, cmhide.baselines.betweenness,
                   cmhide.gradient.clamp_add, cmhide.evaluation.hide)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        g = cmhide.load_fixture("kar")
        cmhide.run_baseline("centrality", g, 0, cmhide.DetectorSpec("greedy"),
                            cmhide.HidingConfig(beta=2))
    assert cmhide.gradient.detect is originals[0] and cmhide.evaluation.hide is originals[6]
    names = [s.name for s in tracer.spans]
    assert names.count("baselines.run_baseline") == 1
    assert names.count("scoring.betweenness") == 1
    assert names.count("detectors.detect") == 2  # the partition, then the rewired graph
    assert len(tracer.attacks) == 1
    self_ns = tracer.self_ns()
    root = names.index("baselines.run_baseline")
    children = sum(s.end_ns - s.start_ns for s in tracer.spans if s.parent == root)
    span = tracer.spans[root]
    assert self_ns[root] == span.end_ns - span.start_ns - children >= 0

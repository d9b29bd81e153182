"""Benchmark protocol: metrics, budgets, target sampling and the grid runner.

A benchmark sweeps methods over a grid of similarity thresholds and budget
factors, repeats every cell over independent runs, and aggregates success
rate, partition distortion and their harmonic combination per cell. All
randomness is derived from one master seed, so results are reproducible
and independent of worker scheduling.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import IO, Sequence

import numpy as np

from .baselines import BASELINE_NAMES, run_baseline
from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError
from .gradient import HidingConfig, HidingOutcome, dice_similarity, hide
from .graph import Graph
from .schema import check_types
from .scoring import StructuralScores, pagerank, structural_scores
from .seeding import derive_seed

GRADIENT_METHODS = ("gradient", "gradient_projected")
ALL_METHODS = GRADIENT_METHODS + BASELINE_NAMES


def nmi(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Mutual information of two cluster label vectors over their mean entropy."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and equally long")
    n = a.size
    if n == 0:
        raise ValueError("label vectors are empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = float(-(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))).sum())
    hb = float(-(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both trivial single-cluster labellings
    nz = joint > 0
    outer = np.outer(pa, pb)
    info = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, info / denom)))


def f1_score(success_rate: float, nmi_value: float) -> float:
    """Harmonic mean of hiding success rate and partition preservation."""
    s = success_rate + nmi_value
    if s <= 0.0:
        return 0.0
    return 2.0 * success_rate * nmi_value / s


def _check_budget_factor(factor: float) -> None:
    if not 0 < factor < math.inf:
        raise ConfigError(f"budget factor must be positive and finite, got {factor!r}")


def budget_for(g: Graph, factor: float, mu_plus_one: bool = False) -> int:
    """Flip budget from the mean-degree-per-edge unit mu = m/n, at least 1."""
    _check_budget_factor(factor)
    mu = g.m / g.n + (1.0 if mu_plus_one else 0.0)
    return max(1, math.floor(mu * factor))


def sample_targets(
    partition: Partition,
    seed: int,
    fractions: Sequence[float] = (0.3, 0.5, 0.8),
    cap: int = 100,
) -> tuple[int, ...]:
    """Pick target nodes from communities sized near fractions of the largest.

    For each fraction, the non-singleton community whose size is closest to
    fraction * (largest community size) is chosen (ties to the earlier
    community) and up to `cap` of its members are sampled without
    replacement. Duplicates across fractions are dropped.
    """
    comms = partition.communities
    eligible = [i for i, c in enumerate(comms) if len(c) > 1]
    if not eligible:
        return ()
    largest = max(len(comms[i]) for i in eligible)
    rng = np.random.default_rng(seed)
    targets: list[int] = []
    seen: set[int] = set()
    for frac in fractions:
        want = frac * largest
        pick = min(eligible, key=lambda i: (abs(len(comms[i]) - want), i))
        members = np.array(sorted(comms[pick]))
        k = min(members.size, cap)
        chosen = rng.choice(members, size=k, replace=False)
        for v in chosen:
            v = int(v)
            if v not in seen:
                seen.add(v)
                targets.append(v)
    return tuple(targets)


@dataclass(frozen=True)
class TargetRecord:
    """Everything measured for one (run, method, cell, target) attack."""

    run: int
    method: str
    tau: float
    beta_factor: float
    beta: int
    target: int
    success: bool
    similarity: float
    attack_similarity: float
    used_budget: int
    nmi: float
    counterparts: tuple[int, ...]
    iterations: int
    detections: int
    restarts: int
    wall_seconds: float


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one benchmark sweep."""

    methods: tuple[str, ...] = ALL_METHODS
    taus: tuple[float, ...] = (0.3, 0.5, 0.8)
    beta_factors: tuple[float, ...] = (0.5, 1.0, 2.0)
    runs: int = 3
    seed: int = 0
    detector: DetectorSpec = DetectorSpec("greedy")
    eval_detector: DetectorSpec | None = None
    config: HidingConfig = HidingConfig()
    mu_plus_one: bool = False
    fractions: tuple[float, ...] = (0.3, 0.5, 0.8)
    max_targets: int = 100
    jobs: int = 1

    def __post_init__(self):
        check_types(self)
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ConfigError(
                    f"unknown method {m!r}; available: {', '.join(ALL_METHODS)}"
                )
        for name in ("runs", "jobs", "max_targets"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for tau in self.taus:
            replace(self.config, tau=tau)  # HidingConfig rejects a bad threshold
        for factor in self.beta_factors:
            _check_budget_factor(factor)
        if not self.fractions or not all(0.0 < f <= 1.0 for f in self.fractions):
            raise ConfigError(
                f"fractions must be one or more values in (0, 1], got {self.fractions!r}"
            )

    @property
    def effective_eval_detector(self) -> DetectorSpec:
        return self.eval_detector if self.eval_detector is not None else self.detector


@dataclass(frozen=True)
class SummaryRow:
    """Across-run aggregation of one (method, tau, beta_factor) cell."""

    method: str
    tau: float
    beta_factor: float
    beta: int
    runs: int
    targets: int
    sr_mean: float
    sr_std: float
    nmi_mean: float
    nmi_std: float
    f1_mean: float
    f1_std: float
    used_mean: float
    used_success_mean: float
    counterpart_pr_mean: float
    counterpart_pr_std: float
    wall_seconds: float


@dataclass
class Report:
    """Benchmark output: raw per-target records plus the per-cell summary."""

    records: list[TargetRecord]
    summary: list[SummaryRow]
    meta: dict = field(default_factory=dict)


def attack(
    method: str,
    g: Graph,
    u: int,
    detector: DetectorSpec,
    config: HidingConfig,
    seed: int | None = None,
    partition: Partition | None = None,
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Run one method of ALL_METHODS against node u.

    The gradient methods search with `hide` (`gradient_projected` with
    exhaust_budget on), the others with `run_baseline`; both take `seed`,
    or config.seed when it is None. `scores`, the structural scores of g,
    spares both their own pass: `hide` takes its targets from them and
    `centrality` ranks by their raw betweenness.
    """
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; available: {', '.join(ALL_METHODS)}")
    if method in GRADIENT_METHODS:
        if method == "gradient_projected":
            config = replace(config, exhaust_budget=True)
        return hide(g, u, detector, config, seed=seed, scores=scores, partition=partition)
    return run_baseline(
        method, g, u, detector, config, seed=seed, partition=partition, scores=scores
    )


def _counterparts(outcome: HidingOutcome) -> tuple[int, ...]:
    out: list[int] = []
    for delta in outcome.deltas:
        out.extend(sorted(delta.toggled))
    return tuple(out)


@dataclass(frozen=True)
class _Invariants:
    """What every cell of one experiment computes alike from the input graph."""

    part_attack: Partition
    part_eval: Partition
    labels_before: np.ndarray
    scores: StructuralScores


def _invariants(g: Graph, spec: ExperimentSpec) -> _Invariants:
    part_attack = detect(g, spec.detector)
    eval_det = spec.effective_eval_detector
    part_eval = part_attack if eval_det == spec.detector else detect(g, eval_det)
    return _Invariants(
        part_attack=part_attack,
        part_eval=part_eval,
        labels_before=part_eval.membership(g.n),
        scores=structural_scores(g, part_attack, spec.config.weights),
    )


def _run_cell(
    g: Graph, spec: ExperimentSpec, inv: _Invariants, run: int, tau: float,
    beta_factor: float,
) -> list[TargetRecord]:
    beta = budget_for(g, beta_factor, spec.mu_plus_one)
    cell_config = replace(spec.config, tau=tau, beta=beta)
    eval_det = spec.effective_eval_detector
    same_detector = eval_det == spec.detector
    targets = sample_targets(
        inv.part_attack, derive_seed(spec.seed, "targets", run),
        fractions=spec.fractions, cap=spec.max_targets,
    )
    records: list[TargetRecord] = []
    for method in spec.methods:
        for u in targets:
            seed = derive_seed(
                spec.seed, "attack", run, method, repr(tau), repr(beta_factor), u
            )
            t0 = time.perf_counter()
            outcome = attack(
                method, g, u, spec.detector, cell_config, seed, inv.part_attack, inv.scores
            )
            wall = time.perf_counter() - t0
            if same_detector:
                part_eval_after = outcome.partition
            elif outcome.graph is g:  # nothing rewired
                part_eval_after = inv.part_eval
            else:
                part_eval_after = detect(outcome.graph, eval_det)
            sim_eval = _dice_of(inv.part_eval, part_eval_after, u)
            nmi_val = nmi(inv.labels_before, part_eval_after.membership(g.n))
            records.append(
                TargetRecord(
                    run=run,
                    method=method,
                    tau=tau,
                    beta_factor=beta_factor,
                    beta=beta,
                    target=u,
                    success=sim_eval <= tau and outcome.used_budget <= beta,
                    similarity=sim_eval,
                    attack_similarity=outcome.similarity,
                    used_budget=outcome.used_budget,
                    nmi=nmi_val,
                    counterparts=_counterparts(outcome),
                    iterations=outcome.iterations,
                    detections=outcome.detections,
                    restarts=outcome.restarts,
                    wall_seconds=wall,
                )
            )
    return records


def _dice_of(before: Partition, after: Partition, u: int) -> float:
    return dice_similarity(
        before.community_members(u) - {u}, after.community_members(u) - {u}
    )


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    return float(arr.mean()), float(arr.std())


def summarise(records: Sequence[TargetRecord], g: Graph, runs: int) -> list[SummaryRow]:
    """Aggregate per-target records into one row per grid cell."""
    pr = pagerank(g)
    cells: dict[tuple[str, float, float], list[TargetRecord]] = {}
    for r in records:
        cells.setdefault((r.method, r.tau, r.beta_factor), []).append(r)
    rows: list[SummaryRow] = []
    for (method, tau, beta_factor), recs in sorted(cells.items()):
        srs, nmis, f1s, prs = [], [], [], []
        for run in range(runs):
            run_recs = [r for r in recs if r.run == run]
            if not run_recs:
                continue
            sr = sum(r.success for r in run_recs) / len(run_recs)
            nm = sum(r.nmi for r in run_recs) / len(run_recs)
            srs.append(sr)
            nmis.append(nm)
            f1s.append(f1_score(sr, nm))
            pooled = [pr[v] for r in run_recs for v in r.counterparts]
            if pooled:
                prs.append(float(np.mean(pooled)))
        sr_m, sr_s = _mean_std(srs)
        nmi_m, nmi_s = _mean_std(nmis)
        f1_m, f1_s = _mean_std(f1s)
        pr_m, pr_s = _mean_std(prs)
        used_success = [r.used_budget for r in recs if r.success]
        rows.append(
            SummaryRow(
                method=method,
                tau=tau,
                beta_factor=beta_factor,
                beta=recs[0].beta,
                runs=len(srs),
                targets=len(recs),
                sr_mean=sr_m,
                sr_std=sr_s,
                nmi_mean=nmi_m,
                nmi_std=nmi_s,
                f1_mean=f1_m,
                f1_std=f1_s,
                used_mean=float(np.mean([r.used_budget for r in recs])),
                used_success_mean=float(np.mean(used_success)) if used_success else 0.0,
                counterpart_pr_mean=pr_m,
                counterpart_pr_std=pr_s,
                wall_seconds=float(sum(r.wall_seconds for r in recs)),
            )
        )
    return rows


# A worker's copy of the (graph, spec, invariants) its cells share, set once
# per process by the pool initializer.
_shared: tuple[Graph, ExperimentSpec, _Invariants] | None = None


def _share(g: Graph, spec: ExperimentSpec, inv: _Invariants) -> None:
    global _shared
    _shared = (g, spec, inv)


def _run_shared_cell(cell: tuple[int, float, float]) -> list[TargetRecord]:
    return _run_cell(*_shared, *cell)


def run_experiment(g: Graph, spec: ExperimentSpec) -> Report:
    """Execute the full benchmark grid, optionally across worker processes.

    The partitions and structural scores of g are computed once here and
    shared by every cell; worker processes receive them once, at start-up.
    """
    t0 = time.perf_counter()
    inv = _invariants(g, spec)
    cells = [
        (run, tau, beta_factor)
        for run in range(spec.runs)
        for tau in spec.taus
        for beta_factor in spec.beta_factors
    ]
    if spec.jobs > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares serial runs the import

        with ProcessPoolExecutor(
            max_workers=spec.jobs, initializer=_share, initargs=(g, spec, inv)
        ) as pool:
            chunks = list(pool.map(_run_shared_cell, cells))
    else:
        chunks = [_run_cell(g, spec, inv, *cell) for cell in cells]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.method, r.tau, r.beta_factor, r.run, r.target))
    summary = summarise(records, g, spec.runs)
    meta = {
        "n": g.n,
        "m": g.m,
        "runs": spec.runs,
        "seed": spec.seed,
        "detector": asdict(spec.detector),
        "eval_detector": asdict(spec.effective_eval_detector),
        "methods": list(spec.methods),
        "taus": list(spec.taus),
        "beta_factors": list(spec.beta_factors),
        "mu_plus_one": spec.mu_plus_one,
        "wall_seconds": time.perf_counter() - t0,
    }
    return Report(records=records, summary=summary, meta=meta)


SUMMARY_COLUMNS = (
    "method", "tau", "beta", "sr_mean", "sr_std", "nmi_mean", "nmi_std",
    "f1_mean", "f1_std", "used_budget_mean", "pagerank_mean", "wall_ms_mean",
)


def write_summary_csv(rows: Sequence[SummaryRow], sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(SUMMARY_COLUMNS)
    for row in rows:
        wall_ms = 1000.0 * row.wall_seconds / row.targets if row.targets else 0.0
        cells = (
            row.method, row.tau, row.beta, row.sr_mean, row.sr_std,
            row.nmi_mean, row.nmi_std, row.f1_mean, row.f1_std,
            row.used_mean, row.counterpart_pr_mean, wall_ms,
        )
        writer.writerow([_fmt(c) for c in cells])


def write_records_csv(records: Sequence[TargetRecord], sink: IO[str]) -> None:
    cols = [f.name for f in fields(TargetRecord)]
    writer = csv.writer(sink)
    writer.writerow(cols)
    for r in records:
        d = asdict(r)
        d["counterparts"] = ";".join(str(v) for v in r.counterparts)
        writer.writerow([_fmt(d[c]) for c in cols])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def report_to_json(report: Report) -> str:
    payload = {
        "meta": report.meta,
        "summary": [asdict(row) for row in report.summary],
        "records": [asdict(r) for r in report.records],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

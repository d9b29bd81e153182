"""Benchmark protocol: metrics, budgets, target sampling and the grid runner.

A benchmark sweeps methods over a grid of similarity thresholds and budget
factors, repeats every cell over independent runs, and aggregates success
rate, partition distortion and their harmonic combination per cell. All
randomness is derived from one master seed, so results are reproducible
and independent of worker scheduling.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .baselines import BASELINE_NAMES, run_baseline
from .detectors import DetectorSpec, Partition, detect
from .errors import ConfigError
from .gradient import CONFIG_KEYS, HidingConfig, HidingOutcome, Scorer, hide
from .graph import Graph
from .schema import check_types
from .scoring import StructuralScores, pagerank, structural_scores, top_ranked

GRADIENT_METHODS = ("gradient", "gradient_projected")
ALL_METHODS = GRADIENT_METHODS + BASELINE_NAMES

# each run's targets come from the communities sized nearest these
# fractions of the largest one
TARGET_FRACTIONS = (0.3, 0.5, 0.8)


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed from a master seed and a key tuple.

    Each randomised piece of a run (target sampling, every attack) seeds
    from its own key, so results do not depend on the order cells run in
    or on the number of workers.
    """
    key = repr((int(master),) + tuple(parts)).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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
    return float(min(1.0, max(0.0, info / (0.5 * (ha + hb)))))


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
    """Flip budget from the mean-degree-per-edge unit mu = m/n.

    At least 1, and at most the n - 1 flips of a row; mu * factor is capped
    at n before it is floored, so no positive finite factor overflows.
    """
    _check_budget_factor(factor)
    mu = g.m / g.n + (1.0 if mu_plus_one else 0.0)
    return max(1, min(g.n - 1, math.floor(min(mu * factor, g.n))))


def sample_targets(partition: Partition, seed: int, cap: int) -> tuple[int, ...]:
    """Pick target nodes from communities sized near fractions of the largest.

    For each of TARGET_FRACTIONS, the non-singleton community whose size is
    closest to fraction * (largest community size) is chosen (ties to the
    earlier community) and up to `cap` of its members are sampled without
    replacement. Duplicates across fractions are dropped.
    """
    comms = partition.communities
    sizes = np.array([len(c) for c in comms])
    eligible = np.flatnonzero(sizes > 1)
    if not eligible.size:
        return ()
    rng = np.random.default_rng(seed)
    targets: list[int] = []
    for frac in TARGET_FRACTIONS:
        pick = top_ranked(-np.abs(sizes - frac * sizes.max()), eligible, 1)[0]
        members = np.array(sorted(comms[pick]))
        targets += rng.choice(members, size=min(members.size, cap), replace=False).tolist()
    return tuple(dict.fromkeys(targets))


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
    wall_seconds: float = field(compare=False)


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
    max_targets: int = 100
    jobs: int = 1

    def __post_init__(self):
        check_types(self)
        for name in ("methods", "taus", "beta_factors"):
            axis = getattr(self, name)
            if not axis or len(set(axis)) < len(axis):
                raise ConfigError(f"{name} must list one or more distinct values, got {axis!r}")
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
        for factor in self.beta_factors:  # check_types leaves entries unranged
            _check_budget_factor(factor)


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
    wall_seconds: float = field(compare=False)


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
    seed: int = 0,
    partition: Partition | None = None,
    scores: StructuralScores | None = None,
) -> HidingOutcome:
    """Run one method of ALL_METHODS against node u.

    The gradient methods search with `hide`, the others with
    `run_baseline`; both take `seed`. The method name alone sets
    exhaust_budget: off for `gradient`, on for `gradient_projected`.
    `scores`, the structural scores of g, spares both their own pass:
    `hide` takes its targets from them and `centrality` ranks by their
    betweenness.
    """
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; available: {', '.join(ALL_METHODS)}")
    if method in GRADIENT_METHODS:
        projected = method == "gradient_projected"
        if config.exhaust_budget != projected:  # a new config costs a validation pass
            config = replace(config, exhaust_budget=projected)
        return hide(g, u, detector, config, seed, partition, scores)
    return run_baseline(method, g, u, detector, config, seed, partition, scores)


def _counterparts(outcome: HidingOutcome) -> tuple[int, ...]:
    out: list[int] = []
    for delta in outcome.deltas:
        out.extend(sorted(delta.toggled))
    return tuple(out)


@dataclass(frozen=True)
class _Invariants:
    """What every cell of one experiment shares, each run's targets included."""

    eval_detector: DetectorSpec
    part_attack: Partition
    part_eval: Partition
    labels_before: np.ndarray
    scores: StructuralScores
    targets: tuple[tuple[int, ...], ...]  # indexed by run


def _invariants(g: Graph, spec: ExperimentSpec) -> _Invariants:
    part_attack = detect(g, spec.detector)
    eval_det = spec.eval_detector or spec.detector
    part_eval = part_attack if eval_det == spec.detector else detect(g, eval_det)
    return _Invariants(
        eval_detector=eval_det,
        part_attack=part_attack,
        part_eval=part_eval,
        labels_before=part_eval.membership(g.n),
        scores=structural_scores(g, part_attack, spec.config.weights),
        targets=tuple(
            sample_targets(part_attack, derive_seed(spec.seed, "targets", run), spec.max_targets)
            for run in range(spec.runs)
        ),
    )


def _run_cell(
    g: Graph, spec: ExperimentSpec, inv: _Invariants, cell: tuple[int, float, float]
) -> list[TargetRecord]:
    run, tau, beta_factor = cell
    beta = budget_for(g, beta_factor, spec.mu_plus_one)
    cell_config = replace(spec.config, tau=tau, beta=beta)
    records: list[TargetRecord] = []
    for method in spec.methods:
        for u in inv.targets[run]:
            seed = derive_seed(
                spec.seed, "attack", run, method, repr(tau), repr(beta_factor), u
            )
            outcome = attack(
                method, g, u, spec.detector, cell_config, seed, inv.part_attack, inv.scores
            )
            if inv.eval_detector == spec.detector:
                sim_eval, part_eval_after = outcome.similarity, outcome.partition
            else:
                score = Scorer(g, u, inv.eval_detector, inv.part_eval)
                sim_eval, _, part_eval_after = score(outcome.deltas)
            nmi_val = nmi(inv.labels_before, part_eval_after.membership(g.n))
            records.append(
                TargetRecord(
                    run=run,
                    method=method,
                    tau=tau,
                    beta_factor=beta_factor,
                    beta=beta,
                    target=u,
                    success=cell_config.hides(sim_eval, outcome.used_budget),
                    similarity=sim_eval,
                    attack_similarity=outcome.similarity,
                    used_budget=outcome.used_budget,
                    nmi=nmi_val,
                    counterparts=_counterparts(outcome),
                    iterations=outcome.iterations,
                    detections=outcome.detections,
                    restarts=outcome.restarts,
                    wall_seconds=outcome.wall_seconds,
                )
            )
    return records


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    return float(arr.mean()), float(arr.std())


def summarise(records: Sequence[TargetRecord], g: Graph) -> list[SummaryRow]:
    """Aggregate per-target records into one row per grid cell, over the runs they name."""
    pr = pagerank(g)
    cells: dict[tuple[str, float, float], list[TargetRecord]] = {}
    for r in records:
        cells.setdefault((r.method, r.tau, r.beta_factor), []).append(r)
    rows: list[SummaryRow] = []
    for (method, tau, beta_factor), recs in sorted(cells.items()):
        runs: dict[int, list[TargetRecord]] = {}
        for r in recs:
            runs.setdefault(r.run, []).append(r)
        srs, nmis, f1s, prs = [], [], [], []
        for _, run_recs in sorted(runs.items()):
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


def run_experiment(g: Graph, spec: ExperimentSpec) -> Report:
    """Execute the full benchmark grid, optionally across worker processes.

    The partitions and structural scores of g, and each run's targets, are
    computed once here and shared by every cell. A cell is one call of
    `_run_cell` on this set-up and its (run, tau, beta_factor); a pool maps
    the same call, so the set-up travels with each cell. A pool starts no
    more workers than there are cells or CPUs.
    """
    t0 = time.perf_counter()
    inv = _invariants(g, spec)
    run_cell = partial(_run_cell, g, spec, inv)
    cells = [
        (run, tau, beta_factor)
        for run in range(spec.runs)
        for tau in spec.taus
        for beta_factor in spec.beta_factors
    ]
    workers = min(spec.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares serial runs the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell, cells))
    else:
        chunks = list(map(run_cell, cells))
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.method, r.tau, r.beta_factor, r.run, r.target))
    summary = summarise(records, g)
    # the spec as run, less --jobs, which never changes a record, and less the
    # config's tau, beta and exhaust_budget, which each cell and method replace
    meta = {k: v for k, v in asdict(spec).items() if k != "jobs"}
    meta.update(
        config={k: meta["config"][k] for k in CONFIG_KEYS},
        eval_detector=asdict(inv.eval_detector), n=g.n, m=g.m,
        wall_seconds=time.perf_counter() - t0,
    )
    return Report(records=records, summary=summary, meta=meta)


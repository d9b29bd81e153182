"""The three benchmark workloads.

Every workload is a closed loop: one caller in one process issues the next
call only after the previous one returned, with `jobs=1` and numpy's BLAS
pool pinned to one thread. A workload has a timed set-up, a fixed list of
ops that makes up one pass, and quality figures computed outside the timed
section. Ops are deterministic for a given seed, so every repeat of an op
must give the same result as its first run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import astuple, dataclass, replace
from typing import Callable

import numpy as np

import cmhide
import planted
from checks import covers
from tracer import Attack

DETECTORS = ("greedy", "louvain", "label_propagation")

# Zachary's karate club split after the dispute: the members who followed
# "Mr. Hi" (node ids as in the bundled `kar` fixture); the rest followed
# the officer.
KARATE_MR_HI = frozenset((0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 16, 17, 19, 21))


def sub_seed(seed: int, *keys) -> int:
    """Stable 63-bit seed for one named input of the workload."""
    digest = hashlib.sha256(repr((int(seed),) + keys).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class OpResult:
    """What one op produced.

    `samples_ms` holds one latency per attack the op made, and
    `fingerprints` the matching results without their timings. `attacks`
    is None when the op cannot hand out its outcomes (they stay inside
    `run_experiment`); the runner then captures them with the tracer.
    """

    samples_ms: list[float]
    fingerprints: list[tuple]
    attacks: list[Attack] | None
    report: object = None
    verify: Callable[[], list[str]] | None = None  # checks other than on attacks
    wall_s: float = 0.0  # set by the runner


def outcome_fingerprint(out) -> tuple:
    deltas = tuple((d.owner, tuple(sorted(d.toggled))) for d in out.deltas)
    return (out.success, out.similarity, deltas, out.used_budget,
            out.iterations, out.detections, out.restarts)


def planted_nmi(g, blocks: dict[str, int], partitions) -> float:
    """Mean NMI of the given partitions against the planted blocks."""
    truth = np.array([blocks[g.label_of(v)] for v in range(g.n)])
    return float(np.mean([cmhide.nmi(truth, p.membership(g.n)) for p in partitions]))


class Workload:
    name: str
    why: str
    setup_reps: int
    hides_outcomes = False  # True when ops return attacks=None

    def setup(self):
        raise NotImplementedError

    def ops(self, state) -> list[Callable[[], OpResult]]:
        raise NotImplementedError

    def f1_mean(self, first_pass: list[OpResult], checked, success_rate: float) -> float:
        """Harmonic mean of success rate and partition NMI after the attack."""
        nmis = [
            cmhide.nmi(c.before.membership(a.graph.n), c.after.membership(a.graph.n))
            for a, c in checked
        ]
        return cmhide.f1_score(success_rate, float(np.mean(nmis)))

    def planted_nmi(self, state) -> float:
        raise NotImplementedError


class PlantedWorkload(Workload):
    """A workload on draw 0 of a planted-graph model."""

    quality_draws: int

    def graph(self, draw: int) -> planted.PlantedGraph:
        raise NotImplementedError

    def planted_nmi(self, state) -> float:
        """Mean over `quality_draws` draws of the model, draw 0 included.

        LPA recovers all blocks on some draws and collapses them on others,
        so a single graph gives a figure that swings with the seed.
        """
        values = []
        for draw in range(self.quality_draws):
            pg = self.graph(draw)
            g = cmhide.load_edge_list(pg.text)
            parts = [cmhide.detect(g, cmhide.DetectorSpec(d)) for d in DETECTORS]
            values.append(planted_nmi(g, pg.blocks, parts))
        return float(np.mean(values))


class KarGrid(Workload):
    name = "kar_grid"
    why = ("the README's default benchmark grid on karate: thousands of greedy calls "
           "on tiny overlays, per-step row handling and per-cell recomputation")
    setup_reps = 5
    hides_outcomes = True

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.taus = (0.5,) if smoke else (0.3, 0.5, 0.8)
        self.beta_factors = (1.0,) if smoke else (0.5, 1.0, 2.0)
        self.max_targets = 2 if smoke else 100

    def setup(self):
        g = cmhide.load_fixture("kar")
        preset = cmhide.get_preset("kar")
        spec = cmhide.ExperimentSpec(
            methods=cmhide.ALL_METHODS,
            taus=self.taus,
            beta_factors=self.beta_factors,
            runs=1,
            seed=self.seed,
            detector=cmhide.DetectorSpec("greedy"),
            config=preset.config(),
            mu_plus_one=preset.mu_plus_one,
            max_targets=self.max_targets,
            jobs=1,
        )
        return g, spec

    def ops(self, state):
        """One op per grid cell, in the order `run_experiment` sweeps them.

        A cell's records are the ones the whole grid gives for it, so a pass
        reproduces the full spec; per-cell ops give the throughput figure
        27 samples a run instead of two or three.
        """
        g, spec = state

        def cell(cell_spec) -> OpResult:
            report = cmhide.run_experiment(g, cell_spec)
            return OpResult(
                samples_ms=[r.wall_seconds * 1e3 for r in report.records],
                fingerprints=[astuple(replace(r, wall_seconds=0.0)) for r in report.records],
                attacks=None,
                report=report,
            )

        return [
            lambda s=replace(spec, taus=(tau,), beta_factors=(bf,)): cell(s)
            for tau in spec.taus
            for bf in spec.beta_factors
        ]

    def f1_mean(self, first_pass, checked, success_rate) -> float:
        return float(np.mean([row.f1_mean for res in first_pass for row in res.report.summary]))

    def planted_nmi(self, state) -> float:
        g, _ = state
        blocks = {lab: int(int(lab) in KARATE_MR_HI) for lab in g.labels}
        parts = [cmhide.detect(g, cmhide.DetectorSpec(d)) for d in DETECTORS]
        return planted_nmi(g, blocks, parts)


def _attack_op(g, u, det, cfg, seed, **pre) -> Callable[[], OpResult]:
    def op() -> OpResult:
        t0 = time.perf_counter()
        out = cmhide.hide(g, u, det, cfg, seed=seed, **pre)
        ms = (time.perf_counter() - t0) * 1e3
        return OpResult([ms], [outcome_fingerprint(out)],
                        [Attack(g, u, det, cfg, pre.get("partition"), out)])

    return op


class SbmSearch(PlantedWorkload):
    name = "sbm_search"
    why = ("hide, plain and budget-exhausting, under each detector on a planted 4-block "
           "SBM, n=300, partition and scores precomputed: the detector-call cost of the "
           "search at a realistic size")
    setup_reps = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n = 60 if smoke else 300
        # every op hides a target of its own, the detector and the mode
        # (plain, exhausting the budget) taking turns: whether a target can
        # be hidden at all decides if its search stops at once or runs all
        # its iterations, so figures steady only over many distinct targets
        self.targets = 6 if smoke else 18
        self.quality_draws = 2 if smoke else 12

    def graph(self, draw: int) -> planted.PlantedGraph:
        return planted.sbm(self.n, 4, 12.0, 0.2, sub_seed(self.seed, self.name, "graph", draw))

    def setup(self):
        pg = self.graph(0)
        g = cmhide.load_edge_list(pg.text)
        beta = cmhide.budget_for(g, 1.0, mu_plus_one=True)
        config = cmhide.get_preset("kar").config(tau=0.5, beta=beta)
        pre = {}
        for name in DETECTORS:
            det = cmhide.DetectorSpec(name)
            part = cmhide.detect(g, det)
            pre[name] = (det, part, cmhide.structural_scores(g, part, config.weights))
        rng = np.random.default_rng(sub_seed(self.seed, self.name, "targets"))
        eligible = [
            v for v in range(g.n)
            if all(len(part.community_members(v)) > 1 for _, part, _ in pre.values())
        ]
        targets = rng.choice(eligible, size=self.targets, replace=False).tolist()
        return pg, g, config, pre, targets

    def ops(self, state):
        _, g, config, pre, targets = state
        out = []
        for i, u in enumerate(targets):
            name = DETECTORS[i % len(DETECTORS)]
            exhaust = (i // len(DETECTORS)) % 2 == 1
            det, part, scores = pre[name]
            cfg = replace(config, exhaust_budget=exhaust)
            seed = sub_seed(self.seed, self.name, "hide", u, name, exhaust)
            out.append(_attack_op(g, u, det, cfg, seed, scores=scores, partition=part))
        return out


def _analysis_errors(g, det, part, scores, pr) -> list[str]:
    errors = []
    if not covers(part, g.n):
        errors.append(f"partition does not cover all {g.n} nodes")
    if cmhide.detect(g, det) != part:
        errors.append("re-running detect gives another partition")
    if scores.combined.shape != (g.n,) or not ((scores.combined >= 0) & (scores.combined <= 1)).all():
        errors.append("combined scores leave [0, 1]")
    if pr.shape != (g.n,) or (pr < 0).any() or abs(float(pr.sum()) - 1.0) > 1e-9:
        errors.append("pagerank is not a distribution over the nodes")
    return errors


class SbmCold(PlantedWorkload):
    name = "sbm_cold"
    why = ("the cold analysis a user runs before an attack, per op on an LFR-style n=300 "
           "graph: ingest from text, detect, structural scores (betweenness), pagerank")
    setup_reps = 5

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.n = 120 if smoke else 300
        self.quality_draws = 1 if smoke else 4

    def graph(self, draw: int) -> planted.PlantedGraph:
        seed = sub_seed(self.seed, self.name, "graph", draw)
        return planted.lfr(self.n, seed, max_degree=40, min_size=15, max_size=80)

    def setup(self):
        return self.graph(0)

    def ops(self, pg):
        """`cmhide detect`, `analyze scores` and `analyze pagerank` on the text.

        Nothing is carried from one op to the next. The search itself is
        left to `kar_grid`: whether it hides a target decides if it stops
        at once or runs all its iterations, which would make an op's time
        swing with the seed.
        """
        weights = cmhide.get_preset("kar").weights
        out = []
        for name in DETECTORS:
            det = cmhide.DetectorSpec(name)

            def op(det=det) -> OpResult:
                t0 = time.perf_counter()
                g = cmhide.load_edge_list(pg.text)
                part = cmhide.detect(g, det)
                scores = cmhide.structural_scores(g, part, weights)
                pr = cmhide.pagerank(g)
                ms = (time.perf_counter() - t0) * 1e3
                fingerprint = (part.communities, scores.combined.tobytes(), pr.tobytes())
                return OpResult([ms], [fingerprint], [],
                                verify=lambda: _analysis_errors(g, det, part, scores, pr))

            out.append(op)
        return out


WORKLOADS = {w.name: w for w in (KarGrid, SbmSearch, SbmCold)}

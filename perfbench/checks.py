"""Output checks on attack outcomes, run outside the timed section.

Similarity is recomputed here from the partitions, not taken from the
package, so the quality metrics rest on an independent re-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import cmhide


def dice(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def covers(partition, n: int) -> bool:
    """Every node 0..n-1 in exactly one community."""
    sizes = sum(len(c) for c in partition.communities)
    members = set().union(*partition.communities) if partition.communities else set()
    return sizes == n and members == set(range(n))


@dataclass
class Checked:
    """Failure messages and the independently re-checked figures of one attack."""

    errors: list[str]
    similarity: float
    before: object
    after: object


def check_attack(attack) -> Checked:
    """Run every output check on one outcome."""
    g, u, det, cfg, out = (
        attack.graph, attack.target, attack.detector, attack.config, attack.outcome,
    )
    errors: list[str] = []
    before = attack.partition
    if before is None:  # the program detected it itself; do the same here
        before = cmhide.detect(g, det)
    if out.used_budget > cfg.beta:
        errors.append(f"used_budget {out.used_budget} > beta {cfg.beta}")
    toggled: set = set()
    for delta in out.deltas:
        toggled ^= set(delta.edges())
    if set(out.graph.edges()) != set(g.edges()) ^ toggled:
        errors.append("outcome graph differs from input graph by more than its deltas")
    for label, part in (("input", before), ("outcome", out.partition)):
        if not covers(part, g.n):
            errors.append(f"{label} partition does not cover all {g.n} nodes")
    after = cmhide.detect(out.graph, det)
    if after != out.partition:
        errors.append("re-running detect on the outcome graph gives another partition")
    try:
        sim = dice(before.community_members(u) - {u}, after.community_members(u) - {u})
    except KeyError as exc:
        errors.append(f"target missing from a partition: {exc}")
        return Checked(errors, 1.0, before, after)
    if abs(sim - out.similarity) > 1e-12:
        errors.append(f"similarity {out.similarity!r} but the re-check gives {sim!r}")
    expected = out.similarity <= cfg.tau and out.used_budget <= cfg.beta
    if out.success != expected:
        errors.append(
            f"success={out.success} but similarity {out.similarity:.4f}, tau {cfg.tau}"
        )
    return Checked(errors, sim, before, after)

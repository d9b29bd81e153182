"""Seeded planted-partition graphs for the benchmark, numpy only.

Two generators stand in for the paper's larger datasets, which cannot be
fetched: a stochastic block model (Holland, Laskey & Leinhardt 1983) and an
LFR-style graph with power-law degrees and community sizes (Lancichinetti,
Fortunato & Radicchi 2008, PRE 78:046110). Both return edge-list text, which
is all the program under test sees, plus the planted block of every node
label. The same arguments and seed always give the same text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantedGraph:
    """Edge-list text and the planted block of every node label."""

    text: str
    blocks: dict[str, int]
    n: int
    m: int


def _finish(edges: set[tuple[int, int]], blocks: np.ndarray, rng) -> PlantedGraph:
    """Tie isolated nodes into their block, shuffle lines, render the text."""
    n = blocks.size
    degree = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for u in np.flatnonzero(degree == 0).tolist():
        mates = np.flatnonzero(blocks == blocks[u])
        mates = mates[mates != u]
        if mates.size == 0:
            mates = np.flatnonzero(np.arange(n) != u)
        v = int(rng.choice(mates))
        edges.add((min(u, v), max(u, v)))
    ordered = sorted(edges)
    order = rng.permutation(len(ordered))
    lines = []
    for i in order.tolist():
        u, v = ordered[i]
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v}\n")
    return PlantedGraph(
        text="".join(lines),
        blocks={str(v): int(b) for v, b in enumerate(blocks.tolist())},
        n=n,
        m=len(ordered),
    )


def sbm(
    n: int, k: int, mean_degree: float, mixing: float, seed: int
) -> PlantedGraph:
    """Stochastic block model with k near-equal blocks.

    Edge probabilities are set so a node's expected degree is `mean_degree`
    and an expected share `mixing` of its edges leaves its block.
    """
    rng = np.random.default_rng(seed)
    blocks = np.sort(np.arange(n) % k)
    size = n / k
    p_in = (1.0 - mixing) * mean_degree / (size - 1.0)
    p_out = mixing * mean_degree / (n - size)
    same = blocks[:, None] == blocks[None, :]
    prob = np.where(same, p_in, p_out)
    draw = rng.random((n, n)) < prob
    us, vs = np.nonzero(np.triu(draw, k=1))
    edges = set(zip(us.tolist(), vs.tolist()))
    return _finish(edges, blocks, rng)


def _power_law(rng, size: int, exponent: float, low: float, high: float) -> np.ndarray:
    """Inverse-CDF samples of p(x) ~ x^-exponent on [low, high]."""
    a = 1.0 - exponent
    u = rng.random(size)
    return (low**a + u * (high**a - low**a)) ** (1.0 / a)


def _pair_stubs(stubs: np.ndarray, rng) -> np.ndarray:
    """Configuration-model matching: shuffle the stubs and pair neighbours."""
    stubs = rng.permutation(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    return stubs.reshape(-1, 2)


def lfr(
    n: int,
    seed: int,
    mean_degree: float = 12.0,
    max_degree: int = 60,
    degree_exponent: float = 2.5,
    size_exponent: float = 1.5,
    min_size: int = 20,
    max_size: int = 120,
    mixing: float = 0.2,
) -> PlantedGraph:
    """LFR-style benchmark graph.

    Degrees and community sizes follow truncated power laws; each node
    keeps a share 1 - `mixing` of its stubs inside its community. Stubs are
    wired by a configuration model, and self-loops and repeated pairs are
    dropped, so realised degrees fall slightly below the drawn ones.
    """
    rng = np.random.default_rng(seed)
    # pick the lower degree cut-off so the truncated power law has the
    # requested mean, by bisection on the closed-form mean
    a = 1.0 - degree_exponent
    b = 2.0 - degree_exponent

    def mean_of(low: float) -> float:
        hi = float(max_degree)
        return (a / b) * (hi**b - low**b) / (hi**a - low**a)

    lo_d, hi_d = 1.0, float(max_degree) - 1.0
    for _ in range(60):
        mid = 0.5 * (lo_d + hi_d)
        if mean_of(mid) < mean_degree:
            lo_d = mid
        else:
            hi_d = mid
    degrees = np.rint(_power_law(rng, n, degree_exponent, lo_d, max_degree)).astype(np.int64)
    degrees = np.maximum(degrees, 1)

    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(int(np.rint(_power_law(rng, 1, size_exponent, min_size, max_size)[0])))
    rest = n - sum(sizes[:-1])
    if rest >= min_size or len(sizes) == 1:
        sizes[-1] = rest
    else:
        sizes.pop()
        sizes[int(np.argmin(sizes))] += rest
    sizes_arr = np.array(sizes, dtype=np.int64)

    internal = np.rint((1.0 - mixing) * degrees).astype(np.int64)
    blocks = np.full(n, -1, dtype=np.int64)
    free = sizes_arr.copy()
    for v in np.argsort(-degrees, kind="stable").tolist():
        fits = np.flatnonzero((free > 0) & (sizes_arr - 1 >= internal[v]))
        if fits.size == 0:
            fits = np.flatnonzero(free > 0)
            fits = fits[[int(np.argmax(sizes_arr[fits]))]]
            internal[v] = min(internal[v], int(sizes_arr[fits[0]]) - 1)
        c = int(rng.choice(fits))
        blocks[v] = c
        free[c] -= 1
    external = degrees - internal

    edges: set[tuple[int, int]] = set()
    for c in range(sizes_arr.size):
        members = np.flatnonzero(blocks == c)
        stubs = np.repeat(members, internal[members])
        for u, v in _pair_stubs(stubs, rng).tolist():
            if u != v:
                edges.add((min(u, v), max(u, v)))
    stubs = np.repeat(np.arange(n), external)
    for u, v in _pair_stubs(stubs, rng).tolist():
        if u != v and blocks[u] != blocks[v]:
            edges.add((min(u, v), max(u, v)))
    return _finish(edges, blocks, rng)

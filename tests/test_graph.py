from __future__ import annotations

import io

import numpy as np
import pytest

from cmhide import EdgeDelta, EdgeListParseError, apply_delta, load_edge_list
from cmhide.graph import (
    Graph,
    GraphOverlay,
    clamp_add,
    delta_between,
    dump_edge_list,
    load_edge_list_with_stats,
)

from conftest import graph_from_edges, random_graph


def test_karate_fixture_shape(kar):
    assert kar.n == 34
    assert kar.m == 78
    assert sum(kar.degree(v) for v in range(kar.n)) == 2 * kar.m


def test_reversed_duplicate_collapses():
    g, stats = load_edge_list_with_stats("a b\nb a\n")
    assert (g.n, g.m) == (2, 1)
    assert stats.duplicate_lines == 1


def test_self_loop_dropped_with_counter():
    g, stats = load_edge_list_with_stats("a a\nb c\n")
    assert (g.n, g.m) == (3, 1)
    assert stats.self_loops_dropped == 1
    assert g.degree(g.id_of("a")) == 0


def test_comment_lines_ignored():
    g, stats = load_edge_list_with_stats("# header\n% other\n0 1\n")
    assert (g.n, g.m) == (2, 1)
    assert stats.comment_lines == 2


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n0 1 2\n")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_empty_edge_set_rejected():
    with pytest.raises(EdgeListParseError):
        load_edge_list("# nothing\n")


def test_labels_keep_first_appearance_order():
    g = load_edge_list("x y\na x\n")
    assert g.labels == ("x", "y", "a")
    assert g.id_of("a") == 2
    assert g.label_of(0) == "x"
    with pytest.raises(KeyError):
        g.id_of("missing")


def test_loader_builds_the_graph_the_constructor_does():
    g = load_edge_list("c a\na b\nb a\nd d\nb c\n")
    expected = Graph([("c", "a"), ("a", "b"), ("b", "c")], node_labels=["c", "a", "b", "d"])
    assert g == expected and g.m == expected.m == 3


def test_csr_lists_the_rows_once_read_only(kar):
    indptr, indices = kar.csr()
    assert kar.csr()[0] is indptr and kar.csr()[1] is indices
    assert not indptr.flags.writeable and not indices.flags.writeable
    for v in range(kar.n):
        assert tuple(indices[indptr[v]:indptr[v + 1]].tolist()) == kar.neighbors(v)


def label_edges(g):
    return {frozenset((g.label_of(a), g.label_of(b))) for a, b in g.edges()}


def test_round_trip_serialisation(kar):
    # internal ids follow appearance order, so only labels round-trip
    buf = io.StringIO()
    dump_edge_list(kar, buf)
    again = load_edge_list(buf.getvalue())
    assert label_edges(again) == label_edges(kar)
    assert again.n == kar.n and again.m == kar.m
    buf2 = io.StringIO()
    dump_edge_list(again, buf2)
    assert buf2.getvalue() == buf.getvalue()  # canonical form is a fixpoint


def test_apply_delta_identity(kar):
    assert apply_delta(kar, EdgeDelta(0)) is kar


def test_apply_delta_removal_view(kar):
    u, v = kar.id_of("0"), kar.id_of("5")
    assert kar.has_edge(u, v)
    view = apply_delta(kar, EdgeDelta(u, frozenset((v,))))
    assert view.m == 77
    assert view.degree(u) == kar.degree(u) - 1
    assert not view.has_edge(u, v)
    assert kar.m == 78  # base untouched


def test_apply_delta_involution(kar):
    d = EdgeDelta(0, frozenset((5, 11)))
    view = apply_delta(kar, d)
    back = apply_delta(view, d)
    assert back is kar


def test_overlay_stacking_xor():
    g = graph_from_edges([(0, 1), (1, 2)])
    v1 = apply_delta(g, EdgeDelta(0, frozenset((2,))))  # add (0,2)
    v2 = apply_delta(v1, EdgeDelta(2, frozenset((0,))))  # toggle back
    assert v2 is g
    assert isinstance(v1, GraphOverlay)
    assert v1.has_edge(0, 2) and not g.has_edge(0, 2)


def test_adjacency_vector_bits(kar):
    a = kar.row(0)
    assert a.dtype == np.int8
    assert a[0] == 0
    assert np.flatnonzero(a).tolist() == list(kar.neighbors(0))
    assert not a.flags.writeable


def test_clamp_add_semantics():
    g = graph_from_edges([(0, 1), (0, 2)])
    a = g.row(0)
    p = np.array([0, 1, -1])  # 1 stays 1 under +1; 1 drops to 0 under -1
    assert clamp_add(a, 0, p).tolist() == [0, 1, 0]
    p2 = np.array([0, -1, 0])
    assert clamp_add(a, 0, p2).tolist() == [0, 0, 1]


def test_clamp_add_identity(kar):
    a = kar.row(3)
    assert np.array_equal(clamp_add(a, 3, np.zeros(kar.n, dtype=int)), a)


def test_clamp_add_rejects_owner_touch():
    g = graph_from_edges([(0, 1)])
    a = g.row(0)
    with pytest.raises(ValueError):
        clamp_add(a, 0, np.array([1, 0]))
    with pytest.raises(ValueError):
        clamp_add(a, 0, np.array([0, 2]))
    for outside in (0.5, float("nan")):
        with pytest.raises(ValueError, match="entries must be in"):
            clamp_add(a, 0, np.array([0, outside]))
    with pytest.raises(ValueError, match="length"):
        clamp_add(a, 0, np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="self edge"):
        clamp_add(np.array([1, 1], dtype=np.int8), 0, np.array([0, 0]))


def test_delta_between_is_hamming_support():
    g = graph_from_edges([(0, 1), (0, 2), (3, 4)])
    a = g.row(0)
    b = clamp_add(a, 0, np.array([0, -1, 0, 1, 0]))
    d = delta_between(0, a, b)
    assert d.owner == 0
    assert d.toggled == frozenset((1, 3))
    assert d.size == int((a != b).sum())


def _stacked_deltas(g, rng):
    """1-3 seeded deltas of 1-8 toggles each; about a third repeat an earlier one."""
    stack = []
    for _ in range(rng.integers(1, 4)):
        if stack and rng.random() < 1 / 3:
            stack.append(stack[rng.integers(len(stack))])  # cancels that delta
            continue
        owner = int(rng.integers(g.n))
        others = [v for v in range(g.n) if v != owner]
        size = int(rng.integers(1, min(8, len(others)) + 1))
        stack.append(EdgeDelta(owner, frozenset(rng.choice(others, size, replace=False).tolist())))
    return stack


@pytest.mark.parametrize("name", ["kar", "random"])
def test_overlay_reads_like_a_rebuilt_graph(kar, name):
    rng = np.random.default_rng(11)
    if name == "kar":
        bases = [kar]
    else:
        bases = [random_graph(int(rng.integers(4, 16)), 0.2, seed) for seed in range(8)]
        assert any(g.degree(v) == 0 for g in bases for v in range(g.n))
    repeats = 0
    for base in bases:
        base.csr()  # overlays must not reuse the base's compressed rows
        for _ in range(24):
            stack = _stacked_deltas(base, rng)
            repeats += len(set(stack)) < len(stack)
            view, edges = base, set(base.edges())
            for delta in stack:
                view = apply_delta(view, delta)
                edges ^= set(delta.edges())
            rebuilt = Graph(
                [(base.label_of(a), base.label_of(b)) for a, b in sorted(edges)],
                node_labels=base.labels,
            )
            assert rebuilt.labels == view.labels
            assert view == rebuilt and rebuilt == view
            assert view.m == rebuilt.m == len(edges)
            assert view.edges() == rebuilt.edges() == edges
            for got, want in zip(view.csr(), rebuilt.csr()):
                assert np.array_equal(got, want)
            for v in range(base.n):
                assert view.neighbors(v) == rebuilt.neighbors(v)
                assert view.degree(v) == rebuilt.degree(v)
                assert np.array_equal(view.row(v), rebuilt.row(v))
                for w in range(base.n):
                    assert view.has_edge(v, w) == rebuilt.has_edge(v, w)
            for delta in stack:  # the same toggles again cancel down to the base
                view = apply_delta(view, delta)
            assert view is base
    assert repeats  # some stacks cancel a delta part way


def test_edge_delta_rejects_self_toggle():
    with pytest.raises(ValueError):
        EdgeDelta(1, frozenset((1, 2)))

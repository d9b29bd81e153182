from __future__ import annotations

import io

import numpy as np
import pytest

from cmhide import (
    EdgeDelta,
    EdgeListParseError,
    GraphOverlay,
    apply_delta,
    clamp_add,
    delta_between,
    dump_edge_list,
    load_edge_list,
    load_edge_list_with_stats,
)

from conftest import graph_from_edges


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
    a = kar.adjacency_vector(0)
    assert a.bits[0] == 0
    assert a.bits.sum() == kar.degree(0)
    assert not a.bits.flags.writeable


def test_clamp_add_semantics():
    g = graph_from_edges([(0, 1), (0, 2)])
    a = g.adjacency_vector(0)
    p = np.array([0, 1, -1])  # 1 stays 1 under +1; 1 drops to 0 under -1
    out = clamp_add(a, p)
    assert out.bits.tolist() == [0, 1, 0]
    p2 = np.array([0, -1, 0])
    assert clamp_add(a, p2).bits.tolist() == [0, 0, 1]


def test_clamp_add_identity(kar):
    a = kar.adjacency_vector(3)
    assert clamp_add(a, np.zeros(kar.n, dtype=int)) == a


def test_clamp_add_rejects_owner_touch():
    g = graph_from_edges([(0, 1)])
    a = g.adjacency_vector(0)
    with pytest.raises(ValueError):
        clamp_add(a, np.array([1, 0]))
    with pytest.raises(ValueError):
        clamp_add(a, np.array([0, 2]))
    for outside in (0.5, float("nan")):
        with pytest.raises(ValueError, match="entries must be in"):
            clamp_add(a, np.array([0, outside]))
    with pytest.raises(ValueError, match="length"):
        clamp_add(a, np.array([0, 1, 0]))


def test_delta_between_is_hamming_support():
    g = graph_from_edges([(0, 1), (0, 2), (3, 4)])
    a = g.adjacency_vector(0)
    b = clamp_add(a, np.array([0, -1, 0, 1, 0]))
    d = delta_between(a, b)
    assert d.owner == 0
    assert d.toggled == frozenset((1, 3))
    assert d.size == int((a.bits != b.bits).sum())


def test_edge_delta_rejects_self_toggle():
    with pytest.raises(ValueError):
        EdgeDelta(1, frozenset((1, 2)))

from __future__ import annotations

import numpy as np
import pytest

from cmhide import EdgeDelta, EdgeListParseError, apply_delta, load_edge_list, load_fixture
from cmhide.graph import (
    Graph,
    GraphOverlay,
    clamp_add,
    delta_between,
    load_edge_list_with_stats,
)

from conftest import graph_from_edges, random_graph


def test_karate_fixture_shape(kar):
    assert kar.n == 34
    assert kar.m == 78
    assert sum(len(kar.neighbors(v)) for v in range(kar.n)) == 2 * kar.m


def test_reversed_duplicate_collapses():
    g, stats = load_edge_list_with_stats("a b\nb a\n")
    assert (g.n, g.m) == (2, 1)
    assert stats.duplicate_lines == 1


def test_self_loop_dropped_with_counter():
    g, stats = load_edge_list_with_stats("a a\nb c\n")
    assert (g.n, g.m) == (3, 1)
    assert stats.self_loops_dropped == 1
    assert not g.neighbors(g.id_of("a"))
    with pytest.raises(ValueError, match="self loop on node 'a'"):  # only the loader drops them
        Graph([("a", "a")])


def test_comment_lines_ignored():
    g = load_edge_list("# header\n% other\n0 1\n")
    assert (g.n, g.m) == (2, 1)


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n0 1 2\n")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_only_newline_ends_a_line():
    # \r is stripped as whitespace; \x0c and \u2028 split labels but end no line
    g = load_edge_list("a b\r\nb c\n")
    assert (g.labels, g.m) == (("a", "b", "c"), 2)
    for sep in ("\x0c", "\u2028"):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(f"a b\nb c{sep}c d\n")


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
    view = kar.csr()
    indptr, indices, degree, tails = view
    assert all(a is b for a, b in zip(kar.csr(), view)) and len(view) == 4
    assert not any(a.flags.writeable for a in view)
    for v in range(kar.n):
        assert tuple(indices[indptr[v]:indptr[v + 1]].tolist()) == kar.neighbors(v)
        assert degree[v] == len(kar.neighbors(v))
        assert (tails[indptr[v]:indptr[v + 1]] == v).all()
    assert tails.size == indices.size == 2 * kar.m


def test_apply_delta_identity(kar):
    assert apply_delta(kar, EdgeDelta(0)) is kar


def test_apply_delta_removal_view(kar):
    u, v = kar.id_of("0"), kar.id_of("5")
    assert kar.has_edge(u, v)
    view = apply_delta(kar, EdgeDelta(u, frozenset((v,))))
    assert view.m == 77
    assert len(view.neighbors(u)) == len(kar.neighbors(u)) - 1
    assert not view.has_edge(u, v)
    assert kar.m == 78  # base untouched


def test_apply_delta_involution(kar):
    d = EdgeDelta(0, frozenset((5, 11)))
    view = apply_delta(kar, d)
    back = apply_delta(view, d)
    assert back == kar and back.m == kar.m


def test_overlay_stacking_xor():
    g = graph_from_edges([(0, 1), (1, 2)])
    v1 = apply_delta(g, EdgeDelta(0, frozenset((2,))))  # add (0,2)
    v2 = apply_delta(v1, EdgeDelta(2, frozenset((0,))))  # toggle back
    assert v2 == g and v2.m == g.m
    assert isinstance(v1, GraphOverlay)
    assert repr(v1) == "GraphOverlay(n=3, m=3)"
    assert v1.has_edge(0, 2) and not g.has_edge(0, 2)
    assert g != g.edges() and g.__eq__(g.edges()) is NotImplemented


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
        assert any(not g.neighbors(v) for g in bases for v in range(g.n))
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
                assert len(view.neighbors(v)) == len(rebuilt.neighbors(v))
                assert np.array_equal(view.row(v), rebuilt.row(v))
                for w in range(base.n):
                    assert view.has_edge(v, w) == rebuilt.has_edge(v, w)
            for delta in stack:  # the same toggles again give the base's rows back
                view = apply_delta(view, delta)
            assert view == base and view.m == base.m
    assert repeats  # some stacks cancel a delta part way


def test_edge_delta_rejects_self_toggle():
    with pytest.raises(ValueError):
        EdgeDelta(1, frozenset((1, 2)))


@pytest.mark.parametrize("outside", [-1, 34])
def test_apply_delta_rejects_toggled_ids_outside_the_graph(kar, outside):
    with pytest.raises(ValueError, match="delta toggles a node outside graph with n=34"):
        apply_delta(kar, EdgeDelta(0, {outside, 5}))
    with pytest.raises(ValueError, match="outside graph"):  # on an overlay too
        apply_delta(apply_delta(kar, EdgeDelta(1, {2})), EdgeDelta(0, {outside}))
    with pytest.raises(ValueError, match=f"delta owner {outside} outside graph with n=34"):
        apply_delta(kar, EdgeDelta(outside, {5}))


def test_unknown_fixture_lists_available():
    with pytest.raises(KeyError, match="unknown fixture 'nope'; available: kar, barbell, cliques"):
        load_fixture("nope")

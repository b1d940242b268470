from __future__ import annotations

import random

import pytest

from brauergraph.core import (
    BrauerGraph,
    Grading,
    connected_components,
    edge_name,
    faces,
    gen_random,
    grading_violations,
    is_bipartite,
    oz_invariants,
    random_ih_stable_subset,
    validate,
    vertices,
    zero_grading,
)
from brauergraph.covering import default_grading
from brauergraph.moves import move_set
from brauergraph.core import GradedGraph
from brauergraph.permutations import Permutation

from conftest import build_graph
from oracles import euler_characteristics


def test_ex1_is_valid(ex1):
    assert validate(ex1) == []
    assert not ex1.is_skew
    assert ex1.m_bar == 2


def test_multiplicity_not_constant_reported(ex1):
    m = dict(ex1.multiplicity)
    m["4-"] = 2  # same sigma-orbit as 1-, which stays at 1
    broken = BrauerGraph(ex1.half_edges, ex1.pairing, ex1.orientation, m)
    assert any("constant on sigma-orbit" in p for p in validate(broken))


def test_excluded_single_edge_component():
    graph = build_graph(["1+", "1-"], [("1+", "1-")], [])
    assert any("excluded component" in p for p in validate(graph))
    # the same component with a multiplicity is a perfectly good graph
    graph2 = build_graph(["1+", "1-"], [("1+", "1-")], [], {"1+": 2})
    assert validate(graph2) == []


def test_excluded_single_skew_leg():
    graph = BrauerGraph(
        frozenset(["2"]),
        Permutation.from_cycles(["2"], []),
        Permutation.from_cycles(["2"], []),
        {"2": 1},
    )
    report = validate(graph)
    assert any("fixed by both" in p for p in report)


def test_vertices_ex1(ex1):
    circ, cross = vertices(ex1)
    data = {v.half_edges: v.multiplicity for v in circ}
    assert data == {
        ("1-", "4-", "3-", "2-"): 1,
        ("2+", "3+"): 2,
        ("1+",): 2,
        ("4+",): 1,
    }
    assert cross == []


def test_vertices_ex2(ex2):
    circ, cross = vertices(ex2)
    data = {v.half_edges: v.multiplicity for v in circ}
    assert data == {
        ("1-", "3", "2"): 2,
        ("1+", "4+", "5+"): 1,
        ("4-",): 3,
        ("5-",): 1,
    }
    assert cross == ["2", "3"]


def test_vertices_empty_graph():
    empty = BrauerGraph(frozenset(), Permutation({}), Permutation({}), {})
    assert validate(empty) == []
    assert vertices(empty) == ([], [])


def test_vertex_partition_counts(ex2):
    circ, cross = vertices(ex2)
    assert sum(len(v.half_edges) for v in circ) == len(ex2.half_edges)
    assert len(cross) == len(ex2.cross_half_edges)
    # vertex set of the graph: sigma-orbits plus the cross vertices
    assert len(circ) + len(cross) == 6


def test_faces_ex1(ex1):
    perimeters = sorted(len(f) for f in faces(ex1))
    assert perimeters == [2, 6]


def test_faces_single_loop():
    graph = build_graph(["a", "b"], [("a", "b")], [("a", "b")])
    assert validate(graph) == []
    assert sorted(len(f) for f in faces(graph)) == [1, 1]


def test_faces_after_move(ex1_graded, ex1_subset):
    moved = move_set(ex1_graded, ex1_subset)
    assert sorted(len(f) for f in faces(moved.graph)) == [2, 6]


def test_faces_reject_skew(ex2):
    with pytest.raises(ValueError):
        faces(ex2)


def test_oz_invariants_ex1(ex1):
    inv = oz_invariants(ex1)
    assert inv.edge_count == 4
    assert inv.circ_vertex_count == 4
    assert inv.cross_vertex_count == 0
    assert inv.face_count == 2
    assert inv.perimeter_multiset == (2, 6)
    assert inv.multiplicity_multiset == (1, 1, 2, 2)
    assert inv.bipartite is True


def test_oz_invariants_ex2(ex2):
    inv = oz_invariants(ex2)
    assert inv.edge_count == 5
    assert inv.circ_vertex_count == 4
    assert inv.cross_vertex_count == 2
    assert inv.multiplicity_multiset == (1, 1, 2, 3)
    assert inv.face_count is None and inv.perimeter_multiset is None


def test_oz_invariance_under_move(ex1, ex1_graded, ex1_subset):
    moved = move_set(ex1_graded, ex1_subset)
    assert oz_invariants(ex1) == oz_invariants(moved.graph)


def test_euler_characteristic_even(ex1):
    assert all(chi % 2 == 0 for chi in euler_characteristics(ex1))


def test_paper_grading_admissible(ex1, ex1_grading):
    assert grading_violations(ex1, ex1_grading) == []


def test_zero_grading_homogeneous_for_skew(ex2):
    assert grading_violations(ex2, zero_grading(ex2)) == []


def test_grading_modulus_mismatch(ex1):
    bad = Grading(3, {h: 0 for h in ex1.half_edges})
    assert any("modulus" in p for p in grading_violations(ex1, bad))


def test_gen_random_deterministic():
    a = gen_random(1, n_half=8, allow_skew=False)
    b = gen_random(1, n_half=8, allow_skew=False)
    assert a == b
    assert validate(a) == []
    assert not a.is_skew


def test_gen_random_flags():
    g = gen_random(2, n_half=9, allow_skew=True, max_multiplicity=3)
    assert validate(g) == []
    assert all(v <= 3 for v in g.multiplicity.values())


def test_gen_random_fuzz_valid():
    for seed in range(300):
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 1), max_multiplicity=3)
        assert validate(g) == [], seed


def test_bipartite_triangle_with_legs():
    # circ triangle: not bipartite, regardless of the skew legs
    graph = build_graph(
        ["1+", "1-", "2+", "2-", "3+", "3-"],
        [("1+", "1-"), ("2+", "2-"), ("3+", "3-")],
        [("1-", "2+"), ("2-", "3+"), ("3-", "1+")],
    )
    assert validate(graph) == []
    assert not is_bipartite(graph)


def test_connected_components(ex1):
    assert connected_components(ex1) == [frozenset(ex1.half_edges)]


def test_skew_moves_can_flip_bipartiteness():
    # Moving a sector across a skew leg can create an odd cycle; everything
    # else in the invariant tuple is preserved.
    g = gen_random(4, n_half=8, allow_skew=True, max_multiplicity=3)
    rng = random.Random(30_004)
    subset = random_ih_stable_subset(g, rng)
    moved = move_set(GradedGraph(g, default_grading(g, subset)), subset)
    before, after = oz_invariants(g), oz_invariants(moved.graph)
    assert before.bipartite and not after.bipartite
    assert (before.edge_count, before.circ_vertex_count, before.cross_vertex_count) == (
        after.edge_count,
        after.circ_vertex_count,
        after.cross_vertex_count,
    )
    assert before.multiplicity_multiset == after.multiplicity_multiset


def _label_by_rule(graph: BrauerGraph, h: str) -> str:
    # The common stem of a +/- pair, else the smaller name of the two.
    other = graph.pairing(h)
    if other == h:
        return h
    if h[:-1] == other[:-1] and sorted((h[-1], other[-1])) == ["+", "-"]:
        return h[:-1]
    return min(h, other)


def test_edge_name_follows_the_label_rule(ex1, ex2):
    graphs = [ex1, ex2, build_graph(["x", "y", "z"], [("x", "y")], [("x", "z")])]
    graphs += [gen_random(seed, n_half=8) for seed in range(10)]
    graphs += [gen_random(seed, n_half=8, allow_skew=True) for seed in range(10)]
    for graph in graphs:
        for h in graph.half_edges:
            assert edge_name(graph, h) == _label_by_rule(graph, h), (graph, h)
        assert graph.edges_by_label == {
            _label_by_rule(graph, e[0]): e for e in graph.edges
        }


def test_validate_reports_a_three_cycle_pairing_alone():
    names = ["a", "b", "c"]
    graph = build_graph(names, [("a", "b", "c")], [("a", "b", "c")])
    assert validate(graph) == ["pairing is not an involution"]


def _broken_ex1(ex1, case):
    """ex1 with one field broken, so that ``validate`` reports that field
    alone: a domain or an undefined multiplicity stops the check, and a
    non-positive value is set on a whole sigma-orbit."""
    half_edges, pairing, orientation = ex1.half_edges, ex1.pairing, ex1.orientation
    multiplicity = dict(ex1.multiplicity)
    if case == "pairing":
        # 4- is missing from the pairing's domain
        pairing = Permutation.from_cycles(
            sorted(half_edges - {"4-"}), [("1+", "1-"), ("2+", "2-"), ("3+", "3-")]
        )
    elif case == "orientation":
        # 5+ is not a half-edge
        orientation = Permutation.from_cycles(
            [*half_edges, "5+"], [("1-", "4-", "3-", "2-"), ("2+", "3+")]
        )
    elif case == "undefined":
        del multiplicity["2-"], multiplicity["1-"]
    else:
        multiplicity.update({"2+": 0, "3+": 0})
    return BrauerGraph(half_edges, pairing, orientation, multiplicity)


@pytest.mark.parametrize(
    "case, message",
    [
        ("pairing", "pairing domain differs from the half-edge set"),
        ("orientation", "orientation domain differs from the half-edge set"),
        ("undefined", "multiplicity undefined on 1-, 2-"),
        ("non-positive", "non-positive multiplicity on 2+, 3+"),
    ],
)
def test_validate_reports_a_broken_field(ex1, case, message):
    assert validate(_broken_ex1(ex1, case)) == [message]


def test_grading_domain_must_be_the_half_edge_set(ex1, ex1_grading):
    degrees = dict(ex1_grading.degrees)
    del degrees["4-"]
    short = Grading(ex1_grading.modulus, degrees)
    assert grading_violations(ex1, short) == ["grading domain differs from the half-edge set"]
    extra = Grading(ex1_grading.modulus, {**ex1_grading.degrees, "5+": 0})
    assert grading_violations(ex1, extra) == ["grading domain differs from the half-edge set"]

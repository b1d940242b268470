from __future__ import annotations

import random

import pytest

from brauergraph.core import (
    GradedGraph,
    Grading,
    edge_name,
    gen_random,
    grading_violations,
    random_ih_stable_subset,
    validate,
    vertices,
    zero_grading,
)
from brauergraph.covering import (
    check_cover_commutes,
    cover,
    cover_commute_witness,
    default_grading,
    lift_subset,
    sheet_label,
)

from conftest import build_graph, swapping_sigma_images


def test_cover_ex1(ex1_graded):
    covered = cover(ex1_graded)
    total = covered.total
    assert len(total.half_edges) == 16
    assert len(total.edges) == 8
    assert validate(total) == []
    assert all(v == 1 for v in total.multiplicity.values())
    circ, cross = vertices(total)
    assert len(circ) == 6 and cross == []
    assert total.orientation("1+_0") == "1+_1"
    assert total.orientation("1+_1") == "1+_0"
    assert total.orientation("3+_0") == "2+_1"


def test_cover_ex2(ex2_graded):
    covered = cover(ex2_graded)
    total = covered.total
    assert len(total.half_edges) == 16
    assert validate(total) == []
    assert not total.is_skew
    assert total.pairing("2_0") == "2_1"
    assert total.pairing("3_0") == "3_1"
    assert total.multiplicity["4-_0"] == 3
    assert total.multiplicity["4-_1"] == 3


def test_cover_trivial_group():
    graph = build_graph(
        ["1+", "1-", "2+", "2-"],
        [("1+", "1-"), ("2+", "2-")],
        [("1-", "2+"), ("1+", "2-")],
    )
    assert graph.m_bar == 1
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    total = covered.total
    assert len(total.half_edges) == len(graph.half_edges)
    for h in graph.half_edges:
        assert total.pairing(f"{h}_0") == f"{graph.pairing(h)}_0"
        assert total.orientation(f"{h}_0") == f"{graph.orientation(h)}_0"


def test_sheet_labels_split_at_their_last_underscore():
    """Names that end in ``_`` and digits, on 12 sheets: the label h_i of
    "a_1" on sheet 0 is the name "a_1_0", and "a" on sheet 1 is "a_1", yet
    no two (h, i) share a label, since the digits of i hold no ``_``."""
    graph = build_graph(
        ["a", "a_1", "a_1_0", "b_10"],
        [("a", "a_1"), ("a_1_0", "b_10")],
        [("a", "a_1_0"), ("a_1", "b_10")],
        {"a": 6, "a_1": 4},
    )
    covered = cover(GradedGraph(graph, default_grading(graph)))
    n = covered.group_order
    assert n == 12
    assert len(covered.total.half_edges) == len(covered.sheet_of) == n * 4
    for h, row in covered.labels.items():
        assert len(row) == n
        for i, label in enumerate(row):
            assert label == sheet_label(h, i)
            assert covered.sheet_of[label] == (h, i)


def test_cover_rejects_invalid_grading(ex1):
    bad = Grading(2, {h: 0 for h in ex1.half_edges})
    with pytest.raises(ValueError):
        cover(GradedGraph(ex1, bad))


def test_default_grading_matches_running_example(ex1, ex1_subset, ex1_grading):
    assert default_grading(ex1, ex1_subset) == ex1_grading


def test_default_grading_zero_for_skew(ex2):
    assert default_grading(ex2, frozenset(["1+", "1-"])) == zero_grading(ex2)


def test_default_grading_trivial_for_multiplicity_one():
    graph = build_graph(
        ["1+", "1-", "2+", "2-"],
        [("1+", "1-"), ("2+", "2-")],
        [("1-", "2+"), ("1+", "2-")],
    )
    grading = default_grading(graph)
    assert grading.modulus == 1
    assert all(v == 0 for v in grading.degrees.values())


def test_default_grading_admissible_fuzz():
    for seed in range(200):
        rng = random.Random(seed)
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 0))
        subset = random_ih_stable_subset(g, rng)
        assert grading_violations(g, default_grading(g, subset)) == [], seed


def test_lift_subset(ex1_graded, ex1_subset, ex2_graded):
    covered = cover(ex1_graded)
    lifted = lift_subset(covered, ex1_subset)
    assert len(lifted) == 8
    assert lift_subset(covered, frozenset()) == frozenset()
    covered2 = cover(ex2_graded)
    lifted2 = lift_subset(covered2, frozenset(["1+", "1-", "4+", "4-"]))
    assert lifted2 == frozenset(
        f"{h}_{i}" for h in ["1+", "1-", "4+", "4-"] for i in (0, 1)
    )
    stable = {covered2.total.pairing(h) for h in lifted2}
    assert stable == lifted2


def test_check_cover_commutes_examples(ex1_graded, ex1_subset, ex2_graded, ex2_subset):
    assert check_cover_commutes(ex1_graded, ex1_subset)
    assert check_cover_commutes(ex2_graded, ex2_subset)
    assert check_cover_commutes(ex1_graded, frozenset())


def test_projection_equivariance_fuzz():
    for seed in range(150):
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 1))
        covered = cover(GradedGraph(g, default_grading(g)))
        total = covered.total
        for label, (h, _) in covered.sheet_of.items():
            assert covered.sheet_of[total.orientation(label)][0] == g.orientation(h)
            expected = h if h in g.cross_half_edges else g.pairing(h)
            assert covered.sheet_of[total.pairing(label)][0] == expected


def test_cover_valid_and_sheet_counts_fuzz():
    for seed in range(300):
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 0), max_multiplicity=3)
        covered = cover(GradedGraph(g, default_grading(g)))
        total = covered.total
        assert validate(total) == [], seed
        assert not total.is_skew
        # ordinary edges lift to group_order edges, skew legs to one each
        n_ordinary_edges = sum(1 for e in g.edges if len(e) == 2)
        n_legs = len(g.cross_half_edges)
        assert len(total.edges) == n_ordinary_edges * covered.group_order + n_legs * (
            covered.group_order // 2 if g.is_skew else 1
        )


def test_check_cover_commutes_fuzz():
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        g = gen_random(seed, n_half=rng.choice([4, 6, 8]), allow_skew=(seed % 2 == 1))
        subset = random_ih_stable_subset(g, rng)
        graded = GradedGraph(g, default_grading(g, subset))
        assert check_cover_commutes(graded, subset), seed


def test_the_witness_is_the_least_differing_sheet_label(monkeypatch):
    """On 60 sheets, labels 2 and 10 of the first half-edge h are h_2 and
    h_10; swapping their sigma-images names h_10, the least in sorted
    order, although its integer label is the larger."""
    graph = gen_random(11, n_half=8, max_multiplicity=6)
    subset = random_ih_stable_subset(graph, random.Random(0))
    graded = GradedGraph(graph, default_grading(graph, subset))
    assert graded.grading.modulus == 60
    assert cover_commute_witness(graded, subset) is None
    h = min(graph.half_edges)
    swapping_sigma_images(monkeypatch, 2, 10)
    assert cover_commute_witness(graded, subset) == sheet_label(h, 10)
    assert not check_cover_commutes(graded, subset)


@pytest.mark.parametrize("seed", [None, 1, 3])
def test_sheet_and_shift_edges_follow_the_half_edges(ex2, seed):
    graph = ex2 if seed is None else gen_random(seed, n_half=8, allow_skew=True)
    assert graph.is_skew
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    total, n = covered.total, covered.group_order
    for label, edge in graph.edges_by_label.items():
        for sheet in range(n):
            for h in edge:
                expected = edge_name(total, sheet_label(h, sheet))
                assert covered.sheet_edge(label, sheet) == expected
        if len(edge) == 1:
            # a skew leg's two sheets join up into one covering edge
            assert covered.sheet_edge(label, 0) == covered.sheet_edge(label, 1)
    for label, edge in total.edges_by_label.items():
        for h in edge:
            assert covered.shift_edge(label) == edge_name(total, covered.shift_half(h))
        shifted = label
        for _ in range(n):
            shifted = covered.shift_edge(shifted)
        assert shifted == label

from __future__ import annotations

import itertools
import random
import re

import pytest

from brauergraph.core import (
    GradedGraph,
    gen_random,
    grading_violations,
    random_ih_stable_subset,
    random_valid_grading,
    validate,
    zero_grading,
)
from brauergraph.covering import cover, default_grading, lift_subset
from brauergraph.moves import (
    Sector,
    maximal_sectors,
    move_sector,
    move_sector_underlying,
    move_set,
    move_set_underlying,
    sectors,
)
from brauergraph.permutations import Permutation

from conftest import (
    assert_sectors_match_reference,
    build_graph,
    sector_fold,
    sector_fold_underlying,
)


def test_sectors_ex1(ex1, ex1_subset):
    assert sectors(ex1, ex1_subset) == {
        Sector("1-", 0),
        Sector("2-", 1),
        Sector("2+", 0),
    }
    # 1+ lies in the subset but its whole orbit does, so it yields no sector
    assert maximal_sectors(ex1, ex1_subset) == {Sector("2-", 1), Sector("2+", 0)}


def test_sectors_empty_subset(ex1):
    assert sectors(ex1, frozenset()) == set()


def test_sectors_ex2(ex2, ex2_subset):
    # 4- is orientation-fixed inside the subset and yields no sector; the
    # sector starting at 1+ runs two steps (1+, 4+) before escaping at 5+.
    assert maximal_sectors(ex2, ex2_subset) == {Sector("1-", 0), Sector("1+", 1)}


def test_subset_must_be_pairing_stable(ex1):
    with pytest.raises(ValueError):
        sectors(ex1, frozenset(["1+"]))


def test_move_ex1(ex1_graded, ex1_subset):
    moved = move_set(ex1_graded, ex1_subset)
    expected = Permutation.from_cycles(
        moved.graph.half_edges, [("1-", "4+", "2-"), ("2+", "4-", "3-")]
    )
    assert moved.graph.orientation == expected
    assert {h for h, v in moved.graph.multiplicity.items() if v != 1} == {"1+", "3+"}
    assert {h for h, v in moved.grading.degrees.items() if v != 0} == {"1+", "3+"}
    assert validate(moved.graph) == []
    assert grading_violations(moved.graph, moved.grading) == []


def test_move_ex1_decomposition(ex1, ex1_graded, ex1_subset):
    domain = ex1.half_edges
    left = Permutation.from_cycles(domain, [("2-", "4-"), ("2+", "3+")])
    right = Permutation.from_cycles(domain, [("1-", "4+"), ("2+", "3-")])
    moved = move_set(ex1_graded, ex1_subset)
    assert moved.graph.orientation == left * ex1.orientation * right


def test_move_ex2(ex2, ex2_graded, ex2_subset):
    moved = move_set(ex2_graded, ex2_subset)
    expected = Permutation.from_cycles(
        ex2.half_edges, [("5-", "1+", "4+"), ("1-", "2", "3")]
    )
    assert moved.graph.orientation == expected
    expected_m = {"4-": 3, "1-": 2, "2": 2, "3": 2}
    assert {h: v for h, v in moved.graph.multiplicity.items() if v != 1} == expected_m
    assert {h: v for h, v in moved.grading.degrees.items() if v} == {"3": 1, "1-": 1}
    assert grading_violations(moved.graph, moved.grading) == []


def test_special_case_leaves_graph_unchanged():
    # iota sigma^{r+1} h = sigma^{-1} h: the underlying graph does not move.
    graph = build_graph(
        ["1+", "1-", "2+", "2-"],
        [("1+", "1-"), ("2+", "2-")],
        [("1+", "2+", "1-", "2-")],
    )
    assert validate(graph) == []
    subset = frozenset(["1+", "1-"])
    assert maximal_sectors(graph, subset) == {Sector("1+", 0), Sector("1-", 0)}
    graded = GradedGraph(graph, zero_grading(graph))
    moved = move_set(graded, subset)
    assert moved.graph == graph


def test_move_set_empty_subset_is_identity(ex1_graded):
    moved = move_set(ex1_graded, frozenset())
    assert moved == ex1_graded


def test_move_set_full_subset_is_identity(ex1, ex1_graded):
    moved = move_set(ex1_graded, ex1.half_edges)
    assert moved == ex1_graded


def test_move_sector_rejects_non_sector(ex1_graded, ex1_subset):
    with pytest.raises(ValueError):
        move_sector(ex1_graded, Sector("1+", 0), ex1_subset)


def test_underlying_move_matches_graded(ex1, ex1_graded, ex1_subset):
    moved = move_set(ex1_graded, ex1_subset)
    underlying = move_set_underlying(ex1, ex1_subset)
    assert underlying == moved.graph


def test_sector_order_independence_fuzz():
    checked = 0
    seed = 0
    while checked < 150:
        seed += 1
        rng = random.Random(20_000 + seed)
        g = gen_random(seed, n_half=rng.choice([6, 8]), allow_skew=(seed % 3 == 2))
        subset = random_ih_stable_subset(g, rng)
        found = sorted(maximal_sectors(g, subset))
        if len(found) < 2:
            continue
        graded = GradedGraph(g, default_grading(g, subset))
        outcomes = set()
        for order in itertools.permutations(found):
            current = graded
            for s in order:
                current = move_sector(current, s, subset)
            outcomes.add(
                (
                    current.graph.orientation,
                    frozenset(current.graph.multiplicity.items()),
                    current.grading,
                )
            )
        assert len(outcomes) == 1, seed
        checked += 1


def test_moved_grading_always_valid_fuzz():
    for seed in range(150):
        rng = random.Random(90_000 + seed)
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 0))
        subset = random_ih_stable_subset(g, rng)
        moved = move_set(GradedGraph(g, default_grading(g, subset)), subset)
        assert validate(moved.graph) == [], seed
        assert grading_violations(moved.graph, moved.grading) == [], seed


def _edge_subsets(graph):
    edges = graph.edges
    for chosen in itertools.product((False, True), repeat=len(edges)):
        yield frozenset(h for edge, keep in zip(edges, chosen) if keep for h in edge)


def test_sectors_match_the_orbit_reference_fuzz():
    for seed in range(220):
        rng = random.Random(70_000 + seed)
        n_half = 4 + 2 * (seed % 11)
        g = gen_random(seed, n_half=n_half, allow_skew=(seed % 2 == 1))
        for _ in range(3):
            subset = random_ih_stable_subset(g, rng)
            assert_sectors_match_reference(g, subset)
            covered = cover(GradedGraph(g, default_grading(g, subset)))
            assert_sectors_match_reference(covered.total, lift_subset(covered, subset))


def test_sectors_match_the_orbit_reference_on_every_subset():
    for seed in range(60):
        g = gen_random(seed, n_half=(4, 6, 8)[seed % 3], allow_skew=(seed % 2 == 1))
        for subset in _edge_subsets(g):
            assert_sectors_match_reference(g, subset)


def _transposition(domain, a, b):
    return Permutation.from_cycles(domain, [(a, b)] if a != b else [])


def test_moved_orientation_is_the_transposition_product_fuzz():
    for seed in range(150):
        rng = random.Random(40_000 + seed)
        g = gen_random(seed, n_half=(6, 8, 12)[seed % 3], allow_skew=(seed % 2 == 0))
        subset = random_ih_stable_subset(g, rng)
        graded = GradedGraph(g, default_grading(g, subset))
        sigma = g.orientation
        for s in sorted(sectors(g, subset)):
            last = sigma.power(s.r, s.h)
            escape = sigma(last)
            target = g.pairing(escape)
            expected = (
                _transposition(g.half_edges, s.h, escape)
                * sigma
                * _transposition(g.half_edges, last, target)
            )
            moved = move_sector_underlying(g, s, subset)
            assert moved.orientation == expected, (seed, s)
            run = {sigma.power(k, s.h) for k in range(s.r + 1)}
            assert moved.multiplicity == {
                h: g.multiplicity[target] if h in run else m
                for h, m in g.multiplicity.items()
            }
            assert move_sector(graded, s, subset).graph == moved


def _non_sectors(graph, subset):
    """Sectors of ``subset`` made wrong in every way the check must catch."""
    found = sorted(sectors(graph, subset))
    h = found[0].h
    outside = min(graph.half_edges - subset)
    wrong = [Sector(h, -1), Sector(h, len(graph.half_edges)), Sector(h, 10**9)]
    wrong += [Sector(outside, 0), Sector("unknown", 0)]
    wrong += [Sector(s.h, s.r + step) for s in found for step in (-1, 1)]
    return wrong


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_moves_reject_every_non_sector(example, request):
    graph = request.getfixturevalue(example)
    subset = request.getfixturevalue(f"{example}_subset")
    graded = GradedGraph(graph, zero_grading(graph))
    for bad in _non_sectors(graph, subset):
        message = f"({bad.h}, {bad.r}) is not a sector of the subset"
        with pytest.raises(ValueError, match=re.escape(message)):
            move_sector_underlying(graph, bad, subset)
        with pytest.raises(ValueError, match=re.escape(message)):
            move_sector(graded, bad, subset)


def test_out_of_range_sector_is_rejected_without_a_walk(
    ex1, ex1_graded, ex1_subset, monkeypatch
):
    def no_walk(self, *args):
        raise AssertionError("walked or copied the orientation")

    monkeypatch.setattr(Permutation, "__call__", no_walk)
    monkeypatch.setattr(Permutation, "mapping", no_walk)
    for r in (-1, len(ex1.half_edges), 10**9):
        with pytest.raises(ValueError, match="is not a sector of the subset"):
            move_sector_underlying(ex1, Sector("2-", r), ex1_subset)
        with pytest.raises(ValueError, match="is not a sector of the subset"):
            move_sector(ex1_graded, Sector("2-", r), ex1_subset)


def test_unstable_subset_names_every_unstable_half_edge(ex1):
    message = "subset is not pairing-stable at ['1+', '3-']"
    with pytest.raises(ValueError, match=re.escape(message)):
        sectors(ex1, frozenset(["1+", "3-", "2+", "2-"]))


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_move_set_is_the_fold_of_single_moves(example, request):
    graded = request.getfixturevalue(f"{example}_graded")
    subset = request.getfixturevalue(f"{example}_subset")
    assert move_set(graded, subset) == sector_fold(graded, subset)
    covered = cover(graded)
    lifted = lift_subset(covered, subset)
    moved = move_set_underlying(covered.total, lifted)
    assert moved == sector_fold_underlying(covered.total, lifted)


def test_move_set_is_the_fold_of_single_moves_fuzz():
    for seed in range(160):
        rng = random.Random(60_000 + seed)
        g = gen_random(seed, n_half=(6, 8, 10, 14)[seed % 4], allow_skew=(seed % 2 == 1))
        subset = random_ih_stable_subset(g, rng)
        grading = default_grading(g, subset)
        if seed % 3 == 0:
            grading = random_valid_grading(g, rng, grading)
        graded = GradedGraph(g, grading)
        assert move_set(graded, subset) == sector_fold(graded, subset), seed
        assert move_set_underlying(g, subset) == sector_fold_underlying(g, subset), seed
        covered = cover(graded)
        lifted = lift_subset(covered, subset)
        moved = move_set_underlying(covered.total, lifted)
        assert moved == sector_fold_underlying(covered.total, lifted), seed


def test_composite_move_builds_one_permutation(monkeypatch):
    seed = 0
    while True:
        seed += 1
        rng = random.Random(80_000 + seed)
        g = gen_random(seed, n_half=12)
        subset = random_ih_stable_subset(g, rng)
        covered = cover(GradedGraph(g, default_grading(g, subset)))
        lifted = lift_subset(covered, subset)
        if len(maximal_sectors(covered.total, lifted)) >= 5:
            break
    expected = sector_fold_underlying(covered.total, lifted)
    built = []
    init = Permutation.__init__

    def counted(self, mapping):
        built.append(self)
        init(self, mapping)

    monkeypatch.setattr(Permutation, "__init__", counted)
    moved = move_set_underlying(covered.total, lifted)
    assert len(built) == 1
    assert moved == expected

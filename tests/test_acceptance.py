"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
check is exact (rational arithmetic throughout); each criterion also asserts
its stated wall-clock budget.
"""
from __future__ import annotations

import random
import time

from brauergraph.algebra import (
    bga_dimension_formula,
    bga_table,
    trivial_extension,
    trivial_extension_iso_report,
)
from brauergraph.core import (
    GradedGraph,
    Grading,
    gen_random,
    oz_invariants,
    random_ih_stable_subset,
    validate,
    vertices,
    zero_grading,
)
from brauergraph.covering import check_cover_commutes, cover, default_grading
from brauergraph.homotopy import mutation_object, mutation_verification
from brauergraph.models import (
    cut_cover_table,
    cut_model_table,
    ordinary_model,
    presentations_match,
    skew_dimension_oracle,
    skew_model,
)
from brauergraph.moves import maximal_sectors, move_sector, move_set
from brauergraph.permutations import Permutation

from conftest import build_graph, cartan_determinant, determinant
from oracles import check_table, dimension_by_rewriting, hom_vanishing_report


def _ex1():
    names = ["1+", "1-", "2+", "2-", "3+", "3-", "4+", "4-"]
    graph = build_graph(
        names,
        [("1+", "1-"), ("2+", "2-"), ("3+", "3-"), ("4+", "4-")],
        [("1-", "4-", "3-", "2-"), ("2+", "3+")],
        {"1+": 2, "2+": 2},
    )
    grading = Grading(2, {h: 0 for h in names} | {"1+": 1, "3+": 1})
    return graph, grading, frozenset(["1+", "1-", "2+", "2-"])


def _ex2():
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    graph = build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
        {"4-": 3, "1-": 2},
    )
    return graph, zero_grading(graph), frozenset(["1+", "1-", "4+", "4-"])


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_move_examples():
    graph1, grading1, subset1 = _ex1()
    moved1 = move_set(GradedGraph(graph1, grading1), subset1)
    assert moved1.graph.orientation == Permutation.from_cycles(
        graph1.half_edges, [("1-", "4+", "2-"), ("2+", "4-", "3-")]
    )
    assert {h: v for h, v in moved1.graph.multiplicity.items() if v != 1} == {
        "1+": 2,
        "3+": 2,
    }
    assert {h: v for h, v in moved1.grading.degrees.items() if v} == {"1+": 1, "3+": 1}

    graph2, grading2, subset2 = _ex2()
    moved2 = move_set(GradedGraph(graph2, grading2), subset2)
    assert moved2.graph.orientation == Permutation.from_cycles(
        graph2.half_edges, [("5-", "1+", "4+"), ("1-", "2", "3")]
    )
    assert {h: v for h, v in moved2.graph.multiplicity.items() if v != 1} == {
        "4-": 3,
        "1-": 2,
        "2": 2,
        "3": 2,
    }
    # -1 is stored as the residue 1 mod 2
    assert {h: v for h, v in moved2.grading.degrees.items() if v} == {"3": 1, "1-": 1}

    t1 = _best_time(lambda: move_set(GradedGraph(graph1, grading1), subset1))
    t2 = _best_time(lambda: move_set(GradedGraph(graph2, grading2), subset2))
    assert t1 < 0.001 and t2 < 0.001
    print("criterion 1 PASS: move reproduces both printed examples "
          f"({t1 * 1e6:.0f}us, {t2 * 1e6:.0f}us)")


def test_criterion_2_covering_examples():
    graph1, grading1, _ = _ex1()
    covered1 = cover(GradedGraph(graph1, grading1))
    total1 = covered1.total
    assert len(total1.half_edges) == 16
    assert len(total1.edges) == 8
    assert len(vertices(total1)[0]) == 6
    assert validate(total1) == []
    assert all(v == 1 for v in total1.multiplicity.values())
    assert total1.orientation("1+_0") == "1+_1"
    assert total1.orientation("1+_1") == "1+_0"
    assert total1.orientation("3+_0") == "2+_1"

    graph2, grading2, _ = _ex2()
    covered2 = cover(GradedGraph(graph2, grading2))
    total2 = covered2.total
    assert len(total2.half_edges) == 16
    assert not total2.is_skew
    assert total2.pairing("2_0") == "2_1"
    assert total2.pairing("3_0") == "3_1"
    assert total2.multiplicity["4-_0"] == 3

    t1 = _best_time(lambda: cover(GradedGraph(graph1, grading1)))
    t2 = _best_time(lambda: cover(GradedGraph(graph2, grading2)))
    assert t1 < 0.001 and t2 < 0.001
    print("criterion 2 PASS: coverings match the figures "
          f"({t1 * 1e6:.0f}us, {t2 * 1e6:.0f}us)")


def test_criterion_3_commutativity_suite():
    start = time.perf_counter()
    graph1, grading1, subset1 = _ex1()
    graph2, grading2, subset2 = _ex2()
    assert check_cover_commutes(GradedGraph(graph1, grading1), subset1)
    assert check_cover_commutes(GradedGraph(graph2, grading2), subset2)
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        g = gen_random(seed, n_half=rng.choice([4, 6, 8]),
                       allow_skew=(seed % 2 == 1), max_multiplicity=3)
        subset = random_ih_stable_subset(g, rng)
        graded = GradedGraph(g, default_grading(g, subset))
        assert check_cover_commutes(graded, subset), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 3 PASS: covering commutes with moves, 500 fuzz cases ({elapsed:.1f}s)")


def test_criterion_4_sector_order_independence():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        rng = random.Random(20_000 + seed)
        g = gen_random(seed, n_half=rng.choice([6, 8]), allow_skew=(seed % 3 == 2),
                       max_multiplicity=3)
        subset = random_ih_stable_subset(g, rng)
        found = sorted(maximal_sectors(g, subset))
        if len(found) < 2:
            continue
        graded = GradedGraph(g, default_grading(g, subset))
        outcomes = set()
        for order in (found, list(reversed(found))):
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
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 4 PASS: both processing orders agree on 500 fuzz cases ({elapsed:.1f}s)")


def test_criterion_5_oz_invariance():
    start = time.perf_counter()
    graph1, grading1, subset1 = _ex1()
    moved1 = move_set(GradedGraph(graph1, grading1), subset1)
    inv_before = oz_invariants(graph1)
    inv_after = oz_invariants(moved1.graph)
    assert inv_before.perimeter_multiset == inv_after.perimeter_multiset == (2, 6)
    assert inv_before == inv_after

    graph2, grading2, subset2 = _ex2()
    moved2 = move_set(GradedGraph(graph2, grading2), subset2)
    assert oz_invariants(graph2) == oz_invariants(moved2.graph)

    # the cited invariance statement concerns ordinary graphs; skew moves can
    # flip bipartiteness (see test_core_graph.test_skew_moves_can_flip_bipartiteness)
    for seed in range(500):
        rng = random.Random(31_000 + seed)
        g = gen_random(seed, n_half=8, allow_skew=False, max_multiplicity=3)
        subset = random_ih_stable_subset(g, rng)
        moved = move_set(GradedGraph(g, default_grading(g, subset)), subset)
        assert oz_invariants(g) == oz_invariants(moved.graph), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 5 PASS: derived invariants unchanged by moves ({elapsed:.1f}s)")


def test_criterion_6_presentation_agreement():
    start = time.perf_counter()
    graph1, grading1, _ = _ex1()
    report1 = presentations_match(graph1, cover(GradedGraph(graph1, grading1)))
    assert report1.ok, report1.problems
    graph2, grading2, _ = _ex2()
    report2 = presentations_match(graph2, cover(GradedGraph(graph2, grading2)))
    assert report2.ok, report2.problems

    done = 0
    seed = 0
    while done < 100:
        seed += 1
        want_skew = seed % 2 == 0
        g = gen_random(seed, n_half=6, allow_skew=want_skew, max_multiplicity=2)
        if g.is_skew != want_skew or bga_dimension_formula(g) > 40:
            continue
        grading = zero_grading(g) if g.is_skew else default_grading(g)
        report = presentations_match(g, cover(GradedGraph(g, grading)))
        assert report.ok, (seed, report.problems[:2])
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print("criterion 6 PASS: presentations match the skew group models, "
          f"100 fuzz cases ({elapsed:.1f}s)")


def test_criterion_7_algebra_oracles():
    start = time.perf_counter()
    graph1, _, _ = _ex1()
    table = bga_table(graph1)
    assert table.dim == 27
    assert dimension_by_rewriting(graph1) == 27
    assert bga_dimension_formula(graph1) == 27
    cartan = table.cartan()
    assert cartan == [list(row) for row in zip(*cartan)]
    assert check_table(table) == []  # full associativity sweep at dim 27

    graph2, grading2, _ = _ex2()
    model = skew_model(graph2)
    assert model.table.dim == 63
    assert skew_dimension_oracle(cover(GradedGraph(graph2, grading2))) == 63
    degrees = {h: 0 for h in graph2.half_edges} | {"1-": 1, "3": 1}
    other = skew_model(graph2, Grading(2, degrees))
    assert other.table.dim == 63
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"criterion 7 PASS: dimension 27 by three routes, skew model 63 ({elapsed:.1f}s)")


def test_criterion_8_mutation_matches_moved_algebra():
    graph1, grading1, subset1 = _ex1()
    start = time.perf_counter()
    model1 = ordinary_model(graph1)
    model1.grading = grading1
    summands1 = mutation_object(model1, subset1)
    assert hom_vanishing_report(model1.table, summands1) == {-1: 0, 1: 0}
    report1 = mutation_verification(model1, subset1)
    assert report1.silting and report1.tilting and report1.left_minimal
    assert report1.dim_end == report1.dim_moved == 22
    assert report1.cartan_equal
    t1 = time.perf_counter() - start

    graph2, _, subset2 = _ex2()
    start = time.perf_counter()
    model2 = skew_model(graph2)
    summands2 = mutation_object(model2, subset2)
    assert hom_vanishing_report(model2.table, summands2) == {-1: 0, 1: 0}
    report2 = mutation_verification(model2, subset2)
    assert report2.silting and report2.tilting and report2.left_minimal
    assert report2.dim_end == report2.dim_moved == 63
    assert report2.cartan_equal
    t2 = time.perf_counter() - start
    assert t1 < 60 and t2 < 60
    print("criterion 8 PASS: mutations are tilting with End matching the moved "
          f"algebras, dims 22 and 63 ({t1:.1f}s, {t2:.1f}s)")


def test_criterion_9_trivial_extension_recovers_algebra():
    start = time.perf_counter()
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    flat = build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
    )
    delta = frozenset(["1-", "1+", "4-", "5-"])
    model = skew_model(flat)
    bcut = cut_model_table(flat, delta)
    triv = trivial_extension(bcut)
    assert triv.dim == 2 * bcut.dim == model.table.dim == 36

    covered = cover(GradedGraph(flat, zero_grading(flat)))
    lam, action, _ = cut_cover_table(covered, delta)
    assert lam.dim == 20
    ok, why = trivial_extension_iso_report(lam, action)
    assert ok, why
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print("criterion 9 PASS: Triv(B_cut) has the dimension of B and the "
          f"explicit map is an isomorphism ({elapsed:.1f}s)")


def test_criterion_10_cartan_determinant():
    start = time.perf_counter()
    graph1, grading1, subset1 = _ex1()
    moved1 = move_set(GradedGraph(graph1, grading1), subset1)
    assert abs(cartan_determinant(bga_table(graph1))) == abs(
        cartan_determinant(bga_table(moved1.graph))
    )
    graph2, grading2, subset2 = _ex2()
    moved2 = move_set(GradedGraph(graph2, grading2), subset2)
    det_before = determinant(skew_model(graph2).table.cartan())
    det_after = determinant(skew_model(moved2.graph, moved2.grading).table.cartan())
    assert abs(det_before) == abs(det_after)

    done = 0
    seed = 0
    while done < 200:
        seed += 1
        rng = random.Random(60_000 + seed)
        g = gen_random(seed, n_half=rng.choice([4, 6, 8]), allow_skew=False,
                       max_multiplicity=3)
        if bga_dimension_formula(g) > 40:
            continue
        subset = random_ih_stable_subset(g, rng)
        moved = move_set(GradedGraph(g, default_grading(g, subset)), subset)
        before = abs(cartan_determinant(bga_table(g)))
        after = abs(cartan_determinant(bga_table(moved.graph)))
        assert before == after, seed
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print("criterion 10 PASS: |det Cartan| unchanged by moves, 200 fuzz cases "
          f"({elapsed:.1f}s)")

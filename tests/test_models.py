from __future__ import annotations

import random

from brauergraph.core import (
    BrauerGraph,
    GradedGraph,
    gen_random,
    zero_grading,
)
from brauergraph.covering import CoveredGraph, cover, default_grading
from brauergraph.algebra import bga_dimension_formula, bga_table, check_table
from brauergraph.models import (
    edge_cartan,
    model_for,
    ordinary_model,
    presentations_match,
    skew_model,
    truncation_model,
)
from brauergraph.permutations import Permutation
from brauergraph.presentation import quiver, special_cycles


def test_presentations_match_ex1(ex1, ex1_graded):
    report = presentations_match(ex1, cover(ex1_graded))
    assert report.ok, report.problems
    assert report.model_dim == report.expected_dim == 27


def test_presentations_match_ex2(ex2, ex2_graded):
    report = presentations_match(ex2, cover(ex2_graded))
    assert report.ok, report.problems
    assert report.model_dim == 63


def test_presentations_match_corrupted_cover(ex1, ex1_graded):
    covered = cover(ex1_graded)
    total = covered.total
    mapping = {h: total.orientation(h) for h in total.half_edges}
    # swap two orientation values on one sheet: still a permutation, no
    # longer the covering of the base
    mapping["1-_0"], mapping["3-_0"] = mapping["3-_0"], mapping["1-_0"]
    corrupted_total = BrauerGraph(
        total.half_edges, total.pairing, Permutation(mapping), total.multiplicity
    )
    corrupted = CoveredGraph(
        base=covered.base,
        total=corrupted_total,
        sheet_of=covered.sheet_of,
        group_order=covered.group_order,
    )
    report = presentations_match(ex1, corrupted)
    assert not report.ok
    assert report.problems


def test_presentations_match_fuzz():
    done = 0
    seed = 0
    while done < 40:
        seed += 1
        rng = random.Random(40_000 + seed)
        want_skew = seed % 2 == 0
        g = gen_random(seed, n_half=6, allow_skew=want_skew, max_multiplicity=2)
        if g.is_skew != want_skew or bga_dimension_formula(g) > 40:
            continue
        grading = zero_grading(g) if g.is_skew else default_grading(g)
        report = presentations_match(g, cover(GradedGraph(g, grading)))
        assert report.ok, (seed, report.problems[:2])
        done += 1


def test_special_cycles_all_equal_in_model(ex2):
    model = skew_model(ex2)
    for h in sorted(ex2.half_edges):
        cross = h in ex2.cross_half_edges
        if ex2.orientation(h) == h and ex2.multiplicity[h] == 1:
            continue
        for i in (0, 1) if cross else (None,):
            values = {
                tuple(sorted(model.evaluate_path(route).items()))
                for route in special_cycles(ex2, h, i)
            }
            assert len(values) == 1, (h, i)


def test_ordinary_model_arrows_nonzero(ex1):
    model = ordinary_model(ex1)
    assert set(model.arrow_element) == set(quiver(ex1).arrows)
    assert all(model.arrow_element.values())


def test_model_for_dispatch(ex1, ex2):
    assert model_for(ex1).table.dim == 27
    assert model_for(ex2).table.dim == 63


def test_skew_model_table_is_sound(ex2):
    model = skew_model(ex2)
    assert check_table(model.table, cap=0) == []
    # idempotents follow the quiver vertices of the skew presentation
    assert len(model.table.idempotents) == 7


def test_edge_cartan_ordinary_matches_table(ex1):
    model = ordinary_model(ex1)
    edges, aggregated = edge_cartan(model)
    assert edges == ["1", "2", "3", "4"]
    assert aggregated == bga_table(ex1).cartan()


def test_truncation_model_of_ordinary_cover_matches_bga(ex1, ex1_graded):
    model = truncation_model(cover(ex1_graded))
    direct = bga_table(ex1)
    assert model.table.dim == direct.dim
    assert model.table.cartan() == direct.cartan()

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from brauergraph.algebra import AlgebraTable, bga_dimension_formula, bga_table_with_keys
from brauergraph.core import GradedGraph, gen_random, random_ih_stable_subset
from brauergraph.covering import cover, default_grading, lift_subset
from brauergraph.graphfile import parse
from brauergraph.homotopy import (
    ProjPresentation,
    _end_cartan,
    _hom_complexes,
    _vanishing,
    approximation,
    end_table,
    hom_dimension,
    left_minimality_report,
    make_complex,
    mutation_object,
    mutation_verification,
    stalk,
)
from brauergraph.models import model_for, ordinary_model, skew_model
from brauergraph.moves import move_set
from brauergraph.presentation import quiver

from conftest import build_graph
from oracles import check_table, edge_cartan, hom_vanishing_report, radical_quiver

GOLDEN = Path(__file__).resolve().parent / "golden"


# Oracles: the maps between indecomposable projectives and the product of
# map matrices, by which the reference systems below compose chain maps.


def proj_hom(table, i, j):
    """Basis of Hom(e_i A, e_j A): the corner e_j A e_i, acting on the left."""
    return list(table.corners[j][i])


def compose(table, left, right):
    """Matrix product: the right factor acts first."""
    if not left or not right:
        return [[{} for _ in (right[0] if right else [])] for _ in left]
    out = []
    for t in range(len(left)):
        row = []
        for s in range(len(right[0])):
            acc = {}
            for k in range(len(right)):
                for b, c in table.mul(left[t][k], right[k][s]).items():
                    new = acc.get(b, 0) + c
                    if new:
                        acc[b] = new
                    else:
                        del acc[b]
            row.append(acc)
        out.append(row)
    return out


def test_proj_hom_diagonal_is_cartan(ex1):
    model = ordinary_model(ex1)
    cartan = model.table.cartan()
    for p in range(len(model.table.idempotents)):
        assert len(proj_hom(model.table, p, p)) == cartan[p][p]


def test_proj_hom_contains_arrow(ex1):
    table, keys, index_of = bga_table_with_keys(ex1)
    position = {name: p for p, (name, _) in enumerate(table.idempotents)}
    # maps P_4 -> P_3 are the corner e_3 B e_4, spanned by the walk along 4-
    basis = proj_hom(table, position["4"], position["3"])
    assert index_of[("w", "4-", 1)] in basis
    assert len(basis) == 1


def test_proj_hom_zero_corner():
    g = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "d")],
        [],
        {"a": 2, "c": 2},
    )
    table, _, _ = bga_table_with_keys(g)
    assert proj_hom(table, 0, 1) == []


def test_approximation_in_cover(ex1_graded, ex1_subset):
    covered = cover(ex1_graded)
    lifted = lift_subset(covered, ex1_subset)
    data = approximation(covered.total, lifted, "1-_0")
    by_half = {side.half_edge: side for side in data.sides}
    # walking from 1-_0 escapes immediately to the (sheet 0) edge 4
    assert by_half["1-_0"].r == 0
    assert by_half["1-_0"].walk == ("1-_0",)
    assert by_half["1-_0"].target_edge == "4+_0"
    # the sigma_d-orbit of 1+_0 is {1+_0, 1+_1}, entirely inside the lift,
    # so that side approximates into the zero module
    assert by_half["1+_0"].target_edge is None


def test_approximation_single_arrows(ex1):
    subset = frozenset(["3+", "3-"])
    data = approximation(ex1, subset, "3-")
    assert all(side.r == 0 and len(side.walk) == 1 for side in data.sides)


def test_approximation_zero_target(ex1, ex1_subset):
    data = approximation(ex1, ex1_subset, "1+")
    by_half = {side.half_edge: side for side in data.sides}
    assert by_half["1+"].target_edge is None
    assert by_half["1-"].target_edge == "4"


def test_approximation_requires_membership(ex1):
    with pytest.raises(ValueError):
        approximation(ex1, frozenset(["1+", "1-"]), "2+")


def test_mutation_object_ex1(ex1, ex1_subset):
    model = ordinary_model(ex1)
    summands = dict(mutation_object(model, ex1_subset))
    assert set(summands) == {"1", "2", "3", "4"}
    assert summands["3"].deg_minus1 == () and summands["4"].deg_minus1 == ()
    assert len(summands["1"].deg_0) == 1  # one side approximates to zero
    assert len(summands["2"].deg_0) == 2


def test_mutation_object_ex2(ex2, ex2_subset):
    model = skew_model(ex2)
    summands = dict(mutation_object(model, ex2_subset))
    assert set(summands) == {"1", "2", "3", "4", "5"}
    stalks = {name for name, comp in summands.items() if not comp.deg_minus1}
    assert stalks == {"2", "3", "5"}
    # the moved leg-adjacent edge 1 hits the doubled edge 3 plus edge 5
    assert len(summands["1"].deg_0) == 3


def test_empty_subset_mutation_is_regular_module(ex1):
    model = ordinary_model(ex1)
    summands = mutation_object(model, frozenset())
    assert all(not comp.deg_minus1 for _, comp in summands)
    end = end_table(model.table, summands)
    assert end.dim == model.table.dim
    assert end.cartan() == edge_cartan(model)[1]


def test_hom_stalk_equals_cartan(ex1):
    model = ordinary_model(ex1)
    cartan = model.table.cartan()
    x = stalk([0])
    y = stalk([1])
    assert hom_dimension(model.table, x, y, 0) == cartan[1][0]
    assert hom_dimension(model.table, x, x, 2) == 0
    assert hom_dimension(model.table, x, x, -2) == 0


def test_a_stalks_degree_zero_classes_fill_its_corner(ex1):
    from brauergraph.homotopy import _eliminated_hom_complex

    model = ordinary_model(ex1)
    x = stalk([0])
    cohomology, _, classes = _eliminated_hom_complex(model.table, x, x)
    size = model.table.cartan()[0][0]
    assert cohomology == (0, size, 0)
    assert len(classes) == size
    # a stalk's maps have only the degree-0 component
    assert {key[0] for vec in classes for key in vec} == {"d0"}


def test_hom_vanishing_ex1(ex1, ex1_subset):
    model = ordinary_model(ex1)
    summands = mutation_object(model, ex1_subset)
    assert hom_vanishing_report(model.table, summands) == {-1: 0, 1: 0}


def test_left_minimality_ex1(ex1, ex1_subset):
    model = ordinary_model(ex1)
    summands = mutation_object(model, ex1_subset)
    assert left_minimality_report(model, summands) == []


def test_end_table_rejects_non_tilting(ex1):
    from brauergraph.homotopy import ProjPresentation

    model = ordinary_model(ex1)
    plain = stalk([0])
    shifted = ProjPresentation((0,), (), ())  # the same projective in degree -1
    with pytest.raises(ValueError):
        end_table(model.table, [("a", plain), ("b", shifted)])


def test_mutation_verification_computes_the_vanishing_once(monkeypatch):
    from brauergraph import homotopy

    graph = gen_random(1, n_half=8)
    edges = graph.edges_by_label
    subset = frozenset(edges["1"] + edges["2"])
    built = []
    counted = homotopy._hom_complex

    def counting(*args):
        built.append(args)
        return counted(*args)

    model = ordinary_model(graph)
    with monkeypatch.context() as patch:
        patch.setattr(homotopy, "_hom_complex", counting)
        report = mutation_verification(model, subset)
        complexes = _hom_complexes(model.table, report.summands)
    assert report.ok
    # The cohomology of every ordered summand pair gives both the vanishing
    # check and the Cartan matrix of End(T).  Four edges, two of them moved:
    # the stalk pairs are read off the corner sizes and one pass per cone,
    # and the four pairs of two cones off the cone-stalk pairs, so no pair
    # has a Hom complex of its own.
    assert len(graph.edges) == 4
    assert sum(bool(x.deg_minus1) for _, x in report.summands) == 2
    assert built == []
    assert list(complexes.items()) == _per_pair(model.table, report.summands)


def _assert_cone_pairs_fall_back(monkeypatch, model, summands):
    """Some pair of two cones is not proved by the cone-stalk pairs and goes
    through ``_hom_complex``; the cohomology and the named witness are those
    of the per-pair computation."""
    from brauergraph import homotopy
    from brauergraph.homotopy import _hom_complex, _hom_witness

    table = model.table
    direct = {
        (a, b): _hom_complex(table, x, y)
        for a, (_, x) in enumerate(summands)
        for b, (_, y) in enumerate(summands)
    }
    cone_pairs = []

    def counting(table, x, y):
        if x.deg_minus1 and y.deg_minus1:
            cone_pairs.append((x, y))
        return _hom_complex(table, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(homotopy, "_hom_complex", counting)
        got = _hom_complexes(table, summands)
    assert list(got.items()) == list(direct.items())
    assert cone_pairs
    monkeypatch.setattr(homotopy, "mutation_object", lambda model, subset: summands)
    report = mutation_verification(model, frozenset())
    assert report.hom_witness == _hom_witness(summands, direct)
    return report


def test_a_cone_with_a_zero_differential_falls_back(ex1, ex1_subset, monkeypatch):
    """With the differential of edge 2's cone zeroed, a stalk maps into it
    with H^{-1} != 0, so no pair of cones into it is read off."""
    model = ordinary_model(ex1)
    summands = mutation_object(model, ex1_subset)
    k = next(k for k, (name, _) in enumerate(summands) if name == "2")
    x = summands[k][1]
    zero = [[{} for _ in x.deg_minus1] for _ in x.deg_0]
    zeroed = make_complex(model.table, x.deg_minus1, x.deg_0, zero)
    summands[k] = ("2", zeroed)
    assert any(
        hom_dimension(model.table, y, zeroed, -1)
        for _, y in summands
        if not y.deg_minus1
    )
    report = _assert_cone_pairs_fall_back(monkeypatch, model, summands)
    assert report.hom_witness is not None and report.hom_witness[2] == -1


def test_a_cone_into_no_stalk_falls_back(ex1, ex1_subset, monkeypatch):
    """Edge 1's cone, re-aimed at edge 2's projective, has a degree-0
    position that no stalk holds."""
    model = ordinary_model(ex1)
    table = model.table
    summands = mutation_object(model, ex1_subset)
    cones = {name: x for name, x in summands if x.deg_minus1}
    assert set(cones) == {"1", "2"}
    (p1,), (p2,) = cones["1"].deg_minus1, cones["2"].deg_minus1
    arrow = table.corners[p2][p1][0]
    aimed = make_complex(table, (p1,), (p2,), [[{arrow: 1}]])
    summands = [(name, aimed if name == "1" else x) for name, x in summands]
    held = {p for _, x in summands if not x.deg_minus1 for p in x.deg_0}
    assert p2 not in held
    report = _assert_cone_pairs_fall_back(monkeypatch, model, summands)
    # the first nonzero shifted Hom lies between the two cones
    assert report.hom_witness == ("1", "2", -1, 1)


def _golden_mutation(name, edges):
    parsed = parse((GOLDEN / f"{name}.bg").read_text())
    model = model_for(parsed.graph, parsed.grading)
    by_label = parsed.graph.edges_by_label
    subset = frozenset(h for edge in edges for h in by_label[edge])
    return model, mutation_object(model, subset)


def _per_pair(table, summands):
    from brauergraph.homotopy import _hom_complex

    return [
        ((a, b), _hom_complex(table, x, y))
        for a, (_, x) in enumerate(summands)
        for b, (_, y) in enumerate(summands)
    ]


def test_a_cone_onto_a_stalk_is_ranked_per_stalk(monkeypatch):
    """Edge 2's cone, cut down to its target at edge 4's position, has
    H^1 Hom(X, S) = 2 onto stalk 3.  D^0 of each cone onto each stalk is
    that stalk's own: the cohomology and the named witness are those of the
    per-pair computation."""
    from brauergraph import homotopy

    model, summands = _golden_mutation("ex1", ("1", "2"))
    names = [name for name, _ in summands]
    assert names == ["1", "2", "3", "4"]
    cone, kept = summands[1][1], summands[3][1].deg_0
    rows = [t for t, p in enumerate(cone.deg_0) if p in kept]
    cut = ProjPresentation(
        cone.deg_minus1,
        tuple(cone.deg_0[t] for t in rows),
        tuple(cone.differential[t] for t in rows),
    )
    summands[1] = ("2", cut)
    want = _per_pair(model.table, summands)
    assert dict(want)[1, 2] == (0, 0, 2)
    assert list(_hom_complexes(model.table, summands).items()) == want
    monkeypatch.setattr(homotopy, "mutation_object", lambda model, subset: summands)
    report = mutation_verification(model, frozenset())
    assert report.hom_witness == ("2", "3", 1, 2)


@pytest.mark.parametrize(
    "name, edges, stalk, witness",
    [
        ("ex1", ("1", "2"), "3", ("2", "3", -1, 1)),
        ("ex1", ("1", "2"), "4", ("1", "4", -1, 1)),
        ("ex2", ("1", "4"), "2", ("1", "2", -1, 4)),
        ("ex2", ("1", "4"), "5", ("1", "5", -1, 1)),
    ],
)
def test_a_shifted_stalk_is_not_tilting(name, edges, stalk, witness, monkeypatch):
    """One stalk of the mutation moved to degree -1 makes T neither silting
    nor tilting: the report names the first nonzero shifted Hom and compares
    no Cartan matrix.  The algebras are symmetric, so Hom(T, T[1]) and
    Hom(T, T[-1]) are dual and the H^1 and H^-1 totals agree: no object
    here is silting but not tilting."""
    from brauergraph import homotopy

    model, summands = _golden_mutation(name, edges)
    k = next(k for k, (label, _) in enumerate(summands) if label == stalk)
    x = summands[k][1]
    assert not x.deg_minus1
    summands[k] = (stalk, ProjPresentation(x.deg_0, (), ()))
    vanishing = _vanishing(_hom_complexes(model.table, summands))
    assert vanishing[1] == vanishing[-1] > 0
    monkeypatch.setattr(homotopy, "mutation_object", lambda model, subset: summands)
    report = mutation_verification(model, frozenset())
    assert (report.silting, report.tilting) == (False, False)
    assert report.dim_end is None
    assert report.cartan_equal is None and report.cartan_witness is None
    assert report.hom_witness == witness
    assert not report.ok


@pytest.mark.parametrize(
    "name, edges", [("skew-3", ("1", "3")), ("skew-1", ("3", "5"))]
)
def test_a_skew_leg_stalk_is_ranked_over_both_positions(name, edges):
    """Stalk 2 is a skew leg holding two positions, each of which meets the
    cones: its images from both are filed under it, and D^0 of each cone
    onto each stalk is that stalk's own."""
    model, summands = _golden_mutation(name, edges)
    leg = dict(summands)["2"]
    assert not leg.deg_minus1 and len(leg.deg_0) == 2
    assert list(_hom_complexes(model.table, summands).items()) == _per_pair(
        model.table, summands
    )


def _assert_h0_is_end_table(model, report):
    """The verify path's dimension and H^0 Cartan matrix are End(T)'s, and
    the coordinate pass that ``end_table`` runs reads the same cohomology as
    the rank route on every summand pair."""
    from brauergraph.homotopy import _eliminated_hom_complex, _end_cartan, _hom_complexes

    summands = report.summands
    end = end_table(model.table, summands)
    assert report.dim_end == end.dim
    complexes = _hom_complexes(model.table, summands)
    assert _end_cartan(summands, complexes) == end.cartan()
    for a, (_, x) in enumerate(summands):
        for b, (_, y) in enumerate(summands):
            cohomology, _, _ = _eliminated_hom_complex(model.table, x, y)
            assert cohomology == complexes[(a, b)], (a, b)


def test_mutation_verification_ex1(ex1, ex1_grading, ex1_subset):
    model = ordinary_model(ex1)
    model.grading = ex1_grading
    report = mutation_verification(model, ex1_subset)
    assert report.ok
    assert report.dim_end == report.dim_moved == 22
    assert report.cartan_witness is None and report.hom_witness is None
    _assert_h0_is_end_table(model, report)


def test_mutation_verification_builds_no_end_table(
    ex1, ex1_grading, ex1_subset, ex2, ex2_subset, monkeypatch
):
    from brauergraph import homotopy
    from brauergraph.linalg import RationalSpan

    def unreachable(*args):
        raise AssertionError("End(T) built on the verify path")

    def no_coordinates(*args):
        raise AssertionError("coordinates asked for on the verify path")

    monkeypatch.setattr(homotopy, "end_table", unreachable)
    monkeypatch.setattr(homotopy, "_eliminated_hom_complex", unreachable)
    # H^0 comes from two ranks: no kernel vector, no coordinates.
    monkeypatch.setattr(RationalSpan, "express", no_coordinates)
    monkeypatch.setattr(RationalSpan, "add_or_express", no_coordinates)
    model = ordinary_model(ex1)
    model.grading = ex1_grading
    assert mutation_verification(model, ex1_subset).ok
    assert mutation_verification(skew_model(ex2), ex2_subset).ok


def test_end_table_eliminates_each_pair_once(
    ex1, ex1_subset, ex2, ex2_subset, monkeypatch
):
    """``end_table``, like the coordinate pass it runs, forms each boundary
    image and each D^0 column once per summand pair and never takes the
    rank route first."""
    from brauergraph import homotopy

    drawn = {}

    def counting(name):
        generator = getattr(homotopy, name)

        def wrapped(table, x, y):
            key = (name, id(x), id(y))
            calls, items = drawn.get(key, (0, 0))
            drawn[key] = (calls + 1, items)
            for item in generator(table, x, y):
                calls, items = drawn[key]
                drawn[key] = (calls, items + 1)
                yield item

        return wrapped

    def unreachable(*args):
        raise AssertionError("the rank route run beside the coordinate pass")

    for name in ("_boundary_vectors", "_d0_columns"):
        monkeypatch.setattr(homotopy, name, counting(name))
    monkeypatch.setattr(homotopy, "_hom_complex", unreachable)
    for model, subset in ((ordinary_model(ex1), ex1_subset), (skew_model(ex2), ex2_subset)):
        table = model.table
        summands = mutation_object(model, subset)
        want = {}
        for _, x in summands:
            for _, y in summands:
                n_minus1 = len(_ref_slots(table, x.deg_0, y.deg_minus1))
                n_0 = len(_ref_slots(table, x.deg_minus1, y.deg_minus1)) + len(
                    _ref_slots(table, x.deg_0, y.deg_0)
                )
                want[("_boundary_vectors", id(x), id(y))] = (1, n_minus1)
                want[("_d0_columns", id(x), id(y))] = (1, n_0)
        assert any(items for _, items in want.values())
        drawn.clear()
        end_table(table, summands)
        assert drawn == want
        drawn.clear()
        for _, x in summands:
            for _, y in summands:
                homotopy._eliminated_hom_complex(table, x, y)
        assert drawn == want


def test_mutation_verification_builds_no_second_model(
    ex1, ex1_grading, ex1_subset, ex2, ex2_subset, monkeypatch
):
    """The moved algebra's dimension and Cartan matrix are counted, so the
    verify path builds no algebra table besides the one it is handed."""
    from brauergraph import homotopy
    from brauergraph.algebra import AlgebraTable

    skew = gen_random(1, n_half=8, allow_skew=True)
    assert skew.is_skew
    skew_subset = frozenset(
        h for name in ("1", "4", "5") for h in skew.edges_by_label[name]
    )
    graded = ordinary_model(ex1)
    graded.grading = ex1_grading
    cases = [
        (graded, ex1_subset),
        (skew_model(ex2), ex2_subset),
        (skew_model(skew), skew_subset),
    ]
    built = []
    init = AlgebraTable.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AlgebraTable, "__init__", counting)
    for model, subset in cases:
        assert mutation_verification(model, subset).ok
    assert built == []
    ordinary_model(ex1)  # the counter sees a table being built
    assert len(built) == 1
    assert not hasattr(homotopy, "model_for") and not hasattr(homotopy, "edge_cartan")


def test_summands_biject_with_edges(ex1, ex2, ex1_subset, ex2_subset):
    for graph, subset in ((ex1, ex1_subset), (ex2, ex2_subset)):
        model = model_for(graph)
        summands = mutation_object(model, subset)
        assert len(summands) == len(graph.edges)
        assert [name for name, _ in summands] == sorted(name for name, _ in summands)


def test_end_table_is_an_exact_algebra(ex1, ex1_subset):

    model = ordinary_model(ex1)
    summands = mutation_object(model, ex1_subset)
    end = end_table(model.table, summands)
    assert end.dim == 22
    assert check_table(end) == []  # full associativity sweep


def test_mutation_verification_ex2(ex2, ex2_subset):
    model = skew_model(ex2)
    report = mutation_verification(model, ex2_subset)
    assert report.ok
    assert report.dim_end == report.dim_moved == 63
    _assert_h0_is_end_table(model, report)


def test_mutation_of_a_skew_leg(ex2):
    # moving a pairing-fixed leg exercises the twisted second target copy
    model = skew_model(ex2)
    subset = frozenset(["2", "1+", "1-"])
    summands = dict(mutation_object(model, subset))
    # both copies of the leg vertex sit in degree -1; the walk lands on the
    # doubled edge 3 twice (once plainly, once twisted)
    assert len(summands["2"].deg_minus1) == 2
    assert len(summands["2"].deg_0) == 4
    report = mutation_verification(model, subset)
    assert report.ok
    assert report.dim_end == report.dim_moved == 67
    _assert_h0_is_end_table(model, report)


def test_mutation_fuzz_ordinary():
    done = 0
    seed = 0
    while done < 12:
        seed += 1
        rng = random.Random(70_000 + seed)
        g = gen_random(seed, n_half=rng.choice([4, 6]), allow_skew=False,
                       max_multiplicity=2)
        if bga_dimension_formula(g) > 40:
            continue
        model = ordinary_model(g)
        report = mutation_verification(model, random_ih_stable_subset(g, rng))
        assert report.ok, seed
        _assert_h0_is_end_table(model, report)
        done += 1


def test_mutation_fuzz_skew():
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        rng = random.Random(80_000 + seed)
        g = gen_random(seed, n_half=6, allow_skew=True, max_multiplicity=1)
        if not g.is_skew:
            continue
        model = skew_model(g)
        if model.table.dim > 40:
            continue
        report = mutation_verification(model, random_ih_stable_subset(g, rng))
        assert report.ok, seed
        _assert_h0_is_end_table(model, report)
        done += 1


def unscaled_mutation_object(model, subset):
    """The cones of ``mutation_object`` on the walk elements and the twist
    themselves, as exact elements with their 1/2 coordinates, rather than on
    their integral multiples.  The walks are multiplied out arrow by arrow,
    with no turn power and no integral step form."""
    graph, table = model.graph, model.table

    def walk_element(h, length):
        orbit = graph.sigma_orbit_of(h)
        out = model.full_arrow(h)
        for k in range(1, length):
            out = table.mul(model.full_arrow(orbit[k % len(orbit)]), out)
        return out

    out = []
    for name, edge in sorted(graph.edges_by_label.items()):
        h = edge[0]
        sources = model.edge_positions(h)
        if h not in subset:
            out.append((name, stalk(sources)))
            continue
        blocks = []
        for side in approximation(graph, subset, h).sides:
            if side.target_edge is None:
                continue
            walk = walk_element(side.half_edge, side.r + 1)
            targets = model.edge_positions(graph.orientation.power(side.r + 1, side.half_edge))
            blocks.append((targets, walk))
            if len(edge) == 1:
                blocks.append((targets, table.mul(walk, model.twist)))
        deg0, matrix = [], []
        for targets, elem in blocks:
            for t in targets:
                deg0.append(t)
                matrix.append([table.corner(elem, t, s) for s in sources])
        out.append((name, make_complex(table, tuple(sources), tuple(deg0), matrix)))
    return out


def _skew_guard_cases(ex2):
    """ex2 and the first two skew gen_random graphs at n_half 8, 10 and 12,
    each with two random edge subsets."""
    graphs = [ex2]
    for n_half in (8, 10, 12):
        found = 0
        for seed in range(1, 40):
            g = gen_random(seed, n_half=n_half, allow_skew=True, max_multiplicity=2)
            if g.is_skew:
                graphs.append(g)
                found += 1
                if found == 2:
                    break
    for k, graph in enumerate(graphs):
        rng = random.Random(60_000 + k)
        model = skew_model(graph)
        for _ in range(2):
            yield model, random_ih_stable_subset(graph, rng)


def test_integral_cones_are_isomorphic_to_the_unscaled_ones(ex2):
    """Each row of an integral cone is its unscaled row times a power of two,
    and the two builds agree on every Hom complex's cohomology, on left
    minimality and on the Cartan matrix of End(T)."""
    scaled_rows = verdicts = 0
    for model, subset in _skew_guard_cases(ex2):
        table = model.table
        integral = mutation_object(model, subset)
        unscaled = unscaled_mutation_object(model, subset)
        assert [name for name, _ in integral] == [name for name, _ in unscaled]
        for (_, x), (_, u) in zip(integral, unscaled):
            assert (x.deg_minus1, x.deg_0) == (u.deg_minus1, u.deg_0)
            for frozen, exact_frozen in zip(x.differential, u.differential):
                row = [dict(entry) for entry in frozen]
                exact_row = [dict(entry) for entry in exact_frozen]
                assert all(type(c) is int for entry in row for c in entry.values())
                # undo the row's power of two
                scale = next(
                    (Fraction(entry[k]) / c for entry, exact in zip(row, exact_row)
                     for k, c in exact.items()),
                    1,
                )
                assert scale in (1, 2, 4, 8, 16)
                assert [{k: c / scale for k, c in entry.items()} for entry in row] == exact_row
                scaled_rows += scale > 1
        complexes = _hom_complexes(table, integral)
        reference = _hom_complexes(table, unscaled)
        assert complexes == reference
        assert left_minimality_report(model, integral) == left_minimality_report(
            model, unscaled
        )
        if not any(_vanishing(complexes).values()):
            assert _end_cartan(integral, complexes) == _end_cartan(unscaled, reference)
            verdicts += 1
    assert scaled_rows and verdicts


# Reference systems for homotopy Hom dimensions: three separate linear systems,
# one per shift, solved by their own row reduction.  They are kept here as an
# oracle independent of the Hom complex that ``hom_dimension`` reads.


def _ref_solve_homogeneous(rows, unknowns):
    """Basis of the solution space of ``rows . x = 0`` by full row reduction."""
    from brauergraph.linalg import _quotient, vec_add, vec_scale

    reduced, pivots = [], []
    for raw in rows:
        vec = {k: c for k, c in raw.items() if c}
        for row, pivot in zip(reduced, pivots):
            if pivot in vec:
                vec = vec_add(vec, row, -vec[pivot])
        if not vec:
            continue
        pivot = min(vec, key=repr)
        vec = vec_scale(vec, _quotient(1, vec[pivot]))
        for i, row in enumerate(reduced):
            if pivot in row:
                reduced[i] = vec_add(row, vec, -row[pivot])
        reduced.append(vec)
        pivots.append(pivot)
    basis = []
    for k in unknowns:
        if k in pivots:
            continue
        sol = {k: 1}
        for row, pivot in zip(reduced, pivots):
            if k in row:
                sol[pivot] = -row[k]
        basis.append(sol)
    return basis


def _ref_slots(table, sources, targets):
    return [
        (t_idx, s_idx, b)
        for t_idx, t in enumerate(targets)
        for s_idx, s in enumerate(sources)
        for b in table.corners[t][s]
    ]


def _ref_vector(matrix, tag):
    return {
        (tag, t_idx, s_idx, b): c
        for t_idx, row in enumerate(matrix)
        for s_idx, entry in enumerate(row)
        for b, c in entry.items()
        if c
    }


def _ref_unit(n_rows, n_cols, t_idx, s_idx, b):
    h = [[{} for _ in range(n_cols)] for _ in range(n_rows)]
    h[t_idx][s_idx] = {b: 1}
    return h


def _ref_hom_dimension(table, x, y, shift):
    from brauergraph.linalg import RationalSpan

    dx = [[dict(entry) for entry in row] for row in x.differential]
    dy = [[dict(entry) for entry in row] for row in y.differential]
    if shift == 1:
        # Hom(X_{-1}, Y_0) modulo the images of Hom(X_0, Y_0) and Hom(X_{-1}, Y_{-1})
        span = RationalSpan()
        for slot in _ref_slots(table, x.deg_0, y.deg_0):
            h = _ref_unit(len(y.deg_0), len(x.deg_0), *slot)
            span.add(_ref_vector(compose(table, h, dx), "g"))
        for slot in _ref_slots(table, x.deg_minus1, y.deg_minus1):
            h = _ref_unit(len(y.deg_minus1), len(x.deg_minus1), *slot)
            span.add(_ref_vector(compose(table, dy, h), "g"))
        return len(_ref_slots(table, x.deg_minus1, y.deg_0)) - span.rank
    if shift == -1:
        # maps X_0 -> Y_{-1} killed by both differentials
        slots = _ref_slots(table, x.deg_0, y.deg_minus1)
        rows = {}
        for t_idx, s_idx, b in slots:
            for s2 in range(len(x.deg_minus1)):
                for coord, c in table.mul({b: 1}, dx[s_idx][s2]).items():
                    rows.setdefault(("left", t_idx, s2, coord), {})[(t_idx, s_idx, b)] = c
            for t2 in range(len(y.deg_0)):
                for coord, c in table.mul(dy[t2][t_idx], {b: 1}).items():
                    rows.setdefault(("right", t2, s_idx, coord), {})[(t_idx, s_idx, b)] = c
        return len(_ref_solve_homogeneous(list(rows.values()), slots))
    # shift 0: chain maps f_0 . d_X = d_Y . f_{-1}, modulo homotopies
    slots_m1 = _ref_slots(table, x.deg_minus1, y.deg_minus1)
    slots_0 = _ref_slots(table, x.deg_0, y.deg_0)
    rows = {}

    def add(key, unknown, c):
        row = rows.setdefault(key, {})
        row[unknown] = row.get(unknown, 0) + c

    for t_idx, s_idx, b in slots_0:
        for s2 in range(len(x.deg_minus1)):
            for coord, c in table.mul({b: 1}, dx[s_idx][s2]).items():
                add((t_idx, s2, coord), ("d0", t_idx, s_idx, b), c)
    for t_idx, s_idx, b in slots_m1:
        for t2 in range(len(y.deg_0)):
            for coord, c in table.mul(dy[t2][t_idx], {b: 1}).items():
                add((t2, s_idx, coord), ("m1", t_idx, s_idx, b), -c)
    unknowns = [("m1", *s) for s in slots_m1] + [("d0", *s) for s in slots_0]
    cycles = _ref_solve_homogeneous(list(rows.values()), unknowns)
    span = RationalSpan()
    for slot in _ref_slots(table, x.deg_0, y.deg_minus1):
        h = _ref_unit(len(y.deg_minus1), len(x.deg_0), *slot)
        vec = _ref_vector(compose(table, h, dx), "m1")
        vec.update(_ref_vector(compose(table, dy, h), "d0"))
        span.add(vec)
    n_boundaries = span.rank
    for vec in cycles:
        span.add(vec)
    return span.rank - n_boundaries


def _oracle_graphs(ex1, ex2):
    graphs = [(ex1, ordinary_model(ex1)), (ex2, skew_model(ex2))]
    for seed, skew in ((3, False), (4, False), (6, False), (2, True), (5, True), (9, True)):
        g = gen_random(seed, n_half=6, allow_skew=skew, max_multiplicity=2)
        graphs.append((g, model_for(g)))
    return graphs


def test_hom_dimension_matches_the_reference_systems(ex1, ex2):
    nonzero = {-1: 0, 1: 0}
    pairs = 0
    for seed, (graph, model) in enumerate(_oracle_graphs(ex1, ex2)):
        rng = random.Random(90_000 + seed)
        summands = []
        for _ in range(2):
            summands += mutation_object(model, random_ih_stable_subset(graph, rng))
        for _, x in summands:
            for _, y in summands:
                got = [hom_dimension(model.table, x, y, k) for k in (-1, 0, 1)]
                want = [_ref_hom_dimension(model.table, x, y, k) for k in (-1, 0, 1)]
                assert got == want, (seed, x, y)
                nonzero[-1] += got[0] > 0
                nonzero[1] += got[2] > 0
                pairs += 1
    assert pairs > 100
    assert nonzero[-1] and nonzero[1], nonzero


def _full_cohomology(table, x, y):
    """dim H^n from the coordinate pass that ``end_table`` and ``hom_space``
    run, with every column formed.  Its H^0 is the number of classes it
    names, and its H^{-1} counts the boundary images its span left out."""
    from brauergraph.homotopy import _eliminated_hom_complex

    cohomology, span, classes = _eliminated_hom_complex(table, x, y)
    n_boundaries = span.rank - len(classes)
    assert cohomology[0] == len(_ref_slots(table, x.deg_0, y.deg_minus1)) - n_boundaries
    assert cohomology[1] == len(classes)
    return cohomology


def test_stalk_pairs_skip_the_elimination(ex1, ex2, monkeypatch):
    from brauergraph import homotopy
    from brauergraph.homotopy import _eliminated_hom_complex, _hom_complex

    def unreachable(*args, **kwargs):
        raise AssertionError("a differential applied between two stalks")

    pairs = 0
    for model in (ordinary_model(ex1), skew_model(ex2)):
        table = model.table
        n = len(table.idempotents)
        stalks = [stalk([p]) for p in range(n)]
        stalks += [stalk([0, n - 1]), stalk([n - 1, 1, 1])]
        for x in stalks:
            for y in stalks:
                want = _full_cohomology(table, x, y)
                with monkeypatch.context() as patch:
                    patch.setattr(homotopy, "_images", unreachable)
                    got = _hom_complex(table, x, y)
                assert list(got) == [
                    _ref_hom_dimension(table, x, y, k) for k in (-1, 0, 1)
                ]
                assert got == want
                # Every corner map is a class; none is a boundary.
                _, span, reps = _eliminated_hom_complex(table, x, y)
                assert [list(c.items()) for c in reps] == [
                    [(("d0", *slot), 1)]
                    for slot in _ref_slots(table, x.deg_0, y.deg_0)
                ]
                assert span.rank - len(reps) == 0
                assert span.rank == len(reps) == got[1]
                pairs += got[1] > 0
    assert pairs > 50


def test_stalk_pairs_take_no_rank(ex1, ex1_subset, ex2, monkeypatch):
    """Between two stalks |Hom^{-1}| = |Hom^1| = 0, so ``_hom_complex``
    reads H^0 off the corner sizes and takes no rank at all."""
    from brauergraph import homotopy
    from brauergraph.homotopy import _hom_complex

    ranks = []
    counted = homotopy.rank
    monkeypatch.setattr(
        homotopy, "rank", lambda *args: ranks.append(args) or counted(*args)
    )
    for model in (ordinary_model(ex1), skew_model(ex2)):
        table = model.table
        n = len(table.idempotents)
        stalks = [stalk([p]) for p in range(n)]
        stalks += [stalk([0, n - 1]), stalk([n - 1, 1, 1])]
        for x in stalks:
            for y in stalks:
                n_0 = len(_ref_slots(table, x.deg_0, y.deg_0))
                assert _hom_complex(table, x, y) == (0, n_0, 0)
    assert ranks == []
    # The counter sees the ranks of a pair of cones.
    model = ordinary_model(ex1)
    cones = [x for _, x in mutation_object(model, ex1_subset) if x.deg_minus1]
    _hom_complex(model.table, cones[0], cones[0])
    assert ranks


def _ref_with_differential(table, slot, d, tag, after, sign=1):
    """Coordinates of sign * d . u (``after``) or sign * u . d, for the basis
    map u with its one corner basis element at ``slot``, formed term by term
    from the entries of d: the reference for the keys, their insertion order
    and the coefficients of every boundary image and D^0 column."""
    t, s, b = slot
    if after:
        terms = [(t2, s, c, table.pairwise(k, b)) for t2, row in enumerate(d)
                 for k, c in row[t]]
    else:
        terms = [(t, s2, c, table.pairwise(b, k)) for s2, entry in enumerate(d[s])
                 for k, c in entry]
    out = {}
    for i, j, c, product in terms:
        c *= sign
        for e, ce in product.items():
            key = (tag, i, j, e)
            new = out.get(key, 0) + c * ce
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def _typed(vec):
    return [(key, type(c), c) for key, c in vec.items()]


def _kernel_cases(ex1, ex2):
    cases = [(ex1, ordinary_model(ex1)), (ex2, skew_model(ex2))]
    for n_half in (6, 8, 10, 12):
        for skew in (False, True):
            g = gen_random(n_half, n_half=n_half, allow_skew=skew, max_multiplicity=2)
            cases.append((g, model_for(g)))
    return cases


def _assert_images_match(table, summands) -> int:
    """``_boundary_vectors`` and ``_d0_columns`` yield, for every pair of
    summands, the vectors that applying each differential entry by entry to
    each ``_ref_slots`` basis map gives: the same keys in the same order,
    with equal coefficients of the same type; ``_hom_sizes`` counts those
    basis maps.  Returns the number of zero images."""
    from brauergraph.homotopy import _boundary_vectors, _d0_columns, _hom_sizes

    zeros = 0
    for _, x in summands:
        dx = x.differential
        for _, y in summands:
            dy = y.differential
            slots_h = _ref_slots(table, x.deg_0, y.deg_minus1)
            slots_m1 = _ref_slots(table, x.deg_minus1, y.deg_minus1)
            slots_0 = _ref_slots(table, x.deg_0, y.deg_0)
            slots_1 = _ref_slots(table, x.deg_minus1, y.deg_0)
            assert _hom_sizes(table, x, y) == (
                len(slots_h), len(slots_m1) + len(slots_0), len(slots_1)
            )
            want = [
                _ref_with_differential(table, slot, dx, "m1", after=False)
                | _ref_with_differential(table, slot, dy, "d0", after=True)
                for slot in slots_h
            ]
            got = list(_boundary_vectors(table, x, y))
            assert list(map(_typed, got)) == list(map(_typed, want))
            zeros += want.count({})
            want = [
                (("m1", *slot),
                 _ref_with_differential(table, slot, dy, "g", after=True, sign=-1))
                for slot in slots_m1
            ] + [
                (("d0", *slot), _ref_with_differential(table, slot, dx, "g", after=False))
                for slot in slots_0
            ]
            got = list(_d0_columns(table, x, y))
            assert [(key, _typed(v)) for key, v in got] == [
                (key, _typed(v)) for key, v in want
            ]
            zeros += [v for _, v in want].count({})
    return zeros


def test_images_are_the_term_by_term_vectors(ex1, ex2):
    for seed, (graph, model) in enumerate(_kernel_cases(ex1, ex2)):
        rng = random.Random(95_000 + seed)
        summands = []
        for _ in range(2):
            summands += mutation_object(model, random_ih_stable_subset(graph, rng))
        _assert_images_match(model.table, summands)


def test_images_drop_the_terms_that_cancel():
    """With the differential x - y and x.x = x.y = y.x = y.y = z, the images
    of x and y cancel, term by term, on either side of the differential."""
    from brauergraph.algebra import AlgebraTable

    def product(i, j):
        if i == 0 or j == 0:
            return {i + j: 1}
        return {3: 1} if i < 3 and j < 3 else {}

    table = AlgebraTable(["e", "x", "y", "z"], [0] * 4, [0] * 4, [("v", 0)], product)
    cone = make_complex(table, (0,), (0,), [[{1: 1, 2: -1}]])
    summands = [("cone", cone), ("stalk", stalk([0]))]
    assert _assert_images_match(table, summands) >= 4


def test_d0_columns_stop_at_full_rank(ex1, ex1_subset, ex2, ex2_subset, monkeypatch):
    """The rank route forms D^0 columns only until rk D^0 = |Hom^1|, and its
    cohomology is that of the full elimination and of the reference systems."""
    from brauergraph import homotopy
    from brauergraph.homotopy import _hom_complex

    counted = homotopy._d0_columns
    built = []

    def counting(*args):
        for pair in counted(*args):
            built.append(pair)
            yield pair

    monkeypatch.setattr(homotopy, "_d0_columns", counting)
    stopped = 0
    for model, subset in ((ordinary_model(ex1), ex1_subset), (skew_model(ex2), ex2_subset)):
        table = model.table
        summands = mutation_object(model, subset)
        for _, x in summands:
            for _, y in summands:
                built.clear()
                got = _hom_complex(table, x, y)
                n_columns = len(_ref_slots(table, x.deg_minus1, y.deg_minus1)) + len(
                    _ref_slots(table, x.deg_0, y.deg_0)
                )
                assert len(built) <= n_columns
                if len(built) < n_columns:
                    # it stopped at full rank
                    assert got[2] == 0
                    stopped += 1
                assert got == _full_cohomology(table, x, y)
                assert list(got) == [
                    _ref_hom_dimension(table, x, y, k) for k in (-1, 0, 1)
                ]
    assert stopped, "no pair reached full rank before its last column"


def test_hom_dimension_non_tilting_quartet(ex1):
    from brauergraph.homotopy import ProjPresentation

    table = ordinary_model(ex1).table
    plain = stalk([0])
    shifted = ProjPresentation((0,), (), ())  # the same projective in degree -1
    expected = {
        (plain, plain): [0, 3, 0],
        (plain, shifted): [3, 0, 0],
        (shifted, plain): [0, 0, 3],
        (shifted, shifted): [0, 3, 0],
    }
    for (x, y), row in expected.items():
        assert [hom_dimension(table, x, y, k) for k in (-1, 0, 1)] == row
        assert [_ref_hom_dimension(table, x, y, k) for k in (-1, 0, 1)] == row


# End(T) by the matrix route: class representatives turned into matrix pairs,
# composed with ``compose`` and read back into Hom^0 coordinates.  It is the
# reference for the table that composes coordinate vectors directly.


def _ref_end_table(table, summands):
    from brauergraph.algebra import AlgebraTable
    from brauergraph.homotopy import _eliminated_hom_complex

    def chain_map(x, y, coords):
        """The components (f_{-1}, f_0) of a chain map X -> Y from its
        Hom^0 coordinates."""
        f_m1 = [[{} for _ in x.deg_minus1] for _ in y.deg_minus1]
        f_0 = [[{} for _ in x.deg_0] for _ in y.deg_0]
        component = {"m1": f_m1, "d0": f_0}
        for (tag, t_idx, s_idx, b), value in coords.items():
            entry = component[tag][t_idx][s_idx]
            entry[b] = entry.get(b, 0) + value
        return f_m1, f_0

    spans = {}
    reps = {}
    for a, (_, x) in enumerate(summands):
        for b, (_, y) in enumerate(summands):
            seed = ()
            if a == b:
                seed = ({
                    (tag, t, t, table.idempotents[p][1]): 1
                    for tag, positions in (("m1", x.deg_minus1), ("d0", x.deg_0))
                    for t, p in enumerate(positions)
                },)
            _, span, classes = _eliminated_hom_complex(table, x, y, seed)
            # the span holds the boundaries, then the classes
            spans[(a, b)] = span, span.rank - len(classes)
            reps[(a, b)] = [chain_map(x, y, vec) for vec in classes]
    labels, src, tgt, where, idempotents, offsets = [], [], [], [], [], {}
    for (a, b), pair_reps in reps.items():
        offsets[(a, b)] = len(labels)
        for k in range(len(pair_reps)):
            if a == b and k == 0:
                idempotents.append((summands[a][0], len(labels)))
            labels.append(f"[{summands[a][0]}->{summands[b][0]}]{k}")
            src.append(a)
            tgt.append(b)
            where.append((a, b, k))

    def product(i, j):
        fa, fb, fk = where[i]
        ga, gb, gk = where[j]
        if gb != fa:
            return {}
        u, v = reps[(fa, fb)][fk], reps[(ga, gb)][gk]
        vec = _ref_vector(compose(table, u[0], v[0]), "m1")
        vec.update(_ref_vector(compose(table, u[1], v[1]), "d0"))
        span, n_boundaries = spans[(ga, fb)]
        coords = span.express(vec)
        assert coords is not None
        return {
            offsets[(ga, fb)] + local - n_boundaries: c
            for local, c in coords.items()
            if local >= n_boundaries and c
        }

    return AlgebraTable(labels, src, tgt, idempotents, product)


def _end_table_cases(ex1, ex2):
    cases = [
        (ex1, ordinary_model(ex1), random.Random(1)),
        (ex2, skew_model(ex2), random.Random(2)),
    ]
    made = {False: 0, True: 0}
    seed = 0
    while min(made.values()) < 11:
        seed += 1
        for skew in (False, True):
            g = gen_random(seed, n_half=(6, 8, 10, 12, 14, 16)[seed % 6],
                           allow_skew=skew, max_multiplicity=2)
            if g.is_skew != skew or made[skew] == 11:
                continue
            model = model_for(g)
            if model.table.dim > 130:
                continue
            cases.append((g, model, random.Random(60_000 + seed)))
            made[skew] += 1
    return cases


def test_end_table_composes_like_the_matrix_route(ex1, ex2):

    products = 0
    for graph, model, rng in _end_table_cases(ex1, ex2):
        summands = mutation_object(model, random_ih_stable_subset(graph, rng))
        got = end_table(model.table, summands)
        want = _ref_end_table(model.table, summands)
        assert (got.labels, got.src, got.tgt, got.idempotents) == (
            want.labels, want.src, want.tgt, want.idempotents
        )
        for i in range(got.dim):
            for j in range(got.dim):
                if got.src[i] == got.tgt[j]:
                    assert got.pairwise(i, j) == want.pairwise(i, j), (graph, i, j)
                    products += 1
        assert check_table(got) == []
    assert products > 10_000


def test_make_complex_rejects_an_entry_outside_its_corner(ex1):
    from brauergraph.homotopy import make_complex

    table = ordinary_model(ex1).table
    other = {table.idempotents[1][1]: 1}
    with pytest.raises(ValueError, match="^differential entry escapes its corner$"):
        make_complex(table, (0,), (0,), [[other]])
    # Half inside the corner is still outside it.
    mixed = {table.idempotents[0][1]: 1, **other}
    with pytest.raises(ValueError, match="^differential entry escapes its corner$"):
        make_complex(table, (0,), (0,), [[mixed]])
    assert make_complex(table, (0,), (1,), [[{}]]).differential == (((),),)


def test_end_table_rejects_a_contractible_summand(monkeypatch):
    from brauergraph.homotopy import make_complex

    from brauergraph import homotopy

    model = ordinary_model(gen_random(1, n_half=8, max_multiplicity=2))
    table = model.table
    cone = make_complex(table, (0,), (0,), [[{table.idempotents[0][1]: 1}]])
    summands = [("a", stalk([0])), ("b", cone)]
    message = (
        "summand 'b' is zero in the homotopy category: "
        "its identity is null-homotopic"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        end_table(table, summands)

    # The verify path finds it from the H^0 diagonal, without End(T).
    def unreachable(*args):
        raise AssertionError("End(T) built on the verify path")

    monkeypatch.setattr(homotopy, "mutation_object", lambda model, subset: summands)
    monkeypatch.setattr(homotopy, "_eliminated_hom_complex", unreachable)
    with pytest.raises(ValueError, match=f"^{message}$"):
        mutation_verification(model, frozenset())


def star(order: str):
    """Four edges k+ k- with the half-edges k+ round one vertex in ``order``."""
    names = [f"{k}{end}" for k in "1234" for end in "+-"]
    pairs = [(f"{k}+", f"{k}-") for k in "1234"]
    return build_graph(names, pairs, [tuple(f"{k}+" for k in order)])


def quiver_arrows(graph) -> Counter:
    """The arrows of an ordinary graph's quiver per ordered pair of edges."""
    return Counter((a.source[0], a.target[0]) for a in quiver(graph).arrows)


def with_unipotent_classes(table):
    """``table`` on its basis with each non-identity class v of a diagonal
    corner replaced by v + e, e the corner's identity: an isomorphic algebra
    whose diagonal classes are no longer nilpotent."""
    shifted = {
        v: unit
        for t, (_, unit) in enumerate(table.idempotents)
        for v in table.corners[t][t]
        if v != unit
    }

    def old(k):
        return {k: 1, shifted[k]: 1} if k in shifted else {k: 1}

    def product(i, j):
        out = table.mul(old(i), old(j))
        for v, unit in shifted.items():
            if v in out:
                out[unit] = out.get(unit, 0) - out[v]
        return {k: c for k, c in out.items() if c}

    return AlgebraTable(table.labels, table.src, table.tgt, table.idempotents, product)


def test_the_radical_quiver_of_the_stalks_is_the_graph_quiver():
    """End(A) of the star (1+ 2+ 3+ 4+) has the quiver 1 -> 2 -> 3 -> 4 -> 1,
    not the 1 -> 3 -> 2 -> 4 -> 1 of the star (1+ 3+ 2+ 4+), though the two
    have one dimension (20) and one Cartan matrix.  Moving each diagonal
    class off the radical by its identity changes no arrow."""
    graphs = [star("1234"), star("1324")]
    ends = []
    for graph in graphs:
        model = ordinary_model(graph)
        ends.append(end_table(model.table, mutation_object(model, frozenset())))
    assert [end.dim for end in ends] == [20, 20]
    assert ends[0].cartan() == ends[1].cartan()
    assert [radical_quiver(end) for end in ends] == [quiver_arrows(g) for g in graphs]
    assert radical_quiver(ends[0]) != quiver_arrows(graphs[1])
    unipotent = with_unipotent_classes(ends[0])
    assert not check_table(unipotent)
    assert radical_quiver(unipotent) == quiver_arrows(graphs[0])


def test_the_radical_quiver_of_end_t_is_the_moved_quiver():
    """On ordinary mutations of the ``mutate-ladder`` rungs, each of a
    quarter of the edges, End(T)'s radical layers give the moved graph's
    quiver, which is not the unmoved graph's."""
    for n_half in (8, 16, 24, 32):
        for seed in (1, 2):
            graph = gen_random(seed, n_half=n_half, max_multiplicity=3)
            names = sorted(graph.edges_by_label)
            edges = random.Random(seed).sample(names, max(1, len(names) // 4))
            subset = frozenset(h for name in edges for h in graph.edges_by_label[name])
            model = ordinary_model(graph)
            end = end_table(model.table, mutation_object(model, subset))
            moved = move_set(GradedGraph(graph, default_grading(graph, subset)), subset)
            arrows = quiver_arrows(moved.graph)
            assert radical_quiver(end) == arrows, (n_half, seed)
            assert arrows != quiver_arrows(graph), (n_half, seed)

"""The orbit basis of f(A#G)f against the generic skew group route.

``truncation_model`` builds f(A#G)f with ``algebra.orbit_truncation``; the
generic ``truncate(skew_group_table(...))`` is the oracle.  Each case maps
the orbit basis into the generic truncation with ``Truncation.express`` and
checks that the map is an isomorphism taking every structure constant, arrow
and twist onto the generic one.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from brauergraph.algebra import (
    AlgebraTable,
    GroupActionTable,
    ONE,
    action_violations,
    bga_dimension_formula,
    bga_table_with_keys,
    monomial_isomorphism_violations,
    orbit_truncation,
    skew_group_table,
)
from brauergraph.core import GradedGraph, gen_random, random_valid_grading, zero_grading
from brauergraph.covering import cover, default_grading, sheet_label
from brauergraph.graphfile import parse
from brauergraph.linalg import RationalSpan, vec_add
from brauergraph import algebra, models
from brauergraph.models import (
    cut_cover_table,
    cut_model_table,
    sheet_shift_action,
    skew_dimension_oracle,
    truncation_idempotents,
    truncation_model,
)
from brauergraph.presentation import quiver, relations

from conftest import (
    chosen_elements,
    left_nested,
    mul_compressions,
    table_corner_sum,
    truncate,
    with_negated_basis,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
# Skew graphs per n_half.  The cap on the cover's dimension, and
# multiplicity one past ten half-edges, keep each case to a fraction of a
# second: the generic oracle's products are the cost.
PER_SIZE = 4
MAX_COVER_DIM = 100


def skew_cases():
    """(name, graph, grading): skew gen_random graphs under two gradings."""
    cases = []
    for n_half in range(6, 17, 2):
        m = 3 if n_half <= 10 else 1
        taken = 0
        for seed in itertools.count(1):
            graph = gen_random(seed, n_half=n_half, allow_skew=True, max_multiplicity=m)
            if not graph.is_skew:
                continue
            zero = zero_grading(graph)
            cover_dim = bga_dimension_formula(cover(GradedGraph(graph, zero)).total)
            if cover_dim > MAX_COVER_DIM:
                continue
            shifted = random_valid_grading(graph, random.Random(seed), zero)
            for kind, grading in (("zero", zero), ("random", shifted)):
                cases.append((f"skew-{n_half}-{seed}-{kind}", graph, grading))
            taken += 1
            if taken == PER_SIZE:
                break
    return cases


def ordinary_cases():
    """(name, graph, grading): ordinary graphs whose covers have three or more sheets."""
    cases = []
    for seed in itertools.count(1):
        graph = gen_random(seed, n_half=8, max_multiplicity=3)
        grading = default_grading(graph)
        if grading.modulus > 2:
            grading = random_valid_grading(graph, random.Random(seed), grading)
            cases.append((f"ordinary-{seed}-m{grading.modulus}", graph, grading))
        if len(cases) == 2:
            return cases


def paper_cases():
    """ex1 under its file grading and ex2 under the zero grading."""
    cases = []
    for name in ("ex1", "ex2"):
        parsed = parse((GOLDEN / f"{name}.bg").read_text(encoding="utf-8"))
        grading = parsed.grading or zero_grading(parsed.graph)
        cases.append((name, parsed.graph, grading))
    return cases


# The cut of ex2 with multiplicity one that ``cut_model_table`` is tested on.
CUT_DELTA = frozenset(["1-", "1+", "4-", "5-"])
SKEW_CASES = skew_cases()
ORDINARY_CASES = ordinary_cases()
CASES = {name: (graph, grading) for name, graph, grading in
         paper_cases() + SKEW_CASES + ORDINARY_CASES}


def chosen_triples(covered, table):
    """``truncation_idempotents`` labelled as ``truncation_model`` labels them."""
    return [(str(v), e, copy) for v, e, copy in truncation_idempotents(covered, table)]


@functools.lru_cache(maxsize=None)
def routes(case):
    """The cover, its table and key index, and the orbit and generic
    truncations: (covered, bd, index_of, orbit, generic)."""
    covered = cover(GradedGraph(*CASES[case]))
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    chosen = chosen_triples(covered, bd)
    orbit = orbit_truncation(bd, action, chosen)
    generic = truncate(skew_group_table(bd, action), chosen_elements(bd.dim, chosen))
    return covered, bd, index_of, orbit, generic


@pytest.fixture(params=list(CASES))
def case(request):
    return request.param


def test_the_case_list_is_as_wide_as_claimed():
    ex1, file_grading = CASES["ex1"]
    assert file_grading != zero_grading(ex1) and CASES["ex2"][0].is_skew
    assert len({name.rsplit("-", 1)[0] for name, _, _ in SKEW_CASES}) + 1 >= 20
    assert {name.split("-")[1] for name, _, _ in SKEW_CASES} == {
        str(n) for n in range(6, 17, 2)
    }
    assert all(grading.modulus > 2 for _, _, grading in ORDINARY_CASES)


def generic_arrows(covered, bd, index_of, generic):
    """Arrows and twist read from the generic truncation, as ``truncation_model``
    reads them from the orbit one."""
    base, grading = covered.base.graph, covered.base.grading
    table = generic.table
    position = {label: p for p, (label, _) in enumerate(table.idempotents)}
    arrows = {}
    for a in quiver(base).arrows:
        sheet = (-grading(a.h)) % covered.group_order
        w_index = index_of[("w", sheet_label(a.h, sheet), 1)]
        lifted = generic.express({sheet * bd.dim + w_index: ONE})
        corner = table.corner(lifted, position[str(a.target)], position[str(a.source)])
        if corner:
            arrows[a] = corner
    twist = None
    if base.is_skew:
        twist = generic.express({bd.dim + index: ONE for _, index in bd.idempotents})
    return arrows, twist


def corner_rows(table):
    """Basis indices by target: the right factors composable with an element
    whose source is that vertex."""
    rows = {p: [] for p in range(len(table.idempotents))}
    for j in range(table.dim):
        rows[table.tgt[j]].append(j)
    return rows


def change_of_basis(orbit, generic):
    """Check that writing each orbit basis element in generic coordinates is
    an isomorphism of the two corner tables; return the map on elements."""
    table, oracle = orbit.table, generic.table
    assert table.dim == oracle.dim
    assert [label for label, _ in table.idempotents] == [
        label for label, _ in oracle.idempotents
    ]
    assert table.cartan() == oracle.cartan()

    # The change of basis: each orbit basis element in generic coordinates.
    image = [generic.express(orbit.vector(k)) for k in range(table.dim)]
    span = RationalSpan()
    assert all(span.add(v) is not None for v in image)
    for p, (_, index) in enumerate(table.idempotents):
        assert image[index] == {oracle.idempotents[p][1]: ONE}

    def mapped(x):
        out = {}
        for k, c in x.items():
            out = vec_add(out, image[k], c)
        return out

    row = corner_rows(table)
    for i in range(table.dim):
        for j in row[table.src[i]]:
            assert mapped(table.pairwise(i, j)) == oracle.mul(image[i], image[j]), (
                table.labels[i],
                table.labels[j],
            )
    return mapped


def test_orbit_table_is_isomorphic_to_the_generic_truncation(case):
    covered, bd, index_of, orbit, generic = routes(case)
    mapped = change_of_basis(orbit, generic)
    model = truncation_model(covered)
    assert model.table.labels == orbit.table.labels
    arrows, twist = generic_arrows(covered, bd, index_of, generic)
    assert set(model.arrow_element) == set(arrows)
    for a, elem in model.arrow_element.items():
        assert mapped(elem) == arrows[a], a
    assert (model.twist is None) == (twist is None)
    if twist is not None:
        assert mapped(model.twist) == twist


def test_express_is_certified(case):
    """On every basis key x of A#G, ``compress`` gives the coordinates of
    f x f, and on each basis element of the truncation its own coordinate."""
    _, _, _, orbit, generic = routes(case)
    skew = generic.ambient
    f = {}
    for _, x in generic.chosen:
        f = vec_add(f, x)
    for key in range(skew.dim):
        x = {key: ONE}
        fxf = skew.mul(skew.mul(f, x), f)
        compressed = {}
        for k, c in orbit.compress(x).items():
            compressed = vec_add(compressed, orbit.vector(k), c)
        assert compressed == fxf
    for k in range(orbit.table.dim):
        assert orbit.compress(orbit.vector(k)) == {k: ONE}


def test_compressions_match_products_in_the_skew_group_algebra(case):
    """On every key x of A#G the index kernel gives the forms F_p x F_q of
    ``mul(mul(F_p, x), F_q)`` in A#G, corner for corner and with their keys
    in the same order; on a sum of keys it gives the sum."""
    _, _, _, orbit, generic = routes(case)
    skew, chosen = generic.ambient, generic.chosen

    def ordered(compressions):
        return [(corner, list(form.items())) for corner, form in compressions]

    for key in range(skew.dim):
        x = {key: ONE}
        assert ordered(orbit.compressions(x)) == ordered(
            mul_compressions(skew, chosen, x)
        ), skew.labels[key]
    x = {key: Fraction(key + 1, 2) for key in range(skew.dim)}
    assert orbit.compressions(x) == mul_compressions(skew, chosen, x)


def test_structure_constants_are_units_or_halves(case):
    """Every structure constant is an ``int`` unit: the orbit basis is scaled
    by the target's denominator alone, so no product keeps the 1/2 of a
    skew leg's idempotents."""
    _, _, _, orbit, _ = routes(case)
    table = orbit.table
    row = corner_rows(table)
    constants = {
        (type(c), c)
        for i in range(table.dim)
        for j in row[table.src[i]]
        for c in table.pairwise(i, j).values()
    }
    assert constants <= {(int, 1), (int, -1)}


def test_paths_are_multiplied_in_integers(case):
    """Each arrow is held as +-1 coordinates over a denominator 1 or 2, the
    latter exactly at a skew leg's copy; so every prefix of a relation's
    paths, and every power turn^q (q <= m) of a walk's turn, is an ``int``
    element over a power of two, and turn^q is the q-th power of the
    turn."""
    covered = routes(case)[0]
    graph = covered.base.graph
    model = truncation_model(covered)
    for a in model.arrow_element:
        value, d = model.scaled_path((a,))
        assert d == (2 if a.source[1] is not None else 1), a
        assert {(type(c), c) for c in value.values()} <= {(int, 1), (int, -1)}
    scaled = []
    for rel in relations(graph):
        assert model.scaled_relation(rel)[0] == {}
        for _, path in rel.terms:
            scaled += [model.scaled_path(path[:k]) for k in range(1, len(path) + 1)]
    for h in graph.half_edges:
        turn_length = len(graph.sigma_orbit_of(h))
        turn = model.scaled_walk(h, turn_length)
        for q in range(1, max(graph.multiplicity[h], 2) + 1):
            power = model.scaled_walk(h, q * turn_length)
            assert power == power_of(model, turn, q), (h, q)
            scaled.append(power)
    assert scaled
    for value, d in scaled:
        assert all(type(c) is int for c in value.values())
        assert d & (d - 1) == 0


def power_of(model, scaled, q):
    """(V^q, D^q) for the (V, D) of ``scaled``, multiplied from the left."""
    value, d = scaled
    out = value
    for _ in range(q - 1):
        out = model.table.mul(value, out)
    return out, d**q


def golden_cases():
    """(name, graph, grading): each golden graph under its file grading, or
    the default one."""
    cases = []
    for path in sorted(GOLDEN.glob("*.bg")):
        parsed = parse(path.read_text(encoding="utf-8"))
        grading = parsed.grading or default_grading(parsed.graph)
        cases.append((f"golden-{path.stem}", parsed.graph, grading))
    return cases


LEFT_NESTED_CASES = {name: (graph, grading) for name, graph, grading in golden_cases()} | CASES


@pytest.mark.parametrize("name", list(LEFT_NESTED_CASES))
def test_the_trie_gives_the_left_nested_products(name, monkeypatch):
    """Every path ``presentation_problems`` evaluates, and walks of up to
    three turns and a step from each half-edge, have the (V, D) of
    multiplying their steps one at a time: turn powers change no value."""
    graph, grading = LEFT_NESTED_CASES[name]
    covered = cover(GradedGraph(graph, grading))
    model = truncation_model(covered)
    # The wrapper also checks the model's dimension against the independent
    # count, under this case's grading.
    dim = model.table.dim
    assert models.presentations_match(graph, covered) == (True, [], dim, dim)
    evaluated = []
    real_path = models.GraphAlgebraModel.scaled_path

    def recording_path(model, path):
        out = real_path(model, path)
        evaluated.append((path, out))
        return out

    monkeypatch.setattr(models.GraphAlgebraModel, "scaled_path", recording_path)
    assert models.presentation_problems(model) == []
    assert evaluated
    for path, out in evaluated:
        assert out == left_nested(model, path), path
    for h in sorted(graph.half_edges):
        if not any(a.h == h for a in model.arrow_element):
            continue
        orbit = graph.sigma_orbit_of(h)
        for length in range(1, 3 * len(orbit) + 2):
            steps = [orbit[k % len(orbit)] for k in range(length)]
            assert model.scaled_walk(h, length) == left_nested(model, steps), (h, length)


def test_diagonal_corners_are_local(case):
    """Every basis element of e_p A e_p other than e_p is nilpotent, as
    ``AlgebraTable.radical_coefficient_free`` assumes."""
    _, _, _, orbit, _ = routes(case)
    table = orbit.table
    for p, (_, idem) in enumerate(table.idempotents):
        corner = table.corners[p][p]
        for k in corner:
            if k == idem:
                continue
            power = {k: ONE}
            for _ in range(len(corner)):
                power = table.mul(power, {k: ONE})
            assert power == {}, table.labels[k]


def test_corner_labels_name_the_key_that_admitted_them(case):
    """A chosen idempotent's label is its own; any other basis element k of
    corner (p, q) is labelled b|g{s}[p.q] for the least key b (x) g^s whose
    compression has k in its support.  That is the key whose turn in the
    sweep admitted k: by the lemma of ``orbit_truncation`` a skipped key
    compresses to multiples of what an earlier key admitted."""
    covered, bd, _, orbit, _ = routes(case)
    table = orbit.table
    labels = [label for label, _ in table.idempotents]
    origin = {}
    for key in range(covered.group_order * bd.dim):
        for k in orbit.compress({key: ONE}):
            origin.setdefault(k, key)
    for k in range(len(labels), table.dim):
        sheet, b = divmod(origin[k], bd.dim)
        labels.append(f"{bd.labels[b]}|g{sheet}[{table.tgt[k]}.{table.src[k]}]")
    assert len(table.labels) == table.dim
    assert table.labels == tuple(labels)
    assert [table.labels[k] for k in range(table.dim)] == labels


def test_the_dimension_count_is_the_table_route(case):
    """``skew_dimension_oracle`` counts what the covering's table gives:
    its corner sum on a two-sheet covering, and on every covering the
    dimension of the orbit table."""
    covered, _, _, orbit, _ = routes(case)
    counted = skew_dimension_oracle(covered)
    assert counted == orbit.table.dim
    if covered.group_order == 2:
        assert counted == table_corner_sum(covered)


def test_truncation_model_rejects_a_non_multiplicative_action(
    ex2_multiplicity_one, monkeypatch
):
    """Swapping the images of w[2_0:2] and w[2_1:2], which the sheet shift
    exchanges, keeps an order-two permutation of the basis that moves the
    idempotents and the corners as the shift does, but breaks products
    through them."""
    from brauergraph import models

    true_action = models.sheet_shift_action

    def broken(covered, keys, index_of):
        action = true_action(covered, keys, index_of)
        a, b = index_of["w", "2_0", 2], index_of["w", "2_1", 2]
        images = list(action.images)
        assert (images[a], images[b]) == (b, a)
        images[a], images[b] = a, b
        return GroupActionTable(action.order, tuple(images))

    monkeypatch.setattr(models, "sheet_shift_action", broken)
    graph = ex2_multiplicity_one
    with pytest.raises(ValueError, match="not multiplicative"):
        truncation_model(cover(GradedGraph(graph, zero_grading(graph))))


@pytest.mark.parametrize("seed", [1, 3])
def test_a_negated_socle_action_is_rejected(seed, monkeypatch):
    """With the socle element of cover edge 10+_0 negated in the covering's
    table, the sheet shift is no automorphism: only the products that land
    in that socle or in its shift image break, and a check of sampled pairs
    passed it on these covers (dimensions 544 and 464)."""
    from brauergraph import models

    true_table = models.bga_table_with_keys

    def negated(graph):
        table, keys, index_of = true_table(graph)
        return with_negated_basis(table, {index_of["z", "10+_0"]}), keys, index_of

    graph = gen_random(seed, n_half=16, allow_skew=True)
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    bd, keys, index_of = true_table(covered.total)
    shift = sheet_shift_action(covered, keys, index_of)
    assert action_violations(bd, shift) == []
    problems = action_violations(negated(covered.total)[0], shift)
    assert len(problems) == 1 and "not multiplicative" in problems[0]
    monkeypatch.setattr(models, "bga_table_with_keys", negated)
    with pytest.raises(ValueError, match="not multiplicative"):
        truncation_model(covered)


def test_generators_that_do_not_span_are_reported(ex2_graded):
    covered = cover(ex2_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    assert action_violations(bd, action) == []
    arrows = bd.generators
    assert arrows and all(keys[a][0] == "w" and keys[a][2] == 1 for a in arrows)
    # No generator list: every basis element but the idempotents generates.
    bd.generators = ()
    assert action_violations(bd, action) == []
    # An arrow is no product of other basis elements, so without it the rest
    # do not span.
    bd.generators = arrows[1:]
    assert action_violations(bd, action) == ["generators do not span"]
    chosen = chosen_triples(covered, bd)
    with pytest.raises(ValueError, match="generators do not span"):
        orbit_truncation(bd, action, chosen)


@pytest.mark.parametrize(
    "breakage, why",
    [
        ("two arrows to one key", "map images do not permute the basis"),
        ("an idempotent to an arrow", "map sends idempotent {} to no idempotent"),
    ],
)
def test_a_map_that_is_no_bijection_of_bases_is_refused(ex2_graded, breakage, why):
    """Before any product, the proof refuses a map that does not permute
    the basis and the idempotents among themselves."""
    covered = cover(ex2_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    images = list(action.images)
    assert monomial_isomorphism_violations(bd, bd, images) is None
    a, b = bd.generators[:2]
    label, e = bd.idempotents[0]
    if breakage == "two arrows to one key":
        images[b] = images[a]
    else:
        images[e], images[a] = images[a], images[e]
    assert monomial_isomorphism_violations(bd, bd, images).startswith(why.format(label))


def test_orbit_truncation_checks_the_sweep_precondition(ex2_graded):
    """A half (e +- e (x) g) / 2 is a g-stable idempotent only when g fixes
    e and g^2 = 1; the build refuses it otherwise, before any product."""
    covered = cover(ex2_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    why = "halved idempotent 'h' needs g to fix it and have order 2"
    # e (x) 1 + e (x) g is moved by g on the left when g e != e
    e = next(i for _, i in bd.idempotents if action.images[i] != i)
    with pytest.raises(ValueError, match=re.escape(why)):
        orbit_truncation(bd, action, [("h", e, 0)])
    # the sheet shift declared with order 4 passes the action proof, but
    # then (e (x) g)^2 = e (x) g^2 is not e (x) 1
    fixed = next(i for _, i in bd.idempotents if action.images[i] == i)
    order_four = GroupActionTable(4, action.images)
    assert action_violations(bd, order_four) == []
    with pytest.raises(ValueError, match=re.escape(why)):
        orbit_truncation(bd, order_four, [("h", fixed, 1)])
    orbit_truncation(bd, action, [("h", fixed, 1)])


def test_orbit_truncation_checks_the_chosen_idempotents(ex2_graded):
    """Each chosen e is an idempotent of A, chosen once or as its two
    different halves."""
    covered = cover(ex2_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    chosen = chosen_triples(covered, bd)
    arrow = bd.generators[0]
    with pytest.raises(ValueError, match="chosen idempotent 'a' is no idempotent"):
        orbit_truncation(bd, action, chosen + [("a", arrow, None)])
    # a skew leg's idempotent e (x) 1 = f_0 + f_1 overlaps both halves, and
    # each half overlaps e (x) 1 and itself
    _, e, _ = next(triple for triple in chosen if triple[2] is not None)
    for first, second in [(0, None), (None, 1), (None, None), (1, 1)]:
        with pytest.raises(ValueError, match="'x' overlaps an earlier one"):
            orbit_truncation(bd, action, [("e", e, first), ("x", e, second)])
    orbit_truncation(bd, action, [("e", e, 1), ("x", e, 0)])


@pytest.mark.parametrize("case", [*CASES, "cut"])
def test_the_chosen_elements_are_orthogonal_idempotents_in_sheet_0_or_g_stable(
    case, request
):
    """The facts that ``orbit_truncation`` proves from its entry checks,
    checked with products in the skew group table, on every cover and on
    the cut table: the chosen elements are idempotent and pairwise
    orthogonal, and each lies in sheet 0 or is multiplied by 1 (x) g on
    either side to the same +-itself."""
    if case == "cut":
        graph = request.getfixturevalue("ex2_multiplicity_one")
        covered = cover(GradedGraph(graph, zero_grading(graph)))
        table, action, _ = cut_cover_table(covered, CUT_DELTA)
        skew = skew_group_table(table, action)
        chosen = chosen_elements(table.dim, chosen_triples(covered, table))
    else:
        covered, table, _, _, generic = routes(case)
        skew, chosen = generic.ambient, generic.chosen
    g = {table.dim + e: ONE for _, e in table.idempotents}
    halves = 0
    for p, (label, x) in enumerate(chosen):
        assert skew.mul(x, x) == x, label
        for q, (_, y) in enumerate(chosen):
            assert p == q or skew.mul(x, y) == {}, (label, q)
        if all(key < table.dim for key in x):
            continue
        halves += 1
        minus = {key: -c for key, c in x.items()}
        assert skew.mul(x, g) in (x, minus) and skew.mul(g, x) == skew.mul(x, g), label
    assert halves % 2 == 0 and (halves > 0) == covered.base.graph.is_skew


def test_orbit_truncation_checks_the_unit_law(ex2_graded):
    """The compressions read e b = b off the corners.  A table where one
    idempotent kills an arrow in its own corner passes the action proof,
    which never multiplies by an idempotent on the left, and is refused."""
    covered = cover(ex2_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    arrow = bd.generators[0]
    e = bd.idempotents[bd.tgt[arrow]][1]

    def product(i, j):
        return {} if (i, j) == (e, arrow) else bd._product_fn(i, j)

    broken = AlgebraTable(bd.labels, bd.src, bd.tgt, bd.idempotents, product)
    broken.generators = bd.generators
    assert action_violations(broken, action) == []
    chosen = chosen_triples(covered, bd)
    with pytest.raises(ValueError, match=re.escape(f"unit law fails on {bd.labels[arrow]}")):
        orbit_truncation(broken, action, chosen)


def least_unmoved_failure(act, order):
    """The least b with g^order . b != b, g applied ``order`` times (no
    reduction of the power), or None."""
    for b in range(len(act.images)):
        image = b
        for _ in range(order):
            image = act.images[image]
        if image != b:
            return b
    return None


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_the_action_order_is_checked(order):
    """The skew-3.bg sheet shift is an involution: declared with order 1 or
    3 it is refused, with the least basis element g^order moves, by the
    proof and by both builders that run it; orders 2 and 4 pass."""
    parsed = parse((GOLDEN / "skew-3.bg").read_text(encoding="utf-8"))
    graph = parsed.graph
    covered = cover(GradedGraph(graph, parsed.grading or zero_grading(graph)))
    bd, keys, index_of = bga_table_with_keys(covered.total)
    shift = sheet_shift_action(covered, keys, index_of)
    assert shift.order == 2
    act = GroupActionTable(order, shift.images)
    failing = least_unmoved_failure(act, order)
    assert (failing is None) == (order % 2 == 0)
    chosen = chosen_triples(covered, bd)
    if failing is None:
        assert action_violations(bd, act) == []
    else:
        why = f"action order is not {order} at {bd.labels[failing]}"
        assert action_violations(bd, act) == [why]
        with pytest.raises(ValueError, match=re.escape(why)):
            skew_group_table(bd, act)
        with pytest.raises(ValueError, match=re.escape(why)):
            orbit_truncation(bd, act, chosen)


def truncation_with_a_fault(graded, swap, monkeypatch):
    """``orbit_truncation`` of the sheet shift, with the images of the two
    basis keys in ``swap`` swapped once the action proof has passed."""
    covered = cover(graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    shift = sheet_shift_action(covered, keys, index_of)
    images = list(shift.images)
    true_violations = algebra.action_violations

    def then_seed_the_fault(table, act):
        problems = true_violations(table, act)
        assert problems == []
        a, b = (index_of[key] for key in swap)
        images[a], images[b] = images[b], images[a]
        return problems

    monkeypatch.setattr(algebra, "action_violations", then_seed_the_fault)
    chosen = chosen_triples(covered, bd)
    return bd, orbit_truncation(bd, GroupActionTable(shift.order, images), chosen)


def closure_failures(bd, orbit):
    """The messages of ``compress`` on every basis key of A#G and of every
    product of the orbit table, by where they were raised."""
    failures = set()
    for key in range(2 * bd.dim):
        try:
            orbit.compress({key: ONE})
        except ValueError as error:
            failures.add(("compress", str(error)))
    table = orbit.table
    for i in range(table.dim):
        for j in range(table.dim):
            try:
                table.pairwise(i, j)
            except ValueError as error:
                failures.add(("product", str(error)))
    return failures


def test_a_fault_after_the_proof_makes_orbit_elements_overlap(ex2_graded, monkeypatch):
    """Swapping the images of w[2_0:3] and z[2_0] after the proof makes the
    sweep meet a compression that shares keys with an admitted basis
    element without being a multiple of it."""
    fault = (("w", "2_0", 3), ("z", "2_0"))
    why = "orbit elements of corner (1, 1) overlap"
    with pytest.raises(ValueError, match=re.escape(why)):
        truncation_with_a_fault(ex2_graded, fault, monkeypatch)


@pytest.mark.parametrize(
    "key, failures",
    [
        ((("w", "1-_0", 1), ("w", "1-_0", 4)), {"compress", "product"}),
        ((("e", "1+_0"), ("e", "1+_1")), {"product"}),
        ((("e", "1+_1"), ("e", "4+_1")), set()),
    ],
)
def test_a_fault_after_the_proof_fails_the_closure_checks(
    ex2_graded, monkeypatch, key, failures
):
    """With the images of the two basis keys in ``key`` swapped after the
    proof, the orbit table is still built, but a compression or a product
    that leaves the span of the orbit basis is refused.  The images of
    e[1+_1] and e[4+_1] enter no nonzero product between the chosen
    idempotents, so that fault leaves the table and every compression as
    they are, and nothing is refused."""
    bd, orbit = truncation_with_a_fault(ex2_graded, key, monkeypatch)
    why = {
        "compress": "element does not lie in the truncation",
        "product": "truncation is not multiplicatively closed",
    }
    assert closure_failures(bd, orbit) == {(where, why[where]) for where in failures}


def test_the_sweep_makes_no_products_in_the_cover_algebra(monkeypatch):
    """Nothing multiplies in A through its memo: the action proof and the
    unit law bypass it, the chosen idempotents are checked without products
    and the compressions take none.  The mul-based sweep left 978 memo
    entries here."""
    from brauergraph import models

    tables = []

    def keep(graph):
        out = bga_table_with_keys(graph)
        tables.append(out[0])
        return out

    monkeypatch.setattr(models, "bga_table_with_keys", keep)
    graph = gen_random(1, n_half=24, allow_skew=True, max_multiplicity=3)
    assert graph.is_skew
    model = truncation_model(cover(GradedGraph(graph, zero_grading(graph))))
    (bd,) = tables
    assert model.table.dim and bd._memo == {}


def test_cut_model_table_is_isomorphic_to_the_generic_truncation(ex2_multiplicity_one):
    graph = ex2_multiplicity_one
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    table, action, _ = cut_cover_table(covered, CUT_DELTA)
    chosen = chosen_triples(covered, table)
    orbit = orbit_truncation(table, action, chosen)
    generic = truncate(skew_group_table(table, action), chosen_elements(table.dim, chosen))
    change_of_basis(orbit, generic)
    cut = cut_model_table(graph, CUT_DELTA)
    assert cut.dim == orbit.table.dim == 18
    assert cut.cartan() == orbit.table.cartan()

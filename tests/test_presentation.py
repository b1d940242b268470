from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from brauergraph import presentation as presentation_module
from brauergraph.core import (
    BrauerGraph,
    GradedGraph,
    gen_random,
    induces_arrow,
    random_valid_grading,
    zero_grading,
)
from brauergraph.covering import cover
from brauergraph.graphfile import parse
from brauergraph.linalg import vec_add
from brauergraph.permutations import Permutation
from brauergraph.presentation import (
    MAX_RELATION_PAIRS,
    MAX_WALK_PATHS,
    Arrow,
    PowerFamily,
    Relation,
    Walk,
    admissible_cut,
    expand_relation,
    gentle_violations,
    n_cross,
    presentation,
    quiver,
    relation_violations,
    relations,
    render_presentation,
    render_relation,
    render_relations,
    special_cycles,
    to_dot,
    truncation_presentation,
    vertex_indices,
)

from conftest import (
    assert_families_render_pair_by_pair,
    build_graph,
    skew_leg_loop,
)

GOLDEN = Path(__file__).parent / "golden"


def rendered_relations(graph):
    return {render_relation(rel) for rel in relations(graph)}


def test_quiver_ex1(ex1):
    q = quiver(ex1)
    assert len(q.vertices) == 4
    assert len(q.arrows) == 7
    loop = q.arrow("1+", None, None)
    assert loop.source == loop.target == ("1", None)
    with pytest.raises(KeyError):
        q.arrow("4+", None, None)


def test_quiver_arrow_reads_the_index(ex1, ex2):
    graphs = [ex1, ex2] + [
        gen_random(seed, n_half=8, allow_skew=seed % 2 == 0) for seed in range(1, 9)
    ]
    for graph in graphs:
        q = quiver(graph)
        for a in q.arrows:
            assert q.arrow(a.h, a.source[1], a.target[1]) is a


def test_the_quiver_is_built_once_per_graph_object(monkeypatch):
    """The quiver is cached on the graph object, not on its value: two equal
    graphs each build their own, and one graph builds it once however often
    its relations are asked for."""
    built = []
    build = presentation_module._build_quiver
    monkeypatch.setattr(
        presentation_module, "_build_quiver", lambda g: built.append(g) or build(g)
    )
    first, second = (gen_random(4, n_half=8, allow_skew=True) for _ in range(2))
    assert first == second and first is not second and first.is_skew
    relations(first)
    relations(first)
    assert quiver(first) is first.quiver
    assert [g is first for g in built] == [True]
    assert quiver(second) == quiver(first) and quiver(second) is not quiver(first)
    assert [g is first for g in built] == [True, False]


def test_arrows_compare_sort_and_hash_by_their_fields(ex2):
    """Equality, order, hash and repr of an arrow are those of its three
    fields."""
    arrows = list(quiver(ex2).arrows)
    fields = [(a.h, a.source, a.target) for a in arrows]
    assert fields == sorted(fields)
    shuffled = list(arrows)
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == arrows
    copies = [Arrow(*f) for f in fields]
    assert copies == arrows
    hashes = list(map(hash, fields))
    assert [hash(a) for a in copies] == [hash(a) for a in arrows] == hashes
    assert repr(copies[0]) == "Arrow(h=%r, source=%r, target=%r)" % fields[0]
    assert copies[0] != Arrow("x", *fields[0][1:])
    rels = relations(ex2)
    rebuilt = [
        Relation(tuple((c, tuple(Arrow(a.h, a.source, a.target) for a in path))
                       for c, path in rel.terms))
        for rel in rels
    ]
    assert rebuilt == list(rels)
    assert set(rebuilt) == set(rels)


def test_quiver_ex2(ex2):
    q = quiver(ex2)
    names = {f"{v[0]}" if v[1] is None else f"{v[0]}_{v[1]}" for v in q.vertices}
    assert names == {"1", "4", "5", "2_0", "2_1", "3_0", "3_1"}
    threes = [a for a in q.arrows if a.h == "3"]
    assert len(threes) == 4
    assert not any(a.h == "5-" for a in q.arrows)


def test_quiver_loop_graph(loop_graph):
    q = quiver(loop_graph)
    assert len(q.vertices) == 1
    assert len(q.arrows) == 1
    assert q.arrows[0].h == "a"


def test_special_cycle_ex1(ex1):
    (cycle,) = special_cycles(ex1, "1-")
    assert render_relation(Relation(((1, cycle),))) == "a[2-] a[3-] a[4-] a[1-]"


def test_special_cycles_ex2(ex2):
    cycles = special_cycles(ex2, "1-")
    assert len(cycles) == 4
    assert n_cross(ex2, "1-") == 2
    with pytest.raises(ValueError):
        special_cycles(ex2, "2")  # index required at a skew leg
    assert len(special_cycles(ex2, "2", 0)) == 2


def test_special_cycles_require_arrow(ex1):
    with pytest.raises(ValueError):
        special_cycles(ex1, "4+")


def test_special_cycle_count_fuzz():
    for seed in range(100):
        g = gen_random(seed, n_half=8, allow_skew=True, max_multiplicity=2)
        for h in g.half_edges:
            if not induces_arrow(g, h):
                continue
            index = 0 if h in g.cross_half_edges else None
            expected = 2 ** sum(
                1
                for x in g.sigma_orbit_of(h)
                if x != h and x in g.cross_half_edges
            )
            assert len(special_cycles(g, h, index)) == expected


def test_relations_ex1(ex1):
    rendered = rendered_relations(ex1)
    assert "a[1+] a[1+] - a[2-] a[3-] a[4-] a[1-]" in rendered
    assert "a[1+] a[1+] a[1+]" in rendered
    assert "a[1+] a[2-]" in rendered
    assert "a[1-] a[1+]" in rendered
    assert len(relations(ex1)) == 16


def test_relations_ex2_coefficients(ex2):
    found = [
        rel
        for rel in relations(ex2)
        if len(rel.terms) == 2 and {abs(c) for c, _ in rel.terms} == {1, Fraction(16)}
    ]
    # one instance per route pair: 4 routes on the thick side, 1 opposite
    assert len(found) == 4
    for rel in found:
        thick = next(path for c, path in rel.terms if abs(c) == 16)
        thin = next(path for c, path in rel.terms if abs(c) == 1)
        assert len(thick) == 6  # the squared three-arrow cycle, same route twice
        assert thick[:3] == thick[3:]
        assert [a.h for a in thin] == ["1+", "4+", "5+"]


def test_relations_ex2_route_difference(ex2):
    rendered = rendered_relations(ex2)
    assert "0a[3]0 0a[1-] - 0a[3]1 1a[1-]" in rendered
    assert "1a[3]0 0a[1-] - 1a[3]1 1a[1-]" in rendered


def test_relations_empty_graph():
    empty = BrauerGraph(frozenset(), Permutation({}), Permutation({}), {})
    assert relations(empty) == []


def test_relation_well_formedness_fuzz():
    for seed in range(100):
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 0), max_multiplicity=2)
        assert relation_violations(presentation(g)) == [], seed


def test_arrow_count_formula_fuzz():
    for seed in range(100):
        g = gen_random(seed, n_half=8, allow_skew=False, max_multiplicity=3)
        q = quiver(g)
        expected = sum(1 for h in g.half_edges if g.orientation(h) != h) + sum(
            1
            for h in g.half_edges
            if g.orientation(h) == h and g.multiplicity[h] > 1
        )
        assert len(q.arrows) == expected


def test_truncation_presentation_ordinary(ex1, ex1_graded):
    covered = cover(ex1_graded)
    primed = truncation_presentation(covered)
    assert primed.symbol == "b"
    base = presentation(ex1)
    assert primed.quiver == base.quiver
    assert primed.relations == base.relations
    assert (
        render_relation(primed.relations[0], "b")
        == "b[1+] b[1+] - b[2-] b[3-] b[4-] b[1-]"
    )


def test_truncation_presentation_trivial_cover():
    graph = build_graph(
        ["1+", "1-", "2+", "2-"],
        [("1+", "1-"), ("2+", "2-")],
        [("1-", "2+"), ("1+", "2-")],
    )
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    primed = truncation_presentation(covered)
    assert primed.relations == tuple(relations(graph))


def test_truncation_presentation_skew(ex2, ex2_graded):
    covered = cover(ex2_graded)
    primed = truncation_presentation(covered)
    # Summed walks are read as the paths they sum.
    expanded = [expand_relation(rel, primed.graph) for rel in primed.relations]
    # (IV') difference relations appear exactly for h with sigma h a skew leg
    diffs = [terms for terms in expanded if len(terms) == 2
             and terms[0][0] == 1 and terms[1][0] == -1
             and len(terms[0][1]) == 2]
    heads = {terms[0][1][0].h for terms in diffs}
    assert heads == {"1-", "3"}
    # (V') monomial quadratics sit where sigma h is ordinary
    monos = [terms for terms in expanded if len(terms) == 1
             and len(terms[0][1]) == 2]
    assert {terms[0][1][0].h for terms in monos} == {"1+", "2", "4-", "5+"}


def assert_truncation_relations_vanish(graded):
    from brauergraph.models import truncation_model

    covered = cover(graded)
    model = truncation_model(covered)
    primed = truncation_presentation(covered)
    for rel in primed.relations:
        assert model.evaluate_relation(rel) == {}, render_relation(
            rel, primed.symbol, primed.graph
        )


def test_truncation_relations_vanish_in_model(ex2, ex2_graded):
    assert_truncation_relations_vanish(ex2_graded)


@pytest.mark.parametrize("seed", [1, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("kind", ["zero", "random"])
def test_truncation_relations_vanish_in_model_fuzz(seed, kind):
    graph = gen_random(seed, n_half=8, allow_skew=True)
    grading = zero_grading(graph)
    if kind == "random":
        grading = random_valid_grading(graph, random.Random(seed), grading)
    assert_truncation_relations_vanish(GradedGraph(graph, grading))


@pytest.mark.parametrize("seed", [None, 1, 3])
def test_walk_terms_sum_their_paths(seed, ex2):
    from brauergraph.models import truncation_model

    graph = ex2 if seed is None else gen_random(seed, n_half=8, allow_skew=True)
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    model = truncation_model(covered)
    primed = truncation_presentation(covered)
    walks = [body for rel in primed.relations for _, body in rel.terms
             if isinstance(body, Walk)]
    assert walks
    # Walks of every shorter length too: most of them do not vanish, and
    # their two ends are different vertices.
    sigma = graph.orientation
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        for length in range(1, len(graph.sigma_orbit_of(h)) + 1):
            for i in vertex_indices(graph, h):
                for j in vertex_indices(graph, sigma.power(length, h)):
                    walks.append(Walk(h, i, length, j))
    nonzero = 0
    for walk in walks:
        total = {}
        for _, path in expand_relation(Relation(((Fraction(1), walk),)), graph):
            acc = model.arrow_element[path[0]]
            for a in path[1:]:
                acc = model.table.mul(model.arrow_element[a], acc)
            total = vec_add(total, acc)
        assert model.evaluate_walk(walk) == total, walk
        nonzero += bool(total)
    assert nonzero > len(walks) // 2


def skew_leg_star(legs, multiplicity=2):
    """One vertex carrying only skew legs."""
    names = [str(k) for k in range(1, legs + 1)]
    return build_graph(names, [], [tuple(names)], {h: multiplicity for h in names})


def test_star_truncation_terms_stay_bounded():
    graph = skew_leg_star(6)
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    primed = truncation_presentation(covered)
    terms = sum(len(rel.terms) for rel in primed.relations)
    # 122,928 terms when every summed walk was expanded to its paths
    assert len(primed.relations) == 60
    assert terms <= 4 * len(primed.relations)
    assert_truncation_relations_vanish(GradedGraph(graph, zero_grading(graph)))


def test_walk_expansion_over_the_cap_raises():
    graph = skew_leg_star(7)
    primed = truncation_presentation(cover(GradedGraph(graph, zero_grading(graph))))
    walk = Walk("1", 0, 14, 1)
    assert primed.relations[0].terms == ((1, walk),)
    count = 2 ** 13
    assert count > MAX_WALK_PATHS
    message = f"{walk} sums {count} paths, over the expansion cap of {MAX_WALK_PATHS}"
    with pytest.raises(ValueError) as info:
        expand_relation(primed.relations[0], graph)
    assert str(info.value) == message
    with pytest.raises(ValueError):
        render_presentation(primed)
    with pytest.raises(ValueError):
        relation_violations(primed)


# Relation counts of ``skew_leg_loop(k)`` as the pairwise listing found them.
LOOP_RELATIONS = {4: 433, 5: 1429, 6: 5017, 7: 18461}


@pytest.mark.parametrize("legs", sorted(LOOP_RELATIONS))
def test_presentation_caps_a_rule_one_family(legs):
    """k legs give the loop edge 2^(2k) pairs: six reach the cap, seven pass it."""
    graph = skew_leg_loop(legs)
    assert len(relations(graph)) == LOOP_RELATIONS[legs]
    pairs = 2 ** (2 * legs)
    if pairs <= MAX_RELATION_PAIRS:
        assert len(presentation(graph).relations) == LOOP_RELATIONS[legs]
        return
    with pytest.raises(ValueError) as info:
        presentation(graph)
    assert str(info.value) == (
        f"rule (I) at edge a has {pairs} relations, over the expansion cap of "
        f"{MAX_RELATION_PAIRS}"
    )


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.bg")))
def test_families_render_pair_by_pair_on_the_golden_graphs(name):
    parsed = parse((GOLDEN / f"{name}.bg").read_text(encoding="utf-8"))
    assert_families_render_pair_by_pair(parsed.graph)


@pytest.mark.parametrize("legs", [4, 5, 6])
def test_families_render_pair_by_pair_on_leg_loops(legs):
    assert 2 ** (2 * legs) <= MAX_RELATION_PAIRS
    assert_families_render_pair_by_pair(skew_leg_loop(legs))


def test_families_render_each_route_power_once(monkeypatch):
    """Six legs give the loop edge 2^6 routes at each end and 2^12 pairs;
    rendering reads each route power once and lists no pair."""
    graph = skew_leg_loop(6)
    powers = {route for h in ("a", "b") for route in special_cycles(graph, h)}
    assert len(powers) == 2 ** 6 + 2 ** 6
    p = presentation(graph)
    rendered = []
    chunk = presentation_module._chunk

    def counting(coeff, path, symbol, names):
        if path in powers:
            rendered.append(path)
        return chunk(coeff, path, symbol, names)

    def unreachable(family):
        raise AssertionError("listed the pairs of a family")

    with monkeypatch.context() as patch:
        patch.setattr(presentation_module, "_chunk", counting)
        patch.setattr(PowerFamily, "pairs", unreachable)
        lines = render_relations(p)
        assert len(rendered) == len(powers)
        assert set(rendered) == powers
        text = render_presentation(p)
        dot = to_dot(p)
    assert len(lines) == LOOP_RELATIONS[6]
    assert [
        line[len("relation "):]
        for line in text.splitlines()
        if line.startswith("relation ")
    ] == lines
    assert [
        line[len("   * "):] for line in dot.splitlines() if line.startswith("   * ")
    ] == lines
    assert len(p.relations) == LOOP_RELATIONS[6]


def test_admissible_cut_requires_transversal(ex2_multiplicity_one):
    with pytest.raises(ValueError):
        admissible_cut(ex2_multiplicity_one, frozenset(["1-"]))


def test_admissible_cut_requires_multiplicity_one(ex2):
    with pytest.raises(ValueError):
        admissible_cut(ex2, frozenset(["1-", "1+", "4-", "5-"]))


def test_admissible_cut_presentation(ex2_multiplicity_one):
    delta = frozenset(["1-", "1+", "4-", "5-"])
    p = admissible_cut(ex2_multiplicity_one, delta)
    assert all(a.h not in delta for a in p.quiver.arrows)
    # all cycle relations die with the cut; only short monomials and route
    # differences survive
    assert all(len(path) == 2 for _, path in
               (term for rel in p.relations for term in rel.terms))


def test_covering_cut_is_gentle(ex2_multiplicity_one):
    covered = cover(GradedGraph(ex2_multiplicity_one, zero_grading(ex2_multiplicity_one)))
    delta_d = frozenset(
        f"{h}_{i}" for h in ["1-", "1+", "4-", "5-"] for i in (0, 1)
    )
    cut = admissible_cut(covered.total, delta_d)
    assert gentle_violations(cut) == []


def test_cut_ex1_multiplicity_one(ex1):
    flat = BrauerGraph(
        ex1.half_edges, ex1.pairing, ex1.orientation, {h: 1 for h in ex1.half_edges}
    )
    delta = frozenset(["1-", "2+", "1+", "4+"])
    p = admissible_cut(flat, delta)
    # the cut drops the loop (1+ has no arrow at multiplicity one) and per
    # vertex at most two arrows remain in and out
    assert gentle_violations(p) == []


def test_dot_output(ex1):
    dot = to_dot(presentation(ex1))
    assert dot.startswith("digraph")
    assert '"1" -> "4"' in dot
    assert "relations:" in dot

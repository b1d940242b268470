from __future__ import annotations

import dataclasses
import random
import time
from pathlib import Path

import pytest

from brauergraph import models
from brauergraph.cli import main
from brauergraph.core import (
    BrauerGraph,
    GradedGraph,
    Grading,
    gen_random,
    random_valid_grading,
    zero_grading,
)
from brauergraph.covering import cover, default_grading
from brauergraph.algebra import AlgebraTable, bga_dimension_formula, bga_table
from brauergraph.graphfile import emit, parse
from brauergraph.linalg import vec_add, vec_scale
from brauergraph.models import (
    graph_edge_cartan,
    model_for,
    ordinary_model,
    presentation_problems,
    presentations_match,
    skew_model,
    truncation_model,
)
from brauergraph.moves import move_set
from brauergraph.permutations import Permutation
from brauergraph.presentation import (
    MAX_RELATION_PAIRS,
    MAX_WALK_PATHS,
    _crossing_relations,
    _first_routes,
    _other_relations,
    _overrun_relations,
    _power_families,
    _shifted_relations,
    _special_cycle_table,
    _two_route_relations,
    induces_arrow,
    quiver,
    relations,
    render_quiver,
    render_relation,
    special_cycles,
    vertex_indices,
    walk_path_count,
)

from conftest import pairwise_match_problems, skew_leg_loop
from oracles import check_table, edge_cartan

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_presentations_match_ex1(ex1, ex1_graded):
    report = presentations_match(ex1, cover(ex1_graded))
    assert report.ok, report.problems
    assert report.model_dim == report.expected_dim == 27


def test_presentations_match_ex2(ex2, ex2_graded, monkeypatch):
    evaluated = []
    evaluate_relation = models.GraphAlgebraModel.evaluate_relation

    def counting(model, rel):
        evaluated.append(rel)
        return evaluate_relation(model, rel)

    monkeypatch.setattr(models.GraphAlgebraModel, "evaluate_relation", counting)
    report = presentations_match(ex2, cover(ex2_graded))
    assert report.ok, report.problems
    assert report.model_dim == 63
    # Rule (I) holds per route, with c_h = 1 and c_o = 16 at edge 1, so no
    # pair of it is evaluated.  Rule (V) holds, so rules (II) and (IV) take
    # one route per first arrow and per skew-leg copy: 26 of the 34
    # relations of rules (II)-(V).
    listed = _other_relations(ex2, _special_cycle_table(ex2))
    assert evaluated == [
        *_two_route_relations(ex2),
        *_overrun_relations(ex2, lambda h, i=None: _first_routes(ex2, h, i)),
        *_shifted_relations(ex2, lambda h, i=None: _first_routes(ex2, h, i)[:1]),
        *_crossing_relations(ex2),
    ]
    assert set(evaluated) <= set(listed)
    assert (len(evaluated), len(listed)) == (26, 34)


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
    corrupted = covered._replace(total=corrupted_total)
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


def ordinary_golden_graphs():
    paths = sorted(GOLDEN.glob("*.bg"))
    graphs = [parse(path.read_text(encoding="utf-8")).graph for path in paths]
    return [g for g in graphs if not g.is_skew]


def test_ordinary_models_have_no_presentation_problems():
    """The check takes any model, not only a covering's: the Brauer graph
    algebra's own table satisfies the direct presentation, on the ordinary
    golden graphs and 200 ordinary ``gen_random`` draws."""
    graphs = ordinary_golden_graphs() + [gen_random(seed) for seed in range(200)]
    assert len(graphs) == 203
    for graph in graphs:
        assert presentation_problems(ordinary_model(graph)) == [], emit(graph)


def test_an_ordinary_model_with_a_doubled_arrow_matches_the_pairwise_oracle():
    """Doubling each arrow of each ordinary golden graph breaks the model,
    and the check reports what the pairwise check reports."""
    for graph in ordinary_golden_graphs():
        model = ordinary_model(graph)
        for arrow in sorted(model.arrow_element):
            arrows = dict(model.arrow_element)
            arrows[arrow] = vec_scale(arrows[arrow], 2)
            perturbed = dataclasses.replace(model, arrow_element=arrows)
            problems = presentation_problems(perturbed)
            assert problems, (emit(graph), arrow)
            assert problems == pairwise_match_problems(dataclasses.replace(perturbed))


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


def test_graph_edge_cartan_counts_the_ordinary_table():
    """The counted Cartan matrix is the BGA table's, on ordinary graphs and
    on their coverings under a random valid grading."""
    seen = {"loop": False, "truncated": False, "cover": 0}
    for seed in range(1, 61):
        rng = random.Random(seed)
        graph = gen_random(seed, n_half=rng.choice([2, 4, 6, 8, 10]))
        grading = random_valid_grading(graph, rng, default_grading(graph))
        total = cover(GradedGraph(graph, grading)).total
        for g in (graph, total):
            table = bga_table(g)
            edges, counted = graph_edge_cartan(g, default_grading(g))
            assert edges == [name for name, _ in table.idempotents]
            assert counted == table.cartan(), seed
        seen["cover"] += grading.modulus > 1
        seen["loop"] |= any(
            len(e) == 2 and e[1] in graph.sigma_orbit_of(e[0]) for e in graph.edges
        )
        seen["truncated"] |= any(
            len(orbit) == 1 and graph.multiplicity[orbit[0]] == 1
            for orbit in graph.sigma_orbits
        )
    assert seen["loop"] and seen["truncated"] and seen["cover"] >= 20


def _moved(graph, grading, edges):
    subset = frozenset(h for name in edges for h in graph.edges_by_label[name])
    if grading is None:
        grading = default_grading(graph, subset)
    return move_set(GradedGraph(graph, grading), subset)


@pytest.mark.parametrize(
    "name, edges",
    [
        ("ex1", "12"),
        ("ex2", "14"),
        ("ordinary-1", "12"),
        ("ordinary-2", "12"),
        ("skew-1", "13"),
        ("skew-3", "13"),
    ],
)
def test_graph_edge_cartan_is_the_moved_model_cartan(name, edges):
    """On the moved graph of each golden ``mutate`` input, under the grading
    ``mutate --verify`` moves it with, the count is the model's matrix."""
    parsed = parse((GOLDEN / f"{name}.bg").read_text(encoding="utf-8"))
    moved = _moved(parsed.graph, parsed.grading, edges)
    assert graph_edge_cartan(moved.graph, moved.grading) == edge_cartan(
        model_for(moved.graph, moved.grading)
    )


def test_graph_edge_cartan_rejects_an_invalid_grading_as_model_for(ex1, ex2):
    for graph in (ex1, ex2):
        bad = Grading(3, {h: 0 for h in graph.half_edges})
        with pytest.raises(ValueError) as counted:
            graph_edge_cartan(graph, bad)
        with pytest.raises(ValueError) as built:
            model_for(graph, bad)
        assert str(counted.value) == str(built.value)
        assert str(counted.value).startswith("invalid grading: modulus 3")


def test_truncation_model_of_ordinary_cover_matches_bga(ex1, ex1_graded):
    model = truncation_model(cover(ex1_graded))
    direct = bga_table(ex1)
    assert model.table.dim == direct.dim
    assert model.table.cartan() == direct.cartan()


def all_special_cycles(graph):
    return [
        route
        for h in sorted(graph.half_edges)
        if induces_arrow(graph, h)
        for i in vertex_indices(graph, h)
        for route in special_cycles(graph, h, i)
    ]


def uncached_path(model, path):
    """The path's product, multiplied from its first arrow every time."""
    acc = model.arrow_element[path[0]]
    for a in path[1:]:
        acc = model.table.mul(model.arrow_element[a], acc)
    return acc


def uncached_relation(model, rel):
    out = {}
    for coeff, path in rel.terms:
        out = vec_add(out, uncached_path(model, path), coeff)
    return out


def skew_graph(seed, n_half):
    graph = gen_random(seed, n_half=n_half, allow_skew=True)
    assert graph.is_skew
    return graph


@pytest.mark.parametrize("source", ["ex2", (1, 8), (3, 8), (3, 16)])
def test_cached_evaluation_matches_uncached(source, ex2):
    graph = ex2 if source == "ex2" else skew_graph(*source)
    model = truncation_model(cover(GradedGraph(graph, zero_grading(graph))))
    for rel in relations(graph):
        for _, path in rel.terms:
            assert model.evaluate_path(path) == uncached_path(model, path)
        assert model.evaluate_relation(rel) == uncached_relation(model, rel)
    for route in all_special_cycles(graph):
        assert model.evaluate_path(route) == uncached_path(model, route)


def test_a_missing_arrow_is_raised_again_from_the_path_cache(ex2, monkeypatch):
    """A path through a missing arrow raises the same KeyError on every
    call, and is multiplied out once."""
    model = skew_model(ex2)
    first = next(iter(model.arrow_element))
    missing = next(a for a in model.arrow_element if a.source == first.target)
    arrows = dict(model.arrow_element)
    del arrows[missing]
    model = dataclasses.replace(model, arrow_element=arrows)
    path = (first, missing)
    multiplied = []
    product = models.GraphAlgebraModel._product

    def counting(model, steps, turn_length):
        multiplied.append(steps)
        return product(model, steps, turn_length)

    monkeypatch.setattr(models.GraphAlgebraModel, "_product", counting)
    raised = []
    for _ in range(2):
        with pytest.raises(KeyError) as info:
            model.scaled_path(path)
        raised.append(info.value.args)
    assert raised == [(missing,), (missing,)]
    assert multiplied == [path]


def test_a_replaced_model_evaluates_its_paths_anew(ex2):
    """``dataclasses.replace`` gives a model with empty caches, so a changed
    arrow changes the value of a path already evaluated in the old model."""
    model = skew_model(ex2)
    route = all_special_cycles(ex2)[0]
    value = model.evaluate_path(route)
    assert value
    arrows = dict(model.arrow_element)
    arrows[route[0]] = vec_scale(arrows[route[0]], 3)
    changed = dataclasses.replace(model, arrow_element=arrows)
    assert changed.evaluate_path(route) == uncached_path(changed, route) != value
    assert model.evaluate_path(route) == value


def test_a_zero_prefix_is_extended_without_a_product(monkeypatch):
    """A crossing relation's path is zero after one product, and extending
    it by two more arrows, or taking its cube, takes no further product."""
    graph = gen_random(1, n_half=24, allow_skew=True, max_multiplicity=3)
    model = truncation_model(cover(GradedGraph(graph, zero_grading(graph))))
    rels = relations(graph)
    calls = 0
    mul = model.table.mul

    def counting_mul(x, y):
        nonlocal calls
        calls += 1
        return mul(x, y)

    monkeypatch.setattr(model.table, "mul", counting_mul)
    crossing = next(
        path
        for rel in rels
        if len(rel.terms) == 1 and len(path := rel.terms[0][1]) == 2
    )
    assert model.evaluate_path(crossing) == {}
    assert calls == 1
    path = crossing
    for _ in range(2):
        path += (next(a for a in model.arrow_element if a.source == path[-1].target),)
    calls = 0
    assert model.evaluate_path(path) == {}
    assert calls == 1
    # Nor does a power of a zero turn.
    calls = 0
    assert model.evaluate_path(crossing * 3) == {}
    assert calls == 1


def test_route_powers_are_powers_of_one_turn(monkeypatch):
    """The check of skew-3.bg forms each route power from one turn, and
    rule (V) leaves one route per quiver vertex to evaluate: 148 table
    products.  Multiplying every arrow of every route took 223."""
    parsed = parse((GOLDEN / "skew-3.bg").read_text(encoding="utf-8"))
    covered = cover(GradedGraph(parsed.graph, parsed.grading or zero_grading(parsed.graph)))
    calls = 0
    mul = AlgebraTable.mul

    def counting_mul(table, x, y):
        nonlocal calls
        calls += 1
        return mul(table, x, y)

    monkeypatch.setattr(AlgebraTable, "mul", counting_mul)
    assert presentations_match(parsed.graph, covered).ok
    assert calls == 148


def test_perturbed_arrow_fails_presentations_match(ex2, ex2_graded):
    model = truncation_model(cover(ex2_graded))
    for rel in relations(ex2):
        assert model.evaluate_relation(rel) == {}
    # Doubling one arrow into a doubled vertex breaks the two-route relation
    # through it; the fresh model must not read the old model's step cache.
    arrow = next(a for a in model.arrow_element if a.target[1] == 0)
    arrows = dict(model.arrow_element)
    arrows[arrow] = vec_scale(arrows[arrow], 2)
    perturbed = dataclasses.replace(model, arrow_element=arrows)
    problems = presentation_problems(perturbed)
    assert problems
    assert problems == pairwise_match_problems(dataclasses.replace(perturbed))
    labels = perturbed.table.labels
    failing = [
        (rel, value)
        for rel in relations(ex2)
        if (value := uncached_relation(perturbed, rel))
    ]
    assert failing
    for rel, value in failing:
        witness = f"relation does not vanish: {render_relation(rel)} = "
        line = next(p for p in problems if p.startswith(witness))
        terms = line[len(witness):].split(" + ")
        assert terms == [f"{c}*{labels[k]}" for k, c in sorted(value.items())]
    differing = 0
    for h in sorted(ex2.half_edges):
        if not induces_arrow(ex2, h):
            continue
        for i in vertex_indices(ex2, h):
            first, *rest = (
                uncached_path(perturbed, route) for route in special_cycles(ex2, h, i)
            )
            other = next((v for v in rest if v != first), None)
            prefix = f"special cycles at ({h}, {i}) differ in the model: "
            lines = [p for p in problems if p.startswith(prefix)]
            if other is None:
                assert lines == []
                continue
            differing += 1
            assert lines == [
                prefix + perturbed.table.render(first) + " vs "
                + perturbed.table.render(other)
            ]
    assert differing


def match_with_arrows(graph, change):
    """``presentation_problems`` and the pairwise oracle on the zero-graded
    model whose arrow dictionary ``change`` has edited in place."""
    model = truncation_model(cover(GradedGraph(graph, zero_grading(graph))))
    arrows = dict(model.arrow_element)
    change(arrows, quiver(graph))
    perturbed = dataclasses.replace(model, arrow_element=arrows)
    problems = presentation_problems(perturbed)
    # A fresh copy, so the oracle reads none of the check's cached steps.
    oracle = pairwise_match_problems(dataclasses.replace(perturbed))
    return problems, oracle, perturbed


def test_family_broken_on_some_pairs_matches_the_pairwise_oracle(ex2):
    """Edge 1 of ex2 has one route at 1+ and four at 1-, whose orbit carries
    the legs 3 and 2; doubling one copy of the arrow at 3 breaks the pairs
    through it and no other pair of the family.  The copy is on the last
    route, so the check must read past the first one."""

    def double_one_leg_copy(arrows, q):
        arrow = q.arrow("3", 1, 1)
        arrows[arrow] = vec_scale(arrows[arrow], 2)

    problems, oracle, perturbed = match_with_arrows(ex2, double_one_leg_copy)
    family = next(f for f in _power_families(ex2, _special_cycle_table(ex2)) if f.h == "1+")
    assert (len(family.powers_h), len(family.powers_o)) == (1, 4)
    broken = [rel for rel in family.pairs() if uncached_relation(perturbed, rel)]
    assert 0 < len(broken) < 4
    assert problems
    assert problems == oracle
    for rel in broken:
        assert any(
            p.startswith(f"relation does not vanish: {render_relation(rel)} = ")
            for p in problems
        )


def test_missing_arrow_matches_the_pairwise_oracle(ex2):
    def drop_one_leg_copy(arrows, q):
        del arrows[q.arrow("3", 0, 1)]

    problems, oracle, _ = match_with_arrows(ex2, drop_one_leg_copy)
    assert problems
    assert problems == oracle
    assert "quiver arrows do not match the model arrows" in problems
    assert any(p.startswith("relation uses a missing arrow: ") for p in problems)
    assert any(p.endswith("use a missing arrow") for p in problems)


def adding(to, what):
    """An arrow-dictionary edit that adds the element of arrow ``what`` to
    arrow ``to``, each given as (h, source copy, target copy)."""

    def change(arrows, q):
        arrows[q.arrow(*to)] = vec_add(arrows[q.arrow(*to)], arrows[q.arrow(*what)])

    return change


@pytest.mark.parametrize(
    "change, rule_five_holds, listed, count",
    [
        (adding(("1+", None, None), ("1+", None, None)), True, True, 5),
        (adding(("3", 1, 1), ("3", 1, 1)), False, True, 6),
        (adding(("1-", None, 0), ("1-", None, 1)), True, True, 2),
        (adding(("1+", None, None), ("1-", None, 0)), True, False, 2),
    ],
    ids=["1+ doubled", "3 copy doubled", "1- copies added", "1- added to 1+"],
)
def test_a_fault_is_reported_as_the_pairwise_oracle(
    ex2, monkeypatch, change, rule_five_holds, listed, count
):
    """Doubling the arrow at 1+ (edge 1 to 4) keeps every rule-(V) relation
    of ex2 and breaks rule (I): the proof from rule (V) fails at the family.
    Doubling a copy of the arrow at 3 breaks rule (V) itself.  Adding the
    arrow at 1- into copy 1 of edge 3 to the one into copy 0 keeps rule (V)
    and breaks two relations of rule (IV).  In these three the check lists
    every route once, in one special-cycle table.  Adding the arrow at 1-
    into copy 0 of edge 3 to the arrow at 1+ breaks two crossings (rule
    III) and nothing else: the proof goes through, and the check names them
    without listing a route.  Each report is the pairwise check's."""
    tables = []
    special_cycle_table = models._special_cycle_table

    def recording(graph):
        tables.append(graph)
        return special_cycle_table(graph)

    monkeypatch.setattr(models, "_special_cycle_table", recording)
    problems, oracle, perturbed = match_with_arrows(ex2, change)
    broken = [
        rel for rel in _two_route_relations(ex2) if uncached_relation(perturbed, rel)
    ]
    assert bool(broken) != rule_five_holds
    assert tables == ([ex2] if listed else [])
    assert problems
    assert problems == oracle
    assert len(problems) == count


def test_the_proved_check_lists_no_routes(monkeypatch):
    """On the eight-leg loop and on every skew golden graph every rule-(V)
    relation vanishes, so the check proves the relations indexed by routes
    from one route per quiver vertex and builds no special-cycle table."""

    def unreachable(*args):
        raise AssertionError("listed the routes of a special cycle")

    monkeypatch.setattr(models, "_special_cycle_table", unreachable)
    cases = [("loop", skew_leg_loop(8), None)]
    for path in sorted(GOLDEN.glob("*.bg")):
        parsed = parse(path.read_text(encoding="utf-8"))
        if parsed.graph.is_skew:
            cases.append((path.stem, parsed.graph, parsed.grading))
    assert [name for name, _, _ in cases] == ["loop", "ex2-m1", "ex2", "skew-1", "skew-3"]
    for name, graph, grading in cases:
        covered = cover(GradedGraph(graph, grading or zero_grading(graph)))
        report = presentations_match(graph, covered)
        assert report.ok, (name, report.problems[:2])


def test_loop_family_is_checked_once_per_end(monkeypatch, tmp_path, capsys):
    """Eight legs give the loop edge 2^8 routes at each end and 2^16 pairs;
    rule (V) makes the routes at an end one value, so the check evaluates
    one route power per end.  ``relations`` and ``quiver --dot`` refuse the
    2^16 pairs; ``quiver`` alone lists no relation and answers."""
    graph = skew_leg_loop(8, multiplicity=2)
    routes = {h: special_cycles(graph, h) for h in ("a", "b")}
    powers = {route * 2 for h in ("a", "b") for route in routes[h]}
    assert len(powers) == 2 ** 8 + 2 ** 8
    evaluated = []
    scaled_path = models.GraphAlgebraModel.scaled_path

    def counting(model, path):
        if path in powers:
            evaluated.append(path)
        return scaled_path(model, path)

    monkeypatch.setattr(models.GraphAlgebraModel, "scaled_path", counting)
    report = presentations_match(graph, cover(GradedGraph(graph, zero_grading(graph))))
    assert report.ok, report.problems[:2]
    assert evaluated == [routes["a"][0] * 2, routes["b"][0] * 2]

    # Only the commands that list relations refuse past the rule-(I) cap.
    path = tmp_path / "loop.bg"
    path.write_text(emit(graph), encoding="utf-8")
    dot = tmp_path / "loop.dot"
    for command in (["relations"], ["quiver", "--dot", str(dot)]):
        assert main([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: rule (I) at edge a has {2 ** 16} relations, over the "
            f"expansion cap of {MAX_RELATION_PAIRS}\n"
        )
    assert not dot.exists()
    assert main(["quiver", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("\n".join(render_quiver(quiver(graph))) + "\n", "")


def test_a_failing_family_evaluates_each_route_power_once(monkeypatch):
    """Doubling the arrow at leg 1 into copy 0 of leg 2 breaks the loop
    edge's rule-(I) family, so the listed check expands its 2^16 pairs.
    The model multiplies each of its 2^8 + 2^8 route powers out at most
    once; evaluating every pair on its own multiplies out more than two per
    problem, and gives the same problems."""
    graph = skew_leg_loop(8, multiplicity=2)
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    model = truncation_model(covered)
    arrows = dict(model.arrow_element)
    doubled = quiver(graph).arrow("1", 0, 0)
    arrows[doubled] = vec_scale(arrows[doubled], 2)
    perturbed = dataclasses.replace(model, arrow_element=arrows)
    [family] = _power_families(graph, _special_cycle_table(graph))
    powers = set(family.powers_h + family.powers_o)
    assert len(powers) == 2 ** 8 + 2 ** 8
    multiplied = []
    product = models.GraphAlgebraModel._product

    def counting(model, steps, turn_length):
        if steps in powers:
            multiplied.append(steps)
        return product(model, steps, turn_length)

    monkeypatch.setattr(models.GraphAlgebraModel, "_product", counting)
    problems = models._listed_problems(perturbed)
    assert len(problems) == 24_595
    assert 0 < len(multiplied) == len(set(multiplied))
    # Each pair evaluated on its own, on a model that has cached no step and
    # forgets each path's value.
    multiplied.clear()
    scaled_path = models.GraphAlgebraModel.scaled_path

    def uncached(model, path):
        model._paths.clear()
        return scaled_path(model, path)

    monkeypatch.setattr(models.GraphAlgebraModel, "scaled_path", uncached)
    assert problems == models._listed_problems(dataclasses.replace(perturbed))
    assert len(multiplied) > 2 * 24_595


def test_presentations_match_caps_the_routes_of_a_special_cycle(monkeypatch):
    """Thirteen legs give the loop's ends 2^13 routes each, past the cap; the
    legs themselves have 2^12, at it.  The skew ``gen_random`` draws of seed
    3 with 48 and 64 half-edges have 2^13 and 2^16 routes.  Rule (V) settles
    each model from one route per quiver vertex, so the check answers
    without listing a route.  With one arrow of the loop doubled the proof
    fails, and the listing refuses by count before it lists a route."""
    assert 2 ** 12 == MAX_WALK_PATHS
    loop = skew_leg_loop(13)
    cases = [(loop, 784)] + [
        (gen_random(3, n_half=n_half, allow_skew=True), dim)
        for n_half, dim in [(48, 2_947), (64, 8_862)]
    ]

    def unreachable(*args):
        raise AssertionError("listed the routes of a special cycle")

    monkeypatch.setattr(models, "_special_cycle_table", unreachable)
    for graph, dim in cases:
        routes = max(
            walk_path_count(graph, h, len(graph.sigma_orbit_of(h)))
            for h in graph.half_edges
            if induces_arrow(graph, h)
        )
        assert graph.is_skew and routes > MAX_WALK_PATHS
        covered = cover(GradedGraph(graph, zero_grading(graph)))
        start = time.perf_counter()
        report = presentations_match(graph, covered)
        assert time.perf_counter() - start < 1
        assert report == (True, [], dim, dim)

    model = truncation_model(cover(GradedGraph(loop, zero_grading(loop))))
    arrows = dict(model.arrow_element)
    doubled = quiver(loop).arrow("1", 0, 0)
    arrows[doubled] = vec_scale(arrows[doubled], 2)
    with pytest.raises(ValueError) as info:
        presentation_problems(dataclasses.replace(model, arrow_element=arrows))
    assert str(info.value) == (
        f"special cycles at a have {2 ** 13} routes, over the cap of {MAX_WALK_PATHS}"
    )

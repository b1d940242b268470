from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from brauergraph import algebra
from brauergraph.algebra import (
    AlgebraTable,
    GroupActionTable,
    ONE,
    bga_dimension_formula,
    bga_table,
    bga_table_with_keys,
    monomial_isomorphism_violations,
    skew_group_table,
    trivial_extension,
    trivial_extension_iso_report,
)
from brauergraph.core import GradedGraph, edge_name, gen_random, zero_grading
from brauergraph.covering import cover, default_grading
from brauergraph.graphfile import parse
from brauergraph.linalg import RationalSpan
from brauergraph.models import (
    cut_cover_table,
    cut_model_table,
    sheet_shift_action,
    skew_dimension_oracle,
    skew_model,
)

from conftest import cartan_determinant, truncate, with_negated_basis
from oracles import check_table, dimension_by_rewriting


def test_bga_dimension_ex1(ex1):
    table = bga_table(ex1)
    assert table.dim == 27
    assert bga_dimension_formula(ex1) == 27
    assert dimension_by_rewriting(ex1) == 27
    assert check_table(table) == []


def test_bga_rejects_skew(ex2):
    with pytest.raises(ValueError):
        bga_table(ex2)


def test_bga_products_ex1(ex1):
    table, keys, index_of = bga_table_with_keys(ex1)
    w = lambda h, t: index_of[("w", h, t)]
    # a walk continues its own cycle
    assert table.pairwise(w("1-", 1), w("2-", 1)) == {w("2-", 2): ONE}
    # crossing to the other side of the next edge dies (relation III)
    assert table.pairwise(w("1+", 1), w("2-", 1)) == {}
    # completing the full cycle power lands in the socle
    assert table.pairwise(w("1+", 1), w("1+", 1)) == {index_of[("z", "1")]: ONE}


def test_bga_table_matches_the_walk_rule():
    """Every endpoint and product of the table, against the walk rule read
    from ``Permutation.power``: w[h:t] runs from the edge of h to the edge of
    sigma^t(h), and w[h':t'] * w[h:t] continues the walk when h' = sigma^t(h)."""
    from brauergraph.core import edge_name

    for seed in range(1, 31):
        g = gen_random(seed, n_half=(4, 6, 8, 10, 12)[seed % 5], max_multiplicity=3)
        table, keys, index_of = bga_table_with_keys(g)
        sigma = g.orientation
        position = {name: p for p, (name, _) in enumerate(table.idempotents)}
        for b, key in enumerate(keys):
            if key[0] == "w":
                _, h, t = key
                ends = (position[edge_name(g, sigma.power(t, h))], position[edge_name(g, h)])
                assert table.labels[b] == f"w[{h}:{t}]"
            else:
                ends = (position[key[1]], position[key[1]])
                assert table.labels[b] == f"{key[0]}[{key[1]}]"
            assert (table.tgt[b], table.src[b]) == ends, (seed, key)
        for i, left in enumerate(keys):
            for j, right in enumerate(keys):
                if table.src[i] != table.tgt[j]:
                    continue
                if left[0] == "e" or right[0] == "e":
                    want = {j if left[0] == "e" else i: ONE}
                elif left[0] == "z" or right[0] == "z" or left[1] != sigma.power(right[2], right[1]):
                    want = {}
                else:
                    h, total = right[1], left[2] + right[2]
                    top = len(sigma.orbit(h)) * g.multiplicity[h]
                    if total < top:
                        want = {index_of[("w", h, total)]: ONE}
                    elif total == top:
                        want = {index_of[("z", edge_name(g, h))]: ONE}
                    else:
                        want = {}
                assert table.pairwise(i, j) == want, (seed, left, right)


def one_pass_inputs():
    """Ordinary graphs: each golden graph, or its covering total when it is
    skew; ``gen_random`` ordinary seeds; and the covering totals of
    ``gen_random`` skew seeds under their default gradings."""
    golden = Path(__file__).resolve().parent / "golden"
    for path in sorted(golden.glob("*.bg")):
        parsed = parse(path.read_text(encoding="utf-8"))
        graph = parsed.graph
        if graph.is_skew:
            grading = parsed.grading or default_grading(graph)
            graph = cover(GradedGraph(graph, grading)).total
        yield path.stem, graph
    for seed in range(60):
        n_half = (4, 6, 8, 12, 16)[seed % 5]
        yield f"ordinary-{seed}", gen_random(seed, n_half=n_half, max_multiplicity=3)
    for seed in range(40):
        graph = gen_random(seed, n_half=(6, 8, 10, 12)[seed % 4], allow_skew=True)
        if graph.is_skew:
            yield f"skew-{seed}", cover(GradedGraph(graph, default_grading(graph))).total


@pytest.mark.parametrize("name, graph", list(one_pass_inputs()))
def test_the_one_pass_table_keeps_each_key_definition(name, graph):
    """The endpoints, generators, corners and labels that
    ``bga_table_with_keys`` fills in one pass over its keys, against their
    definition from each key: w[h:t] runs from the edge of h to the edge of
    sigma^t(h), an idempotent or socle sits in its edge's own corner, the
    generators are the ("w", h, 1), and the labels are e[edge], w[h:t] and
    z[edge]."""
    table, keys, _ = bga_table_with_keys(graph)
    position = {edge: p for p, (edge, _) in enumerate(table.idempotents)}
    assert [edge for edge, _ in table.idempotents] == sorted(graph.edges_by_label)
    ends, labels = [], []
    for key in keys:
        if key[0] == "w":
            _, h, t = key
            edges = (edge_name(graph, graph.orientation.power(t, h)), edge_name(graph, h))
            labels.append(f"w[{h}:{t}]")
        else:
            edges = (key[1], key[1])
            labels.append(f"{key[0]}[{key[1]}]")
        ends.append(tuple(position[edge] for edge in edges))
    assert list(zip(table.tgt, table.src)) == ends
    assert table.generators == tuple(
        b for b, key in enumerate(keys) if key[0] == "w" and key[2] == 1
    )
    corners = [[[] for _ in position] for _ in position]
    for b, (t, s) in enumerate(ends):
        corners[t][s].append(b)
    assert table.corners == tuple(tuple(map(tuple, row)) for row in corners)
    assert len(table.labels) == table.dim == len(keys)
    assert table.labels == tuple(labels)
    assert [table.labels[b] for b in range(table.dim)] == labels
    assert list(table.labels) == labels


def test_a_passing_verdict_renders_no_label(monkeypatch):
    """Labels name basis elements in witnesses only: a passing
    ``mutate --verify`` and a passing ``presentations_match`` on skew-3 build
    the covering's table and its corner table and read none of their labels."""
    from brauergraph.cli import main
    from brauergraph.models import presentations_match

    built, reads = [], []
    init = algebra.RenderedLabels.__init__

    def counted(labels, size, render):
        def read(b):
            reads.append(b)
            return render(b)

        built.append(labels)
        init(labels, size, read)

    monkeypatch.setattr(algebra.RenderedLabels, "__init__", counted)
    path = Path(__file__).resolve().parent / "golden" / "skew-3.bg"
    assert main(["mutate", str(path), "--edges", "1,3", "--verify"]) == 0
    graph = parse(path.read_text(encoding="utf-8")).graph
    assert presentations_match(graph, cover(GradedGraph(graph, zero_grading(graph)))).ok
    assert len(built) == 4 and reads == []
    # the count sees a read
    assert built[0][0] == "e[1_0]" and reads == [0]


def test_bga_loop_graph(loop_graph):
    table, keys, index_of = bga_table_with_keys(loop_graph)
    assert table.dim == 3
    assert set(keys) == {("e", "a"), ("w", "a", 1), ("z", "a")}
    assert table.pairwise(index_of[("w", "a", 1)], index_of[("w", "a", 1)]) == {
        index_of[("z", "a")]: ONE
    }


def test_cartan_ex1(ex1):
    table = bga_table(ex1)
    # rows/columns ordered by edge name 1, 2, 3, 4
    assert table.cartan() == [
        [3, 1, 1, 1],
        [1, 3, 3, 1],
        [1, 3, 3, 1],
        [1, 1, 1, 2],
    ]
    assert [sum(row) for row in table.cartan()][0] == 6


def test_cartan_semisimple_identity():
    table = AlgebraTable(
        ["e1", "e2"],
        [0, 1],
        [0, 1],
        [("v1", 0), ("v2", 1)],
        lambda i, j: {i: ONE} if i == j else {},
    )
    assert table.cartan() == [[1, 0], [0, 1]]


def test_cartan_symmetric_fuzz():
    for seed in range(60):
        g = gen_random(seed, n_half=6, allow_skew=False, max_multiplicity=3)
        cartan = bga_table(g).cartan()
        assert cartan == [list(row) for row in zip(*cartan)], seed


def test_bga_dimension_oracles_fuzz():
    for seed in range(60):
        g = gen_random(seed, n_half=8, allow_skew=False, max_multiplicity=3)
        table = bga_table(g)
        assert table.dim == bga_dimension_formula(g) == dimension_by_rewriting(g), seed


def test_socle_pairing_symmetric_nondegenerate():
    instances = [gen_random(seed, n_half=6, allow_skew=False, max_multiplicity=2)
                 for seed in (0, 1, 2, 3, 4)]
    for g in instances:
        table, keys, index_of = bga_table_with_keys(g)
        socle = {index_of[k] for k in keys if k[0] == "z"}

        def pairing(i, j):
            return sum(
                (c for b, c in table.pairwise(i, j).items() if b in socle),
                Fraction(0),
            )

        matrix = [[pairing(i, j) for j in range(table.dim)] for i in range(table.dim)]
        assert matrix == [list(row) for row in zip(*matrix)]
        span = RationalSpan()
        for row in matrix:
            span.add({k: c for k, c in enumerate(row) if c})
        assert span.rank == table.dim


def test_skew_group_trivial_group(ex1):
    table = bga_table(ex1)
    trivial = GroupActionTable(1, tuple(range(table.dim)))
    result = skew_group_table(table, trivial)
    assert result.dim == table.dim
    for i in range(table.dim):
        for j in range(table.dim):
            assert result.pairwise(i, j) == table.pairwise(i, j)


def test_skew_group_dimension_and_associativity(ex1_graded):
    covered = cover(ex1_graded)
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    skew = skew_group_table(bd, action)
    assert skew.dim == 2 * bd.dim
    rng = random.Random(0)
    for _ in range(100):
        a, b, c = (rng.randrange(skew.dim) for _ in range(3))
        ea, eb, ec = {a: ONE}, {b: ONE}, {c: ONE}
        assert skew.mul(skew.mul(ea, eb), ec) == skew.mul(ea, skew.mul(eb, ec))


def test_skew_group_rejects_non_automorphism(ex1):
    table = bga_table(ex1)
    # an order-2 "action" that swaps two idempotents but fixes all walks
    images = list(range(table.dim))
    i0 = table.idempotents[0][1]
    i1 = table.idempotents[1][1]
    images[i0], images[i1] = images[i1], images[i0]
    bad = GroupActionTable(2, tuple(images))
    with pytest.raises(ValueError):
        skew_group_table(table, bad)


def test_truncate_full_unit(ex1):
    table = bga_table(ex1)
    chosen = [(label, {index: ONE}) for label, index in table.idempotents]
    trunc = truncate(table, chosen)
    assert trunc.table.dim == table.dim
    assert check_table(trunc.table) == []
    assert trunc.table.cartan() == table.cartan()


def test_truncate_rejects_non_idempotents(ex1):
    table, keys, index_of = bga_table_with_keys(ex1)
    with pytest.raises(ValueError):
        truncate(table, [("w", {index_of[("w", "1-", 1)]: ONE})])


def test_skew_model_dimension_ex2(ex2, ex2_graded):
    model = skew_model(ex2)
    covered = cover(ex2_graded)
    assert model.table.dim == 63
    assert skew_dimension_oracle(covered) == 63
    assert check_table(model.table, cap=0) == []


def test_skew_model_grading_independent(ex2):
    from brauergraph.core import Grading

    model0 = skew_model(ex2)
    degrees = {h: 0 for h in ex2.half_edges}
    degrees["1-"] = degrees["3"] = 1  # still 0-homogeneous on every vertex
    model1 = skew_model(ex2, Grading(2, degrees))
    assert model0.table.dim == model1.table.dim == 63


def test_skew_model_grading_independent_fuzz():
    from brauergraph.core import grading_violations, random_valid_grading

    done = 0
    seed = 0
    while done < 6:
        seed += 1
        rng = random.Random(50_000 + seed)
        g = gen_random(seed, n_half=6, allow_skew=True, max_multiplicity=2)
        if not g.is_skew:
            continue
        randomized = random_valid_grading(g, rng, zero_grading(g))
        assert grading_violations(g, randomized) == []
        assert skew_model(g).table.dim == skew_model(g, randomized).table.dim, seed
        done += 1


def test_trivial_extension_dimension_doubles(loop_graph):
    table = bga_table(loop_graph)
    triv = trivial_extension(table)
    assert triv.dim == 2 * table.dim
    assert check_table(triv) == []


def test_trivial_extension_one_dimensional():
    one = AlgebraTable(["e"], [0], [0], [("v", 0)], lambda i, j: {0: ONE})
    triv = trivial_extension(one)
    assert triv.dim == 2
    # the dual generator squares to zero
    assert triv.pairwise(1, 1) == {}
    assert triv.pairwise(0, 1) == {1: ONE}
    assert check_table(triv) == []


def test_trivial_extension_iso_small_cover(loop_graph):
    from brauergraph.covering import default_grading

    covered = cover(GradedGraph(loop_graph, default_grading(loop_graph)))
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    ok, why = trivial_extension_iso_report(bd, action)
    assert ok, why


def test_trivial_extension_map_with_a_negated_generator_names_a_pair(
    loop_graph, monkeypatch
):
    """The report's map, from Triv(A G) with one arrow negated, is refused,
    and the named pair is one where phi(x y) != phi(x) phi(y)."""
    from brauergraph.covering import default_grading

    covered = cover(GradedGraph(loop_graph, default_grading(loop_graph)))
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    calls = []
    prove = algebra.monomial_isomorphism_violations
    monkeypatch.setattr(
        algebra,
        "monomial_isomorphism_violations",
        lambda *args: calls.append(args) or prove(*args),
    )
    assert trivial_extension_iso_report(bd, action) == (True, None)
    # the last proof is phi's; the ones before it are the action's
    lhs, rhs, images = calls[-1]
    expected = {
        "w[a_0:1]|g0": "w[a_0:1]|g0, D(z[a_1]|g1)",
        "w[a_1:1]|g0": "w[a_1:1]|g0, D(z[a_1]|g0)",
    }
    assert [lhs.labels[a] for a in bd.generators] == list(expected)

    def phi(element):
        return {images[k]: c for k, c in element.items()}

    for a in bd.generators:
        negated = with_negated_basis(lhs, {a})
        pair = expected[lhs.labels[a]]
        why = monomial_isomorphism_violations(negated, rhs, images)
        assert why == f"map is not multiplicative on ({pair})"
        x, y = (lhs.labels.index(label) for label in pair.split(", "))
        assert phi(negated.pairwise(x, y)) != rhs.mul(phi({x: ONE}), phi({y: ONE}))


def test_skew_and_trivial_extension_generators_span():
    """The generators that ``skew_group_table`` and ``trivial_extension``
    set span their tables: the identity map passes the proof, whose search
    (b) reaches every basis element from them.  They are fewer than the
    non-idempotents the proof would otherwise take."""
    from brauergraph.covering import default_grading

    for seed, n_half in ((1, 4), (3, 6)):
        graph = gen_random(seed, n_half=n_half)
        covered = cover(GradedGraph(graph, default_grading(graph)))
        bd, keys, index_of = bga_table_with_keys(covered.total)
        skew = skew_group_table(bd, sheet_shift_action(covered, keys, index_of))
        for table in (trivial_extension(bd), skew, trivial_extension(skew)):
            identity = list(range(table.dim))
            assert table.generators
            assert len(table.generators) < table.dim - len(table.idempotents) - 1
            assert monomial_isomorphism_violations(table, table, identity) is None


def test_trivial_extension_iso_on_cut(ex2_multiplicity_one):
    covered = cover(GradedGraph(ex2_multiplicity_one, zero_grading(ex2_multiplicity_one)))
    cut_table, action, _ = cut_cover_table(covered, frozenset(["1-", "1+", "4-", "5-"]))
    assert cut_table.dim == 20
    ok, why = trivial_extension_iso_report(cut_table, action)
    assert ok, why


def test_cut_trivial_extension_recovers_dimension(ex2_multiplicity_one):
    model = skew_model(ex2_multiplicity_one)
    bcut = cut_model_table(ex2_multiplicity_one, frozenset(["1-", "1+", "4-", "5-"]))
    triv = trivial_extension(bcut)
    assert triv.dim == model.table.dim == 36
    assert check_table(triv, cap=0) == []


def test_cartan_determinant_invariance(ex1, ex1_graded, ex1_subset):
    from brauergraph.moves import move_set

    moved = move_set(ex1_graded, ex1_subset)
    before = abs(cartan_determinant(bga_table(ex1)))
    after = abs(cartan_determinant(bga_table(moved.graph)))
    assert before == after

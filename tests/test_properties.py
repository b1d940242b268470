"""Property tests on graphs drawn straight from their data.

A graph is drawn as its half-edge count, the pairing's fixed points and
transpositions, an orientation permutation and one multiplicity per
orientation orbit; ``validate`` filters out what is not a graph.  The runs
are derandomized with a fixed example count, so each test run checks the
same graphs.
"""
from __future__ import annotations

import dataclasses
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brauergraph import models
from brauergraph.algebra import (
    ONE,
    action_violations,
    bga_dimension_formula,
    bga_table,
    bga_table_with_keys,
    monomial_isomorphism_violations,
)
from brauergraph.core import (
    BrauerGraph,
    GradedGraph,
    gen_random,
    grading_violations,
    oz_invariants,
    random_ih_stable_subset,
    random_valid_grading,
    validate,
    zero_grading,
)
from brauergraph.covering import (
    _commuting_sides,
    check_cover_commutes,
    cover,
    default_grading,
    lift_subset,
    sheet_label,
)
from brauergraph.cli import main
from brauergraph.graphfile import emit, parse
from brauergraph.homotopy import (
    _hom_complex,
    _hom_complexes,
    mutation_object,
    mutation_verification,
)
from brauergraph.linalg import vec_scale
from brauergraph.moves import maximal_sectors, move_sector, move_set, move_set_underlying
from brauergraph.permutations import Permutation

from conftest import (
    assert_families_render_pair_by_pair,
    assert_sectors_match_reference,
    pairwise_match_problems,
    sector_fold,
    with_negated_basis,
)
from oracles import check_table, dimension_by_rewriting, edge_cartan

# Fixed budgets: each of the two properties runs in about a second on a
# 2-vCPU VM, and the graph-file round trip in about 0.7 s.
MAX_DIMENSION_EXAMPLES = 20
MAX_CLI_EXAMPLES = 16
MAX_ROUND_TRIP_EXAMPLES = 60
# The two mutation properties draw models of dimension at most
# MAX_MUTATION_DIM and run in about a second each.
MAX_MUTATION_EXAMPLES = 60
MAX_MUTATION_DIM = 80
# The covering-invariants property runs in about a second.
MAX_COVER_INVARIANT_EXAMPLES = 250

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def graphs_with_subsets(
    draw, max_cross: int = 3, max_half: int = 13
) -> tuple[BrauerGraph, frozenset[str]]:
    """A valid graph, ordinary or skew, and a pairing-stable subset of it;
    at most ``max_cross`` fixed points of the pairing and ``max_half``
    half-edges."""
    n_pairs = draw(st.integers(0, 5))
    n_cross = draw(st.integers(0, max_cross))
    n_half = 2 * n_pairs + n_cross
    assume(2 <= n_half <= max_half)
    names = [f"h{i}" for i in range(n_half)]
    order = draw(st.permutations(names))
    pairing = Permutation.from_cycles(
        names, [order[2 * i : 2 * i + 2] for i in range(n_pairs)]
    )
    orientation = Permutation(dict(zip(names, draw(st.permutations(names)))))
    multiplicity = {}
    for orbit in orientation.orbits():
        m = draw(st.integers(1, 3))
        multiplicity.update(dict.fromkeys(orbit, m))
    graph = BrauerGraph(frozenset(names), pairing, orientation, multiplicity)
    assume(not validate(graph))
    n_edges = len(graph.edges)
    keep = draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges))
    subset = frozenset(h for edge, k in zip(graph.edges, keep) if k for h in edge)
    return graph, subset


@PROPERTY_SETTINGS
@given(graphs_with_subsets())
def test_linear_sectors_equal_the_orbit_reference(drawn):
    graph, subset = drawn
    assert_sectors_match_reference(graph, subset)
    covered = cover(GradedGraph(graph, default_grading(graph, subset)))
    assert_sectors_match_reference(covered.total, lift_subset(covered, subset))


@PROPERTY_SETTINGS
@given(graphs_with_subsets())
def test_move_verdict_holds(drawn):
    """Cover and move commute, both maximal-sector orders agree, and an
    ordinary graph keeps its derived invariants."""
    graph, subset = drawn
    grading = default_grading(graph, subset)
    assert grading_violations(graph, grading) == []
    graded = GradedGraph(graph, grading)
    assert check_cover_commutes(graded, subset)
    found = sorted(maximal_sectors(graph, subset))
    outcomes = set()
    for order in (found, found[::-1]):
        current = graded
        for sector in order:
            current = move_sector(current, sector, subset)
        outcomes.add(
            (
                current.graph.orientation,
                frozenset(current.graph.multiplicity.items()),
                current.grading,
            )
        )
    assert len(outcomes) == 1
    if not graph.is_skew:
        moved = move_set(graded, subset)
        assert oz_invariants(moved.graph) == oz_invariants(graph)


@settings(PROPERTY_SETTINGS, max_examples=MAX_COVER_INVARIANT_EXAMPLES)
@given(graphs_with_subsets())
def test_a_skew_move_keeps_the_covering_invariants(drawn):
    """A move across skew legs can change the base graph's invariants
    (``test_skew_moves_can_flip_bipartiteness``), but its covering is an
    ordinary graph, and the move keeps every derived invariant of that."""
    graph, subset = drawn
    assume(graph.is_skew)
    graded = GradedGraph(graph, default_grading(graph, subset))
    moved = move_set(graded, subset)
    assert oz_invariants(cover(graded).total) == oz_invariants(cover(moved).total)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(graphs_with_subsets(), st.integers(0, 2**32 - 1))
def test_move_set_under_a_random_valid_grading(drawn, seed):
    """Under a random valid grading the composite move is the fold of the
    single-sector moves, its grading is valid, and it commutes with the
    covering."""
    graph, subset = drawn
    base = default_grading(graph, subset)
    grading = random_valid_grading(graph, random.Random(seed), base)
    graded = GradedGraph(graph, grading)
    moved = move_set(graded, subset)
    assert moved == sector_fold(graded, subset)
    assert grading_violations(moved.graph, moved.grading) == []
    assert check_cover_commutes(graded, subset)


def sheet_labelled(graph: BrauerGraph, names: list[str], n: int) -> BrauerGraph:
    """``graph`` on integer labels with label k renamed to the sheet label
    of half-edge ``names[k // n]`` on sheet k % n."""
    name = {k: sheet_label(names[k // n], k % n) for k in graph.half_edges}

    def renamed(perm: Permutation) -> Permutation:
        return Permutation({name[k]: name[perm(k)] for k in graph.half_edges})

    return BrauerGraph(
        frozenset(name.values()),
        renamed(graph.pairing),
        renamed(graph.orientation),
        {name[k]: m for k, m in graph.multiplicity.items()},
    )


def assert_integer_sides_are_the_sheet_label_sides(graded, subset):
    """Both sides of the commutativity check, renamed to sheet labels, are
    the covering of the moved graph and the move of the covering as
    ``cover`` labels them."""
    moved_then_covered, covered_then_moved = _commuting_sides(graded, subset)
    names, n = sorted(graded.graph.half_edges), graded.grading.modulus
    covered = cover(graded)
    assert sheet_labelled(moved_then_covered, names, n) == (
        cover(move_set(graded, subset)).total
    )
    assert sheet_labelled(covered_then_moved, names, n) == (
        move_set_underlying(covered.total, lift_subset(covered, subset))
    )


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([4, 6, 8, 10]),
    st.integers(0, 2**32 - 1),
)
def test_integer_sheet_labels_agree_with_the_sheet_labels(seed, skew, n_half, pick):
    """On random ordinary and skew graphs and random stable subsets."""
    graph = gen_random(seed, n_half=n_half, allow_skew=skew, max_multiplicity=4)
    subset = random_ih_stable_subset(graph, random.Random(pick))
    graded = GradedGraph(graph, default_grading(graph, subset))
    assert_integer_sides_are_the_sheet_label_sides(graded, subset)


def test_integer_sheet_labels_agree_on_sixty_sheets():
    """m_bar = 60: past ten sheets, the order of the integer labels is not
    the order of the sheet labels (h_10 sorts before h_2)."""
    graph = gen_random(11, n_half=8, max_multiplicity=6)
    assert graph.m_bar == 60
    for pick in range(4):
        subset = random_ih_stable_subset(graph, random.Random(pick))
        graded = GradedGraph(graph, default_grading(graph, subset))
        assert_integer_sides_are_the_sheet_label_sides(graded, subset)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(graphs_with_subsets(), st.integers(0, 2**32 - 1), st.integers(0, 2**16))
def test_skew_presentations_match_the_pairwise_oracle(drawn, seed, pick):
    """On a skew graph under a random valid grading the presentation check
    is ok, and with one arrow doubled it reports what the pairwise check
    reports."""
    graph, _ = drawn
    assume(graph.is_skew)
    grading = random_valid_grading(graph, random.Random(seed), zero_grading(graph))
    covered = cover(GradedGraph(graph, grading))
    report = models.presentations_match(graph, covered)
    assert report.ok, report.problems[:2]

    model = models.truncation_model(covered)
    assume(model.arrow_element)
    arrows = dict(model.arrow_element)
    arrow = sorted(arrows)[pick % len(arrows)]
    arrows[arrow] = vec_scale(arrows[arrow], 2)
    perturbed = dataclasses.replace(model, arrow_element=arrows)
    problems = models.presentation_problems(perturbed)
    assert problems == pairwise_match_problems(dataclasses.replace(perturbed))


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(graphs_with_subsets(), st.integers(0, 2**16))
def test_the_generator_proof_agrees_with_every_pair(drawn, pick):
    """The sheet shift of the covering passes the action proof.  As a map
    from the table with one arrow negated, the generator proof refuses it
    exactly when some pair of basis elements breaks multiplicativity, and
    names such a pair.  (It need not break: x -> -x is an automorphism of
    k[x]/(x^2).)"""
    graph, _ = drawn
    covered = cover(GradedGraph(graph, default_grading(graph)))
    table, keys, index_of = bga_table_with_keys(covered.total)
    assume(table.generators and table.dim <= 100)
    action = models.sheet_shift_action(covered, keys, index_of)
    assert action_violations(table, action) == []
    arrow = table.generators[pick % len(table.generators)]
    negated = with_negated_basis(table, {arrow})

    def phi(x):
        return {action.images[k]: c for k, c in x.items()}

    broken = {
        f"map is not multiplicative on ({table.labels[x]}, {table.labels[y]})"
        for x in range(table.dim)
        for y in range(table.dim)
        if phi(negated.pairwise(x, y)) != table.mul(phi({x: ONE}), phi({y: ONE}))
    }
    why = monomial_isomorphism_violations(negated, table, action.images)
    assert why in broken if broken else why is None


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(st.integers(1, 10**6), st.sampled_from([6, 8, 10]), st.integers(0, 2**32 - 1))
def test_the_rescaled_skew_model_is_an_algebra(seed, n_half, grading_seed):
    """The skew model's table, on the orbit basis scaled to integral
    structure constants, keeps the unit law, orthogonal idempotents and
    associativity (``check_table``, on 10,000 sampled triples)."""
    graph = gen_random(seed, n_half=n_half, allow_skew=True, max_multiplicity=2)
    assume(graph.is_skew)
    grading = random_valid_grading(graph, random.Random(grading_seed), zero_grading(graph))
    model = models.truncation_model(cover(GradedGraph(graph, grading)))
    assert check_table(model.table, seed=seed, cap=0) == []


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.integers(1, 10**6), st.sampled_from([4, 6, 8]), st.integers(1, 3))
def test_families_render_pair_by_pair(seed, n_half, max_multiplicity):
    """Rendering a skew graph's presentation, each rule-(I) route power once,
    gives the text of rendering its relations one pair at a time."""
    graph = gen_random(
        seed, n_half=n_half, allow_skew=True, max_multiplicity=max_multiplicity
    )
    assume(graph.is_skew)
    assert_families_render_pair_by_pair(graph)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(graphs_with_subsets(), st.integers(0, 2**32 - 1))
def test_the_counted_cartan_matrix_is_the_moved_models(drawn, seed):
    """The moved graph's edge Cartan matrix, counted from the graph or its
    covering (``graph_edge_cartan``), is the one its model's table gives,
    under the moved image of a random valid grading."""
    graph, subset = drawn
    base = default_grading(graph, subset)
    grading = random_valid_grading(graph, random.Random(seed), base)
    moved = move_set(GradedGraph(graph, grading), subset)
    assert models.graph_edge_cartan(moved.graph, moved.grading) == edge_cartan(
        models.model_for(moved.graph, moved.grading)
    )


@settings(PROPERTY_SETTINGS, max_examples=MAX_DIMENSION_EXAMPLES)
@given(graphs_with_subsets(max_cross=0), st.integers(0, 2**32 - 1))
def test_the_dimension_oracles_agree(drawn, seed):
    """On an ordinary graph the closed count, path rewriting with the
    printed relations and the table's basis give one dimension, and the
    ordinary model's table keeps the unit law, orthogonal idempotents and
    associativity (``check_table``, on 10,000 sampled triples)."""
    graph, _ = drawn
    table = models.ordinary_model(graph).table
    assert bga_dimension_formula(graph) == dimension_by_rewriting(graph) == table.dim
    assert bga_table(graph).dim == table.dim
    assert check_table(table, seed=seed, cap=0) == []


def _small_model(graph):
    """``model_for(graph)``, drawn only when its counted dimension is at
    most ``MAX_MUTATION_DIM``."""
    if graph.is_skew:
        covered = cover(GradedGraph(graph, zero_grading(graph)))
        dim = models.skew_dimension_oracle(covered)
    else:
        dim = bga_dimension_formula(graph)
    assume(dim <= MAX_MUTATION_DIM)
    return models.model_for(graph)


@settings(PROPERTY_SETTINGS, max_examples=MAX_MUTATION_EXAMPLES)
@given(graphs_with_subsets(max_half=12))
def test_the_hom_complexes_are_the_per_pair_ones(drawn):
    """Reading the stalk pairs off the corner sizes and one pass per cone,
    and the pairs of two cones off the cone-stalk pairs, gives the
    cohomology of every pair's own Hom complex, in the same key order."""
    graph, subset = drawn
    model = _small_model(graph)
    summands = mutation_object(model, subset)
    assert list(_hom_complexes(model.table, summands).items()) == [
        ((a, b), _hom_complex(model.table, x, y))
        for a, (_, x) in enumerate(summands)
        for b, (_, y) in enumerate(summands)
    ]


@settings(PROPERTY_SETTINGS, max_examples=MAX_MUTATION_EXAMPLES)
@given(graphs_with_subsets(max_half=12))
def test_a_left_mutation_is_verified(drawn):
    """Left mutation at a nonempty proper set of edges gives a tilting
    object whose End(T) has the moved graph's dimension and Cartan
    matrix."""
    graph, subset = drawn
    assume(subset and subset != graph.half_edges)
    report = mutation_verification(_small_model(graph), subset)
    assert report.ok, report[1:]


def opposite(graph: BrauerGraph) -> BrauerGraph:
    """op(G): G with sigma replaced by sigma^-1, whose algebra is the
    opposite algebra of G's."""
    return dataclasses.replace(graph, orientation=graph.orientation.inverse())


@PROPERTY_SETTINGS
@given(graphs_with_subsets(max_half=12))
def test_moving_back_returns_the_graph(drawn):
    """The right mutation's graph is op(move(op(.))), and moving back at the
    same edges gives G again, on ordinary and skew graphs."""
    graph, subset = drawn
    moved = move_set_underlying(graph, subset)
    assert opposite(move_set_underlying(opposite(moved), subset)) == graph


@settings(PROPERTY_SETTINGS, max_examples=MAX_MUTATION_EXAMPLES)
@given(graphs_with_subsets(max_half=12))
def test_mutating_back_is_verified(drawn):
    """Left mutation of op(move(G, S)) at S, the right mutation back to G
    read in the opposite algebra, is verified against its moved graph."""
    graph, subset = drawn
    assume(subset and subset != graph.half_edges)
    moved = move_set_underlying(graph, subset)
    report = mutation_verification(_small_model(opposite(moved)), subset)
    assert report.ok, report[1:]


COMMANDS = ("validate", "invariants", "quiver", "relations", "dim", "cartan",
            "move", "cover", "check-commute", "mutate", "cut")


@settings(PROPERTY_SETTINGS, max_examples=MAX_CLI_EXAMPLES)
@given(
    graphs_with_subsets(max_half=8),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["default", "file", "auto"]),
)
def test_the_cli_answers_or_refuses(drawn, seed, graded, choice):
    """On an accepted graph, written with a random valid grading or none,
    every command exits 0 or 2, with or without ``--json``, and prints no
    traceback: each failure is a one-line error."""
    graph, subset = drawn
    grading = None
    if graded:
        base = default_grading(graph, subset)
        grading = random_valid_grading(graph, random.Random(seed), base)
    labels = graph.edge_labels
    edges = ",".join(sorted({labels[h] for h in subset}))
    delta = ",".join(sorted(subset))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.bg"
        extra = {
            "quiver": ["--dot", str(Path(tmp) / "drawn.dot")],
            "move": ["--edges", edges, "--grading", choice],
            "cover": ["--grading", choice],
            "check-commute": ["--edges", edges, "--grading", choice],
            "mutate": ["--edges", edges, "--verify"],
            "cut": ["--delta", delta],
        }
        path.write_text(emit(graph, grading), encoding="utf-8")
        for command in COMMANDS:
            for style in ([], ["--json"]):
                argv = [*style, command, str(path), *extra.get(command, [])]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2), (argv, err.getvalue())
                assert "Traceback" not in out.getvalue() + err.getvalue(), argv
                assert (code == 2) == bool(err.getvalue()), (argv, err.getvalue())


@settings(PROPERTY_SETTINGS, max_examples=MAX_ROUND_TRIP_EXAMPLES)
@given(graphs_with_subsets(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_a_graph_file_round_trips(drawn, seed, graded, data):
    """``parse(emit(graph, grading, aliases))`` gives back the graph, the
    grading, a random valid one or none, and the aliases: up to two per
    edge, named by the edge's own label or a fresh name, each listing the
    edge's half-edges in a drawn order."""
    graph, subset = drawn
    grading = None
    if graded:
        base = default_grading(graph, subset)
        grading = random_valid_grading(graph, random.Random(seed), base)
    labels = graph.edge_labels
    names = st.lists(st.sampled_from(["own", "a", "b"]), unique=True, max_size=2)
    aliases = {}
    for k, edge in enumerate(graph.edges):
        for kind in data.draw(names):
            name = labels[edge[0]] if kind == "own" else f"{kind}{k}"
            aliases[name] = tuple(data.draw(st.permutations(edge)))
    assert parse(emit(graph, grading, aliases)) == (graph, grading, aliases)

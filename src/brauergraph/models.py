"""Algebra models attached to graphs.

Ordinary graphs get their algebra table directly from the normal form
basis.  Skew graph algebras are modelled exclusively through the covering:
the compression f (A#G) f of the skew group algebra of the covering's
algebra A, for the sheet shift g, by the sheet-zero idempotents f.  It is
built on its G-orbit basis straight from the covering's basis keys
(``algebra.orbit_truncation``), never building the skew group table; the
generic route through ``algebra.skew_group_table`` and the corner sweep
``truncate`` of the test suite is its test oracle.  ``presentation_problems``
checks any model against its graph's direct presentation: rule (V) relation
by relation, then one route per quiver vertex for those indexed by routes.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import (
    AlgebraTable,
    BasisKey,
    Element,
    GroupActionTable,
    ONE,
    bga_table_with_keys,
    integral_form,
    orbit_truncation,
)
from .core import BrauerGraph, GradedGraph, Grading, check_grading, edge_name, zero_grading
from .covering import CoveredGraph, cover, lift_subset
from .linalg import _quotient, vec_add, vec_scale
from .presentation import (
    MAX_WALK_PATHS,
    Arrow,
    Path,
    PowerFamily,
    Presentation,
    QVertex,
    Relation,
    Walk,
    _crossing_relations,
    _first_routes,
    _other_relations,
    _overrun_relations,
    _power_families,
    _render_terms,
    _shifted_relations,
    _special_cycle_table,
    _two_route_relations,
    admissible_cut,
    find_subword,
    induces_arrow,
    normal_paths,
    quiver,
    render_arrow,
    render_vertex,
    vertex_indices,
    walk_path_count,
)


def _exact(value: Element, denominator: int) -> Element:
    """The element value / denominator, ``int`` where a coefficient is one."""
    if denominator == 1:
        return value
    return {k: _quotient(c, denominator) for k, c in value.items()}


def _same(x: tuple[Element, int], y: tuple[Element, int]) -> bool:
    """Whether two (value, denominator) pairs are one element."""
    (u, d), (v, e) = x, y
    if d == e:
        return u == v
    return vec_scale(u, e) == vec_scale(v, d)


@dataclass
class GraphAlgebraModel:
    """A table together with the quiver dictionary needed to evaluate paths.

    A path or walk is the left-nested product of its step elements, first
    step rightmost.  A step sequence that starts with q >= 2 copies of its
    first turn (one walk round the sigma-orbit of the first half-edge) is
    evaluated as tail * turn^q, with turn^q formed from the turn by q - 1
    products.  A zero prefix is extended without a product.

    Products are taken of integral elements only.  Each step element x (an
    arrow, or the full arrow at a half-edge) is held once per model as
    (d x, d) with d the least denominator that clears it
    (``integral_form``), so ``table`` and ``arrow_element`` must not change
    after the first evaluation.  In a skew model the structure constants
    are integers and an arrow whose source is a skew leg's copy is +-1/2
    times basis elements, so there d = 2, and d = 1 elsewhere: a product's
    denominator is 2 to the power of its arrows at split sources.  The
    ``scaled_*`` methods return (V, D) with value V / D; a relation is zero
    exactly when the sum of its terms' V, each scaled to the largest D, is
    zero.  ``scaled_path`` multiplies each path out once per model and keeps
    its (V, D), or the KeyError of its missing arrow, raised again on every
    call.  The values the ``scaled_*`` and ``evaluate_*`` methods return are
    shared with these caches, so callers must not modify them.
    """

    graph: BrauerGraph
    table: AlgebraTable
    vertex_position: dict[QVertex, int]
    arrow_element: dict[Arrow, Element]
    twist: Element | None = None
    grading: Grading | None = None
    _steps: dict[Arrow | str, tuple[Element, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _paths: dict[Path, tuple[Element, int] | KeyError] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def full_arrow(self, h: str) -> Element:
        """The sum of the quiver arrows at h."""
        out: Element = {}
        for a, elem in self.arrow_element.items():
            if a.h == h:
                out = vec_add(out, elem)
        return out

    def _step(self, key: Arrow | str) -> tuple[Element, int]:
        """(d x, d) for the element x of a step; KeyError names a missing
        arrow."""
        out = self._steps.get(key)
        if out is None:
            x = self.full_arrow(key) if isinstance(key, str) else self.arrow_element[key]
            out = self._steps[key] = integral_form(x)
        return out

    def _extend(
        self, value: Element, denominator: int, steps: Iterable[Arrow | str]
    ) -> tuple[Element, int]:
        """(V, D) after each step's element is multiplied on the left of
        (value, denominator)."""
        for key in steps:
            elem, d = self._step(key)
            if value:
                value = self.table.mul(elem, value)
            denominator *= d
        return value, denominator

    def _product(
        self, steps: tuple[Arrow | str, ...], turn_length: int
    ) -> tuple[Element, int]:
        """(V, D) for the product of the step elements, first step rightmost:
        tail * turn^q when the steps start with q >= 2 copies of their first
        ``turn_length`` steps, else step by step."""
        turn = steps[:turn_length]
        q = 1
        while steps[q * turn_length : (q + 1) * turn_length] == turn:
            q += 1
        elem, d = value, denominator = self._extend(*self._step(turn[0]), turn[1:])
        for _ in range(q - 1):
            if value:
                value = self.table.mul(elem, value)
            denominator *= d
        return self._extend(value, denominator, steps[q * turn_length :])

    def scaled_walk(self, h: str, length: int) -> tuple[Element, int]:
        """(V, D) for the product of the full arrows along h, sigma h, ...,
        sigma^{length-1} h."""
        if length < 1:
            raise ValueError("walks have at least one arrow")
        orbit = self.graph.sigma_orbit_of(h)
        turns, rest = divmod(length, len(orbit))
        return self._product(orbit * turns + orbit[:rest], len(orbit))

    def _scaled_summed_walk(self, walk: Walk) -> tuple[Element, int]:
        graph = self.graph
        last = graph.orientation.power(walk.length, walk.h)
        s = self.vertex_position[(edge_name(graph, walk.h), walk.start)]
        t = self.vertex_position[(edge_name(graph, last), walk.end)]
        value, denominator = self.scaled_walk(walk.h, walk.length)
        return self.table.corner(value, t, s), denominator

    def evaluate_walk(self, walk: Walk) -> Element:
        """The summed walk: the (end, start) corner of its walk element."""
        return _exact(*self._scaled_summed_walk(walk))

    def edge_positions(self, h: str) -> list[int]:
        name = edge_name(self.graph, h)
        return [
            self.vertex_position[(name, i)] for i in vertex_indices(self.graph, h)
        ]

    def scaled_path(self, path: Path) -> tuple[Element, int]:
        """(V, D) for the product of the arrows of ``path``, multiplied out
        once per model; KeyError names a missing arrow."""
        out = self._paths.get(path)
        if out is None:
            if not path:
                raise ValueError("paths have at least one arrow")
            # A repeated turn ends where the first arrow comes round again.
            repeat = path[0] in path[1:]
            turn_length = path.index(path[0], 1) if repeat else len(path)
            try:
                out = self._product(path, turn_length)
            except KeyError as exc:
                out = exc
            self._paths[path] = out
        if isinstance(out, KeyError):
            raise KeyError(*out.args)
        return out

    def evaluate_path(self, path: Path) -> Element:
        """Product of the arrows of ``path``; KeyError names a missing arrow."""
        return _exact(*self.scaled_path(path))

    def scaled_relation(self, rel: Relation) -> tuple[Element, int]:
        """(V, D) for the value of ``rel``: its terms scaled to the least
        common denominator D and summed."""
        terms = [
            (
                coeff,
                self._scaled_summed_walk(body)
                if isinstance(body, Walk)
                else self.scaled_path(body),
            )
            for coeff, body in rel.terms
        ]
        denominator = math.lcm(*(d for _, (_, d) in terms))
        out: Element = {}
        for coeff, (value, d) in terms:
            out = vec_add(out, value, coeff * (denominator // d))
        return out, denominator

    def evaluate_relation(self, rel: Relation) -> Element:
        return _exact(*self.scaled_relation(rel))


def ordinary_model(graph: BrauerGraph) -> GraphAlgebraModel:
    table, keys, index_of = bga_table_with_keys(graph)
    vertex_position = {
        (name, None): p for p, (name, _) in enumerate(table.idempotents)
    }
    arrow_element = {a: {index_of[("w", a.h, 1)]: ONE} for a in quiver(graph).arrows}
    return GraphAlgebraModel(graph, table, vertex_position, arrow_element)


def sheet_shift_action(
    covered: CoveredGraph, keys: list[BasisKey], index_of: dict[BasisKey, int]
) -> GroupActionTable:
    """The sheet shift h_i -> h_{i+1} on the covering algebra's path basis."""
    shift = {h: covered.shift_half(h) for h in covered.total.half_edges}
    # Half-edge and edge labels can coincide, so edges get their own map.
    edge_labels = covered.total.edge_labels
    shift_edge = {edge_labels[h]: edge_labels[t] for h, t in shift.items()}
    images = tuple(
        index_of["w", shift[k[1]], k[2]]
        if k[0] == "w"
        else index_of[k[0], shift_edge[k[1]]]
        for k in keys
    )
    return GroupActionTable(covered.group_order, images)


def truncation_idempotents(
    covered: CoveredGraph, table: AlgebraTable
) -> list[tuple[QVertex, Element]]:
    """The sheet-zero idempotents, split in two at each skew leg.

    ``table`` is an algebra of the covering whose idempotents are labelled
    by covering edge names; the elements live in its skew group algebra,
    where basis index ``table.dim + b`` is b (x) g.
    """
    idempotent_at = dict(table.idempotents)
    out: list[tuple[QVertex, Element]] = []
    for v in quiver(covered.base.graph).vertices:
        name, copy = v
        e_index = idempotent_at[covered.sheet_edge(name, 0)]
        if copy is None:
            out.append((v, {e_index: ONE}))
        else:
            half = Fraction(1, 2)
            sign = half if copy == 0 else -half
            out.append((v, {e_index: half, table.dim + e_index: sign}))
    return out


def truncation_model(covered: CoveredGraph) -> GraphAlgebraModel:
    """Model of the base algebra as the compressed skew group algebra of the cover."""
    base = covered.base.graph
    grading = covered.base.grading
    n = covered.group_order
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    chosen = truncation_idempotents(covered, bd)
    trunc = orbit_truncation(bd, action, [(str(v), elem) for v, elem in chosen])
    table = trunc.table
    vertex_position = {v: p for p, (v, _) in enumerate(chosen)}

    # The arrow at h is the covering arrow of h on sheet -deg(h), times g^sheet;
    # each quiver arrow at h is one (target, source) corner of its compression.
    arrow_element: dict[Arrow, Element] = {}
    for h, arrows in itertools.groupby(quiver(base).arrows, key=lambda a: a.h):
        sheet = (-grading(h)) % n
        w_index = index_of[("w", covered.labels[h][sheet], 1)]
        lifted = trunc.compress({sheet * bd.dim + w_index: ONE})
        for a in arrows:
            corner = table.corner(
                lifted, vertex_position[a.target], vertex_position[a.source]
            )
            if corner:
                arrow_element[a] = corner

    twist: Element | None = None
    if base.is_skew:
        lift = {bd.dim + index: ONE for _, index in bd.idempotents}
        twist = trunc.compress(lift)

    return GraphAlgebraModel(
        base, table, vertex_position, arrow_element, twist, grading
    )


def skew_model(graph: BrauerGraph, grading: Grading | None = None) -> GraphAlgebraModel:
    if grading is None:
        grading = zero_grading(graph)
    return truncation_model(cover(GradedGraph(graph, grading)))


def model_for(graph: BrauerGraph, grading: Grading | None = None) -> GraphAlgebraModel:
    """The skew model under ``grading``, or the ordinary model carrying it."""
    if graph.is_skew:
        return skew_model(graph, grading)
    if grading is not None:
        check_grading(graph, grading)
    model = ordinary_model(graph)
    model.grading = grading
    return model


def _ordinary_edge_cartan(graph: BrauerGraph) -> tuple[list[str], list[list[int]]]:
    """The Cartan matrix of an ordinary graph's algebra, counted.

    C = sum over the sigma-orbits v of m(v) a_v a_v^T, where a_v(i) is the
    number of half-edges of edge i at v: the basis walks ("w", h, t) of
    ``bga_table_with_keys`` around v from edge j to edge i number
    m a_v(i) a_v(j), less one on the diagonal per half-edge of i at v (its
    walk of length zero).  An edge has two half-edges, and the idempotent
    and the socle element make up those two (a truncated vertex has no
    walks, and m a_v^2 - a_v = 0 there).
    """
    edges = sorted(graph.edges_by_label)
    index = {name: k for k, name in enumerate(edges)}
    out = [[0] * len(edges) for _ in edges]
    labels = graph.edge_labels
    for orbit in graph.sigma_orbits:
        m = graph.multiplicity[orbit[0]]
        counts: dict[int, int] = {}
        for h in orbit:
            k = index[labels[h]]
            counts[k] = counts.get(k, 0) + 1
        for i, a in counts.items():
            row = out[i]
            for j, b in counts.items():
                row[j] += m * a * b
    return edges, out


def _covering_edge_cartan(covered: CoveredGraph) -> tuple[list[str], list[list[int]]]:
    """The edge Cartan matrix of the compressed algebra of a covering:
    C(i, j) = sum over sheets k of C_cover(sheet_edge(i, 0), sheet_edge(j, k)).

    A skew leg's covering edge lies on both sheets, so it is counted once
    per sheet: once for each of the leg's two quiver vertices.
    """
    cover_edges, cover_cartan = _ordinary_edge_cartan(covered.total)
    position = {name: p for p, name in enumerate(cover_edges)}
    edges = sorted(covered.base.graph.edges_by_label)
    sheets = [
        [position[covered.sheet_edge(name, k)] for name in edges]
        for k in range(covered.group_order)
    ]
    out = []
    for row in sheets[0]:
        cover_row = cover_cartan[row]
        out.append(
            [sum(cover_row[sheet[j]] for sheet in sheets) for j in range(len(edges))]
        )
    return edges, out


def graph_edge_cartan(
    graph: BrauerGraph, grading: Grading
) -> tuple[list[str], list[list[int]]]:
    """The edge Cartan matrix of ``model_for(graph, grading)``, counted from
    the graph (or, for a skew graph, from its covering under ``grading``)
    without building an algebra.  The test suite reads the same matrix off
    the model's table (its ``edge_cartan``) and holds the two equal.  An
    invalid grading raises as in ``model_for``."""
    if graph.is_skew:
        return _covering_edge_cartan(cover(GradedGraph(graph, grading)))
    check_grading(graph, grading)
    return _ordinary_edge_cartan(graph)


def skew_dimension_oracle(covered: CoveredGraph) -> int:
    """Corner-count formula for the dimension of the compressed algebra.

    Sums, over ordered pairs of base edges, the dimensions of the covering
    algebra corners from the sheet-zero idempotent to the idempotents of
    every sheet: the sum of the matrix that ``graph_edge_cartan`` counts,
    with no table built.
    """
    return sum(map(sum, _covering_edge_cartan(covered)[1]))


class MatchReport(NamedTuple):
    ok: bool
    problems: list[str]
    model_dim: int
    expected_dim: int


def _common_value(
    model: GraphAlgebraModel, paths: tuple[Path, ...]
) -> tuple[Element, int] | None:
    """The (V, D) value all ``paths`` share in the model, or None when two
    differ; KeyError names a missing arrow."""
    first = model.scaled_path(paths[0])
    for path in paths[1:]:
        if not _same(model.scaled_path(path), first):
            return None
    return first


def _family_vanishes(model: GraphAlgebraModel, family: PowerFamily) -> bool:
    """Whether every relation of the rule-(I) family is zero in the model.

    By the criterion of ``PowerFamily``: all route powers at h share one
    value v_h, all at the other end share v_o, and c_h v_h = c_o v_o.  That
    takes one evaluation per route, not one per pair of routes.  With
    v = u / d for the (u, d) of ``scaled_path``, the last test is
    c_h d_o u_h = c_o d_h u_o.  A missing arrow counts as a failure, for
    the pairwise check to name.
    """
    try:
        v_h = _common_value(model, family.powers_h)
        v_o = None if v_h is None else _common_value(model, family.powers_o)
    except KeyError:
        return False
    if v_o is None:
        return False
    (u_h, d_h), (u_o, d_o) = v_h, v_o
    c_h = family.c_h * d_o
    c_o = family.c_o * d_h
    return not vec_add(vec_scale(u_h, c_h), u_o, -c_o)


def _relation_problem(model: GraphAlgebraModel, rel: Relation) -> str | None:
    """The witness text of a relation that fails in the model, or None."""
    try:
        value = model.evaluate_relation(rel)
    except KeyError:
        value = None
    if value == {}:
        return None
    text = _render_terms(rel.terms, "a", quiver(model.graph).names)
    if value is None:
        return f"relation uses a missing arrow: {text}"
    return f"relation does not vanish: {text} = {model.table.render(value)}"


def _proved_problems(model: GraphAlgebraModel) -> list[str] | None:
    """The relation problems of ``presentation_problems``, with every
    relation indexed by routes proved from rule (V) and one route per quiver
    vertex; None when the proof does not go through.

    Two index-resolved walks along the same half-edges, with the same start
    and end copies, differ by swaps of two-arrow segments through doubled
    vertices, and rule (V) makes those segments equal.  So once every
    rule-(V) relation vanishes, all routes at (h, i) share one value v, by
    associativity, and the special cycles agree.  Then a rule-(I) family
    needs one route power per end (``_family_vanishes``), rule (II) one
    relation per first arrow (r^m followed by r_0 is r_0 v^m), and rule (IV)
    one per skew-leg copy.  Rule (III) is evaluated relation by relation;
    its problems are the only ones the check can have.
    """
    graph = model.graph
    if any(_relation_problem(model, rel) for rel in _two_route_relations(graph)):
        return None

    routes_at = functools.cache(functools.partial(_first_routes, graph))

    def route_at(h: str, i: int | None = None) -> list[Path]:
        return routes_at(h, i)[:1]

    families = _power_families(graph, route_at)
    if not all(_family_vanishes(model, f) for f in families):
        return None
    proved = itertools.chain(
        _overrun_relations(graph, routes_at), _shifted_relations(graph, route_at)
    )
    if any(_relation_problem(model, rel) for rel in proved):
        return None
    return [
        problem
        for rel in _crossing_relations(graph)
        if (problem := _relation_problem(model, rel)) is not None
    ]


def _listed_problems(model: GraphAlgebraModel) -> list[str]:
    """The relation and special-cycle problems, every route listed: each
    failing relation of ``relations`` in its order, a failing rule-(I)
    family expanded to its pairs, then each vertex whose special cycles
    differ.

    The pairs of a failing family share their route powers, which the model
    multiplies out once (``GraphAlgebraModel.scaled_path``).  A special
    cycle past ``MAX_WALK_PATHS`` routes raises ValueError before any is."""
    graph = model.graph
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        routes = walk_path_count(graph, h, len(graph.sigma_orbit_of(h)))
        if routes > MAX_WALK_PATHS:
            raise ValueError(
                f"special cycles at {h} have {routes} routes, over the cap of "
                f"{MAX_WALK_PATHS}"
            )
    problems: list[str] = []
    cycles_at = _special_cycle_table(graph)
    failing: list[Relation] = []
    for family in _power_families(graph, cycles_at):
        if not _family_vanishes(model, family):
            failing.extend(family.pairs())
    for rel in itertools.chain(failing, _other_relations(graph, cycles_at)):
        problem = _relation_problem(model, rel)
        if problem is not None:
            problems.append(problem)
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        for i in vertex_indices(graph, h):
            try:
                first, *rest = [model.scaled_path(r) for r in cycles_at(h, i)]
            except KeyError:
                problems.append(f"special cycles at ({h}, {i}) use a missing arrow")
                continue
            other = next((v for v in rest if not _same(v, first)), None)
            if other is not None:
                problems.append(
                    f"special cycles at ({h}, {i}) differ in the model: "
                    f"{model.table.render(_exact(*first))} vs "
                    f"{model.table.render(_exact(*other))}"
                )
    return problems


def presentation_problems(model: GraphAlgebraModel) -> list[str]:
    """The problems of ``model`` against its graph's direct presentation.

    Checks that quiver vertices and arrows correspond, that every generating
    relation evaluates to zero in the model, and that all special cycles at a
    vertex agree there.

    The relations indexed by routes are proved, not listed: any two routes
    along the same half-edges, with the same start and end copies, differ by
    swaps of two-arrow segments through doubled vertices, which rule (V)
    makes equal.  So once every rule-(V) relation vanishes, the routes at a
    quiver vertex share one value, and one route per vertex settles the
    special cycles and rules (I), (II) and (IV) (see ``_proved_problems``).
    Rule (III) is evaluated relation by relation.  A 2^k-route vertex, for k
    skew legs on its sigma-orbit, thus costs one route, or two for rule (II).

    Only on the witness path are the routes listed: when that proof fails,
    an arrow is missing or the quiver does not match the model, every
    relation and every route is evaluated, and the problems name each
    failing relation and vertex in the order of ``relations``.  A rule-(I)
    family is then still checked once per route and expanded to its pairs
    only when it fails (see ``PowerFamily``); the pairs share their route
    powers, which the model multiplies out once each.  Only this listing is
    capped, at ``MAX_WALK_PATHS`` routes per special cycle.
    """
    problems: list[str] = []
    q = quiver(model.graph)
    if set(q.vertices) != set(model.vertex_position):
        problems.append("quiver vertices do not match the model idempotents")
    if set(q.arrows) != set(model.arrow_element):
        problems.append("quiver arrows do not match the model arrows")
    else:
        for a, elem in model.arrow_element.items():
            if not elem:
                problems.append(f"arrow {render_arrow(a)} maps to zero in the model")
    proved = None if problems else _proved_problems(model)
    return problems + (_listed_problems(model) if proved is None else proved)


def presentations_match(graph: BrauerGraph, covered: CoveredGraph) -> MatchReport:
    """The ``presentation_problems`` of the compressed covering model, and
    its dimension against the independent count."""
    try:
        model = truncation_model(covered)
    except (ValueError, KeyError) as exc:
        return MatchReport(False, [f"model construction failed: {exc}"], -1, -1)
    problems = presentation_problems(model)
    if graph.is_skew:
        expected_dim = skew_dimension_oracle(covered)
    else:
        expected_dim = bga_table_with_keys(graph)[0].dim
    if model.table.dim != expected_dim:
        problems.append(
            f"model dimension {model.table.dim} differs from expected {expected_dim}"
        )
    return MatchReport(not problems, problems, model.table.dim, expected_dim)


# ---------------------------------------------------------------------------
# Monomial quotients and admissible cut models
# ---------------------------------------------------------------------------


def monomial_table(
    p: Presentation, cap: int = 20_000
) -> tuple[AlgebraTable, list[Path], dict[Path, int]]:
    """Table of a quotient by monomial relations.

    The basis is the vertex idempotents followed by every path avoiding the
    forbidden subwords; products are concatenation or zero, so the table is
    exact by construction.
    """
    forbidden: list[Path] = []
    for rel in p.relations:
        if len(rel.terms) != 1:
            raise ValueError("monomial tables need single-term relations")
        forbidden.append(rel.terms[0][1])

    def clean(path: Path) -> bool:
        return find_subword(path, forbidden) is None

    vertices = list(p.quiver.vertices)
    vertex_pos = {v: k for k, v in enumerate(vertices)}
    paths: list[Path] = []
    for layer in normal_paths(sorted(p.quiver.arrows), clean):
        paths.extend(layer)
        if len(paths) > cap:
            raise RuntimeError("path enumeration exceeded the cap; not finite?")

    labels = ["e[" + render_vertex(v) + "]" for v in vertices]
    src = [k for k in range(len(vertices))]
    tgt = [k for k in range(len(vertices))]
    index_of: dict[Path, int] = {}
    for path in paths:
        index_of[path] = len(labels)
        labels.append("p[" + " ".join(a.h for a in path) + "]")
        src.append(vertex_pos[path[0].source])
        tgt.append(vertex_pos[path[-1].target])
    n_vertices = len(vertices)

    def product(i: int, j: int) -> Element:
        if i < n_vertices:
            return {j: ONE}
        if j < n_vertices:
            return {i: ONE}
        combined = paths[j - n_vertices] + paths[i - n_vertices]
        if clean(combined):
            return {index_of[combined]: ONE}
        return {}

    idempotents = tuple((render_vertex(v), k) for k, v in enumerate(vertices))
    table = AlgebraTable(labels, src, tgt, idempotents, product)
    table.generators = tuple(index_of[path] for path in paths if len(path) == 1)
    return table, paths, index_of


def cut_cover_table(
    covered: CoveredGraph, delta: frozenset[str]
) -> tuple[AlgebraTable, GroupActionTable, Presentation]:
    """Gentle cut of the covering algebra, with the sheet-shift action."""
    cut_presentation = admissible_cut(covered.total, lift_subset(covered, delta))
    table, paths, index_of = monomial_table(cut_presentation)

    def shift_vertex(v: QVertex) -> QVertex:
        return (covered.shift_edge(v[0]), v[1])

    def shift_arrow(a: Arrow) -> Arrow:
        return Arrow(
            covered.shift_half(a.h), shift_vertex(a.source), shift_vertex(a.target)
        )

    vertex_pos = {v: k for k, v in enumerate(cut_presentation.quiver.vertices)}
    images = [vertex_pos[shift_vertex(v)] for v in cut_presentation.quiver.vertices]
    for path in paths:
        shifted = tuple(shift_arrow(a) for a in path)
        images.append(index_of[shifted])
    return table, GroupActionTable(covered.group_order, tuple(images)), cut_presentation


def cut_model_table(graph: BrauerGraph, delta: frozenset[str]) -> AlgebraTable:
    """Model of the cut algebra via the covering (works for skew graphs too)."""
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    table, action, _ = cut_cover_table(covered, frozenset(delta))
    chosen = [
        (render_vertex(v), elem) for v, elem in truncation_idempotents(covered, table)
    ]
    return orbit_truncation(table, action, chosen).table

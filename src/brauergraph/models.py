"""Algebra models attached to graphs.

Ordinary graphs get their algebra table directly from the normal form
basis.  Skew graph algebras are modelled exclusively through the covering:
the compression f (A#G) f of the skew group algebra of the covering's
algebra A, for the sheet shift g, by the sheet-zero idempotents f.  It is
built on its G-orbit basis straight from the covering's basis keys
(``algebra.orbit_truncation``), never building the skew group table; the
generic route through ``algebra.skew_group_table`` and the corner sweep
``truncate`` of the test suite is its test oracle.  The same model
validates the direct presentations, checking rule (I) once per route.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import (
    AlgebraTable,
    BasisKey,
    Element,
    GroupActionTable,
    ONE,
    bga_table_with_keys,
    orbit_truncation,
)
from .core import BrauerGraph, GradedGraph, Grading, check_grading, edge_name, zero_grading
from .covering import CoveredGraph, cover, sheet_label
from .linalg import vec_add, vec_scale
from .presentation import (
    MAX_WALK_PATHS,
    Arrow,
    Path,
    PowerFamily,
    Presentation,
    QVertex,
    Relation,
    Walk,
    _other_relations,
    _power_families,
    _special_cycle_table,
    admissible_cut,
    find_subword,
    induces_arrow,
    normal_paths,
    quiver,
    render_arrow,
    render_relation,
    render_vertex,
    vertex_indices,
    walk_path_count,
)


# A node of the prefix trie: the element of its prefix and its children.
# A child is keyed by its arrow, or by the half-edge h for a step of a summed
# walk, whose element is the full arrow at h.
_Node = tuple[Element, dict["Arrow | str", "_Node"]]


@dataclass
class GraphAlgebraModel:
    """A table together with the quiver dictionary needed to evaluate paths.

    Paths and walks are evaluated through one trie of prefixes, so a prefix
    shared by many relation terms is multiplied once per model.  The trie
    assumes ``table`` and ``arrow_element`` are not changed after the first
    evaluation; a model built from new ones (``dataclasses.replace``) starts
    with an empty trie.  Evaluations return the trie's own elements, which
    callers must not modify.
    """

    graph: BrauerGraph
    table: AlgebraTable
    vertex_position: dict[QVertex, int]
    arrow_element: dict[Arrow, Element]
    twist: Element | None = None
    grading: Grading | None = None
    _prefixes: dict[Arrow | str, _Node] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _full_arrows: dict[str, Element] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def full_arrow(self, h: str) -> Element:
        """The sum of the quiver arrows at h."""
        out = self._full_arrows.get(h)
        if out is None:
            out = {}
            for a, elem in self.arrow_element.items():
                if a.h == h:
                    out = vec_add(out, elem)
            self._full_arrows[h] = out
        return out

    def _product(
        self, steps: Iterable[Arrow | str], element: Callable[..., Element]
    ) -> Element:
        """Product of the step elements, first step rightmost, read through
        the prefix trie; ``element`` is called only for a new prefix.  A zero
        prefix makes every extension zero without a multiplication."""
        children = self._prefixes
        value: Element | None = None
        for key in steps:
            node = children.get(key)
            if node is None:
                elem = element(key)
                if value is None:
                    product = elem
                elif value:
                    product = self.table.mul(elem, value)
                else:
                    product = value
                node = children[key] = (product, {})
            value, children = node
        return value

    def walk_element(self, h: str, length: int) -> Element:
        """Product of the full arrows along h, sigma h, ..., sigma^{length-1} h."""
        if length < 1:
            raise ValueError("walks have at least one arrow")
        orbit = self.graph.sigma_orbit_of(h)
        steps = [orbit[k % len(orbit)] for k in range(length)]
        return self._product(steps, self.full_arrow)

    def evaluate_walk(self, walk: Walk) -> Element:
        """The summed walk: the (end, start) corner of its walk element."""
        graph = self.graph
        last = graph.orientation.power(walk.length, walk.h)
        s = self.vertex_position[(edge_name(graph, walk.h), walk.start)]
        t = self.vertex_position[(edge_name(graph, last), walk.end)]
        return self.table.corner(self.walk_element(walk.h, walk.length), t, s)

    def edge_positions(self, h: str) -> list[int]:
        name = edge_name(self.graph, h)
        return [
            self.vertex_position[(name, i)] for i in vertex_indices(self.graph, h)
        ]

    def evaluate_path(self, path: Path) -> Element:
        """Product of the arrows of ``path``; KeyError names a missing arrow."""
        return self._product(path, self.arrow_element.__getitem__)

    def evaluate_relation(self, rel: Relation) -> Element:
        out: Element = {}
        for coeff, body in rel.terms:
            if isinstance(body, Walk):
                value = self.evaluate_walk(body)
            else:
                value = self.evaluate_path(body)
            out = vec_add(out, value, coeff)
        return out


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

    def shift_key(key: BasisKey) -> BasisKey:
        if key[0] == "w":
            return ("w", covered.shift_half(key[1]), key[2])
        return (key[0], covered.shift_edge(key[1]))

    images = tuple(index_of[shift_key(k)] for k in keys)
    return GroupActionTable(covered.group_order, tuple(ONE for _ in keys), images)


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
        w_index = index_of[("w", sheet_label(h, sheet), 1)]
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


def edge_cartan(model: GraphAlgebraModel) -> tuple[list[str], list[list[int]]]:
    """Cartan matrix aggregated to edges (summing over doubled vertices)."""
    vertex_cartan = model.table.cartan()
    edges = sorted(model.graph.edges_by_label)
    index = {name: k for k, name in enumerate(edges)}
    out = [[0] * len(edges) for _ in edges]
    positions = list(model.vertex_position.items())
    for (name_i, _), pi in positions:
        for (name_j, _), pj in positions:
            out[index[name_i]][index[name_j]] += vertex_cartan[pi][pj]
    return edges, out


def skew_dimension_oracle(covered: CoveredGraph) -> int:
    """Corner-count formula for the dimension of the compressed algebra.

    Sums, over ordered pairs of base edges, the dimensions of the covering
    algebra corners from the sheet-zero idempotent to the sheet-zero and
    sheet-one idempotents.
    """
    base = covered.base.graph
    bd, _, _ = bga_table_with_keys(covered.total)
    cartan = bd.cartan()
    position = {name: p for p, (name, _) in enumerate(bd.idempotents)}

    def cover_edge_position(label: str, sheet: int) -> int:
        return position[covered.sheet_edge(label, sheet)]

    dims = 0
    for e1 in base.edges_by_label:
        for e2 in base.edges_by_label:
            row = cover_edge_position(e1, 0)
            dims += cartan[row][cover_edge_position(e2, 0)]
            dims += cartan[row][cover_edge_position(e2, 1 % covered.group_order)]
    return dims


@dataclass
class MatchReport:
    ok: bool
    problems: list[str]
    model_dim: int
    expected_dim: int


def _common_value(model: GraphAlgebraModel, paths: tuple[Path, ...]) -> Element | None:
    """The value all ``paths`` share in the model, or None when two differ;
    KeyError names a missing arrow."""
    first = model.evaluate_path(paths[0])
    for path in paths[1:]:
        if model.evaluate_path(path) != first:
            return None
    return first


def _family_vanishes(model: GraphAlgebraModel, family: PowerFamily) -> bool:
    """Whether every relation of the rule-(I) family is zero in the model.

    By the criterion of ``PowerFamily``: all route powers at h share one
    value v_h, all at the other end share v_o, and c_h v_h = c_o v_o.  That
    takes one evaluation per route, not one per pair of routes.  A missing
    arrow counts as a failure, for the pairwise check to name.
    """
    try:
        v_h = _common_value(model, family.powers_h)
        v_o = None if v_h is None else _common_value(model, family.powers_o)
    except KeyError:
        return False
    return v_o is not None and not vec_add(vec_scale(v_h, family.c_h), v_o, -family.c_o)


def _relation_problem(model: GraphAlgebraModel, rel: Relation) -> str | None:
    """The witness text of a relation that fails in the model, or None."""
    try:
        value = model.evaluate_relation(rel)
    except KeyError:
        return f"relation uses a missing arrow: {render_relation(rel)}"
    if value:
        return (
            f"relation does not vanish: {render_relation(rel)} "
            f"= {model.table.render(value)}"
        )
    return None


def presentations_match(graph: BrauerGraph, covered: CoveredGraph) -> MatchReport:
    """Verify the direct presentation against the compressed covering model.

    Checks that quiver vertices and arrows correspond, that every generating
    relation evaluates to zero in the model, that all special cycles at a
    vertex agree there, and that the dimensions match the independent count.

    Rule (I) is checked one family per edge, with each route power
    evaluated once (see ``PowerFamily``), so the check never lists the
    pairs of ``relations``.  Only a family that fails is expanded to its
    pairs; the problems name each failing relation as the pairwise check
    would, in the order of ``relations``.

    The routes themselves are listed, 2^k of them at a vertex whose
    sigma-orbit carries k skew legs.  A special cycle of more than
    ``MAX_WALK_PATHS`` routes raises ValueError naming its half-edge and
    route count, before the model is built or any route is listed.
    """
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
    try:
        model = truncation_model(covered)
    except (ValueError, KeyError) as exc:
        return MatchReport(False, [f"model construction failed: {exc}"], -1, -1)
    q = quiver(graph)
    if set(q.vertices) != set(model.vertex_position):
        problems.append("quiver vertices do not match the model idempotents")
    if set(q.arrows) != set(model.arrow_element):
        problems.append("quiver arrows do not match the model arrows")
    else:
        for a, elem in model.arrow_element.items():
            if not elem:
                problems.append(f"arrow {render_arrow(a)} maps to zero in the model")
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
                first, *rest = [model.evaluate_path(r) for r in cycles_at(h, i)]
            except KeyError:
                problems.append(f"special cycles at ({h}, {i}) use a missing arrow")
                continue
            other = next((v for v in rest if v != first), None)
            if other is not None:
                problems.append(
                    f"special cycles at ({h}, {i}) differ in the model: "
                    f"{model.table.render(first)} vs {model.table.render(other)}"
                )
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
    total = covered.total
    n = covered.group_order
    delta_d = frozenset(
        sheet_label(h, i) for h in delta for i in range(n)
    )
    cut_presentation = admissible_cut(total, delta_d)
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
    action = GroupActionTable(
        n, tuple(ONE for _ in range(table.dim)), tuple(images)
    )
    return table, action, cut_presentation


def cut_model_table(graph: BrauerGraph, delta: frozenset[str]) -> AlgebraTable:
    """Model of the cut algebra via the covering (works for skew graphs too)."""
    covered = cover(GradedGraph(graph, zero_grading(graph)))
    table, action, _ = cut_cover_table(covered, frozenset(delta))
    chosen = [
        (render_vertex(v), elem) for v, elem in truncation_idempotents(covered, table)
    ]
    return orbit_truncation(table, action, chosen).table

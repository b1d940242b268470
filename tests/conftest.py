from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import pytest

from brauergraph import covering
from brauergraph.algebra import ONE, AlgebraTable, Element, bga_table_with_keys, integral_form
from brauergraph.core import BrauerGraph, GradedGraph, Grading, zero_grading
from brauergraph.moves import (
    Sector,
    escape_index,
    maximal_sectors,
    move_sector,
    move_sector_underlying,
    sectors,
)
from brauergraph.linalg import RationalSpan
from brauergraph.permutations import Permutation
from brauergraph.presentation import (
    induces_arrow,
    presentation,
    quiver,
    relations,
    render_arrow,
    render_relation,
    render_relations,
    special_cycles,
    vertex_indices,
)


def build_graph(names, pairing_cycles, orientation_cycles, multiplicities=None):
    pairing = Permutation.from_cycles(names, pairing_cycles)
    orientation = Permutation.from_cycles(names, orientation_cycles)
    m = {h: 1 for h in names}
    m.update(multiplicities or {})
    for orbit in orientation.orbits():
        value = max(m[h] for h in orbit)
        m.update({h: value for h in orbit})
    return BrauerGraph(frozenset(names), pairing, orientation, m)


@pytest.fixture
def ex1() -> BrauerGraph:
    """Four edges around one central vertex, multiplicity two on three of them."""
    names = ["1+", "1-", "2+", "2-", "3+", "3-", "4+", "4-"]
    return build_graph(
        names,
        [("1+", "1-"), ("2+", "2-"), ("3+", "3-"), ("4+", "4-")],
        [("1-", "4-", "3-", "2-"), ("2+", "3+")],
        {"1+": 2, "2+": 2},
    )


@pytest.fixture
def ex1_grading(ex1) -> Grading:
    return Grading(2, {h: 0 for h in ex1.half_edges} | {"1+": 1, "3+": 1})


@pytest.fixture
def ex1_graded(ex1, ex1_grading) -> GradedGraph:
    return GradedGraph(ex1, ex1_grading)


@pytest.fixture
def ex1_subset(ex1) -> frozenset[str]:
    return frozenset(["1+", "1-", "2+", "2-"])


@pytest.fixture
def ex2() -> BrauerGraph:
    """Skew example: two skew legs, multiplicities 2 and 3."""
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    return build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
        {"4-": 3, "1-": 2},
    )


@pytest.fixture
def ex2_graded(ex2) -> GradedGraph:
    return GradedGraph(ex2, zero_grading(ex2))


@pytest.fixture
def ex2_subset(ex2) -> frozenset[str]:
    return frozenset(["1+", "1-", "4+", "4-"])


@pytest.fixture
def ex2_multiplicity_one() -> BrauerGraph:
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    return build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
    )


def skew_leg_loop(legs: int, multiplicity: int = 1) -> BrauerGraph:
    """One loop edge (a b) whose vertex also carries ``legs`` skew legs."""
    names = ["a", "b"] + [str(k) for k in range(1, legs + 1)]
    return build_graph(
        names, [("a", "b")], [tuple(names)], dict.fromkeys(names, multiplicity)
    )


def swapping_sigma_images(monkeypatch, a, b):
    """Make the move of the covering swap the sigma-images of the covering
    labels ``a`` and ``b``: the two sides then differ at those two only."""
    move_set_underlying = covering.move_set_underlying

    def swapped(graph, subset):
        moved = move_set_underlying(graph, subset)
        sigma = moved.orientation.mapping()
        sigma[a], sigma[b] = sigma[b], sigma[a]
        return replace(moved, orientation=Permutation(sigma))

    monkeypatch.setattr(covering, "move_set_underlying", swapped)


@pytest.fixture
def loop_graph() -> BrauerGraph:
    """One edge whose ends are orientation-fixed, multiplicity 2 on one side."""
    return build_graph(["a", "b"], [("a", "b")], [], {"a": 2})


def reference_escape_index(graph, subset, h):
    """Least r with sigma^{r+1} h outside ``subset``, over the rotated orbit."""
    orbit = graph.sigma_orbit_of(h)
    for r, x in enumerate(orbit[1:] + orbit[:1]):
        if x not in subset:
            return r
    return None


def reference_sectors(graph, subset):
    """Every (h, escape index of h) for h in ``subset``, one orbit copy per h."""
    out = set()
    for h in subset:
        r = reference_escape_index(graph, subset, h)
        if r is not None:
            out.add(Sector(h, r))
    return out


def reference_maximal_sectors(graph, subset):
    """The sectors whose first half-edge follows one outside ``subset``: the
    oracle of the forward walk in ``maximal_sectors``."""
    inv = graph.orientation.inverse()
    return {s for s in reference_sectors(graph, subset) if inv(s.h) not in subset}


def assert_sectors_match_reference(graph, subset):
    assert sectors(graph, subset) == reference_sectors(graph, subset)
    assert maximal_sectors(graph, subset) == reference_maximal_sectors(graph, subset)
    for h in graph.half_edges:
        expected = reference_escape_index(graph, subset, h)
        assert escape_index(graph, subset, h) == expected


def sector_order(graph, subset):
    """The maximal sectors of ``subset`` in the order ``move_set`` uses: by
    the least name on their sigma-orbit, then by h."""
    return sorted(
        maximal_sectors(graph, subset),
        key=lambda s: (min(graph.sigma_orbit_of(s.h)), s.h),
    )


def sector_fold(graded, subset):
    """The public ``move_sector`` applied to each maximal sector of
    ``subset`` in turn, in the order ``move_set`` uses: the oracle of the
    one-pass composite move."""
    for sector in sector_order(graded.graph, subset):
        graded = move_sector(graded, sector, subset)
    return graded


def sector_fold_underlying(graph, subset):
    """``sector_fold`` through ``move_sector_underlying``."""
    for sector in sector_order(graph, subset):
        graph = move_sector_underlying(graph, sector, subset)
    return graph


def assert_families_render_pair_by_pair(graph):
    """A presentation's rendering, rule (I) read per route power, equals
    each relation of ``relations`` rendered on its own, and the
    presentation's expanded relations equal them."""
    listed = relations(graph)
    p = presentation(graph)
    assert render_relations(p) == [render_relation(rel, "a", graph) for rel in listed]
    assert p.relations == tuple(listed)


def pairwise_match_problems(model):
    """The problems ``models.presentation_problems`` reports for ``model``,
    found by evaluating every relation of ``relations`` one pair of routes
    at a time.

    This is the check before rule (I) was read per route; it stays as the
    oracle of that reading.
    """
    graph = model.graph
    problems = []
    q = quiver(graph)
    if set(q.vertices) != set(model.vertex_position):
        problems.append("quiver vertices do not match the model idempotents")
    if set(q.arrows) != set(model.arrow_element):
        problems.append("quiver arrows do not match the model arrows")
    else:
        for a, elem in model.arrow_element.items():
            if not elem:
                problems.append(f"arrow {render_arrow(a)} maps to zero in the model")
    for rel in relations(graph):
        try:
            value = model.evaluate_relation(rel)
        except KeyError:
            problems.append(f"relation uses a missing arrow: {render_relation(rel)}")
            continue
        if value:
            problems.append(
                f"relation does not vanish: {render_relation(rel)} "
                f"= {model.table.render(value)}"
            )
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        for i in vertex_indices(graph, h):
            try:
                first, *rest = [
                    model.evaluate_path(route) for route in special_cycles(graph, h, i)
                ]
            except KeyError:
                problems.append(f"special cycles at ({h}, {i}) use a missing arrow")
                continue
            other = next((v for v in rest if v != first), None)
            if other is not None:
                problems.append(
                    f"special cycles at ({h}, {i}) differ in the model: "
                    f"{model.table.render(first)} vs {model.table.render(other)}"
                )
    return problems


def left_nested(model, steps):
    """(V, D) of the product of the step elements, first step rightmost,
    multiplied one step at a time from the first, with no turn power: the
    value ``GraphAlgebraModel`` must give.  A step is an arrow, or a half-edge
    standing for the full arrow there."""
    value, denominator = None, 1
    for key in steps:
        x = model.full_arrow(key) if isinstance(key, str) else model.arrow_element[key]
        elem, d = integral_form(x)
        value = elem if value is None else model.table.mul(elem, value)
        denominator *= d
    return value, denominator


def table_corner_sum(covered) -> int:
    """The dimension of the compressed algebra of a two-sheet covering, read
    off the covering algebra's table: over ordered pairs of base edges, the
    corners from the sheet-zero idempotent to the sheet-zero and sheet-one
    idempotents.

    This is the table route that ``models.skew_dimension_oracle`` took
    before it counted.  It reads sheets 0 and 1 only, so it is the
    dimension on two-sheet coverings (every skew graph's) and an undercount
    on more sheets.
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


# ---------------------------------------------------------------------------
# Idempotent truncation: the generic corner algebra f A f, the oracle of the
# orbit basis that ``algebra.orbit_truncation`` builds
# ---------------------------------------------------------------------------


def mul_compressions(
    skew: AlgebraTable, chosen: Sequence[tuple[str, Element]], x: Element
) -> list[tuple[tuple[int, int], Element]]:
    """The nonzero F_p x F_q by corner (p, q) ascending, as products
    ``mul(mul(F_p, x), F_q)`` in the skew group table ``skew``, F = d f being
    the integer form of a chosen idempotent.

    This is how ``algebra.orbit_truncation`` compressed before it read the
    compressions off the action and the corners; it stays as the oracle of
    ``OrbitTruncation.compressions``.
    """
    forms = [integral_form(f)[0] for _, f in chosen]
    out = []
    for p, fp in enumerate(forms):
        left = skew.mul(fp, x)
        if not left:
            continue
        for q, fq in enumerate(forms):
            form = skew.mul(left, fq)
            if form:
                out.append(((p, q), form))
    return out


@dataclass
class Truncation:
    table: AlgebraTable
    ambient: AlgebraTable
    chosen: tuple[tuple[str, Element], ...]
    _spans: dict[tuple[int, int], RationalSpan]
    _offsets: dict[tuple[int, int], list[int]]

    def express(self, x: Element) -> Element:
        """Coordinates of an f-compressed ambient element in the corner basis."""
        out: Element = {}
        lefts: dict[int, Element] = {}
        for (ti, si), span in self._spans.items():
            if ti not in lefts:
                lefts[ti] = self.ambient.mul(self.chosen[ti][1], x)
            if not lefts[ti]:
                continue
            proj = self.ambient.mul(lefts[ti], self.chosen[si][1])
            if not proj:
                continue
            coords = span.express(proj)
            if coords is None:
                raise ValueError("element does not lie in the truncation")
            for local, c in coords.items():
                out[self._offsets[(ti, si)][local]] = c
        return {k: v for k, v in out.items() if v}


def truncate(
    table: AlgebraTable, chosen: Sequence[tuple[str, Element]]
) -> Truncation:
    """Corner algebra f A f for f the sum of the chosen orthogonal idempotents."""
    for label, x in chosen:
        if table.mul(x, x) != x:
            raise ValueError(f"chosen element {label!r} is not idempotent")
    for a, (la, xa) in enumerate(chosen):
        for b, (lb, xb) in enumerate(chosen):
            if a != b and table.mul(xa, xb):
                raise ValueError(f"chosen idempotents {la!r}, {lb!r} not orthogonal")

    spans: dict[tuple[int, int], RationalSpan] = {}
    offsets: dict[tuple[int, int], list[int]] = {}
    vectors: list[Element] = []
    labels: list[str] = []
    src: list[int] = []
    tgt: list[int] = []
    idempotents: list[tuple[str, int]] = []

    def admit(corner: tuple[int, int], vec: Element, label: str) -> None:
        span = spans.setdefault(corner, RationalSpan())
        if span.add(vec) is None:
            return
        offsets.setdefault(corner, []).append(len(vectors))
        vectors.append(vec)
        labels.append(label)
        tgt.append(corner[0])
        src.append(corner[1])

    for p, (label, x) in enumerate(chosen):
        idempotents.append((label, len(vectors)))
        admit((p, p), x, label)
    # f_p * b and left * f_q can only be nonzero on composable pairs, so the
    # sweep skips the products that ``mul`` would find empty.
    left_sources = [{table.src[i] for i in fp} for _, fp in chosen]
    right_targets = [{table.tgt[j] for j in fq} for _, fq in chosen]
    for b in range(table.dim):
        xb = {b: ONE}
        for p, (_, fp) in enumerate(chosen):
            if table.tgt[b] not in left_sources[p]:
                continue
            left = table.mul(fp, xb)
            if not left:
                continue
            sources = {table.src[k] for k in left}
            for q, (_, fq) in enumerate(chosen):
                if sources.isdisjoint(right_targets[q]):
                    continue
                vec = table.mul(left, fq)
                if vec:
                    admit((p, q), vec, f"t{len(vectors)}[{p}.{q}]")

    def product(i: int, j: int) -> Element:
        raw = table.mul(vectors[i], vectors[j])
        if not raw:
            return {}
        corner = (tgt[i], src[j])
        span = spans.get(corner)
        coords = span.express(raw) if span is not None else None
        if coords is None:
            raise ValueError("truncation is not multiplicatively closed")
        return {offsets[corner][local]: c for local, c in coords.items() if c}

    corner_table = AlgebraTable(labels, src, tgt, idempotents, product)
    return Truncation(
        table=corner_table,
        ambient=table,
        chosen=tuple(chosen),
        _spans=spans,
        _offsets=offsets,
    )


# Cartan determinants, a derived invariant that the acceptance criteria
# compare before and after a move.


def determinant(matrix: list[list[int]]) -> Fraction:
    """Determinant of a square integer matrix by fraction-free-ish elimination."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def cartan_determinant(table: AlgebraTable) -> int:
    return int(determinant([[int(x) for x in row] for row in table.cartan()]))


def with_negated_basis(table: AlgebraTable, negated: set[int]) -> AlgebraTable:
    """``table`` on its basis with each b in ``negated`` replaced by -b, an
    isomorphic algebra: a product changes sign once per negated factor and
    once per negated term.  A basis permutation that is an automorphism of
    ``table`` seldom is one from this table, which is how the tests seed a
    sign fault."""

    def sign(k: int) -> int:
        return -1 if k in negated else 1

    def product(i: int, j: int) -> Element:
        s = sign(i) * sign(j)
        return {k: s * sign(k) * c for k, c in table.pairwise(i, j).items()}

    out = AlgebraTable(table.labels, table.src, table.tgt, table.idempotents, product)
    out.generators = table.generators
    return out

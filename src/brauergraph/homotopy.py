"""Two-term complexes of projectives, left mutation and endomorphism algebras.

Complexes live in degrees -1 and 0.  A map of sums of indecomposable
projectives e_i A -> e_j A is a matrix of algebra elements in the corners
e_j A e_i acting by left multiplication; all homotopy-category computations
reduce to exact linear algebra over those coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraTable, Element, ONE
from .core import BrauerGraph, GradedGraph, edge_name
from .covering import default_grading
from .linalg import RationalSpan, solve_homogeneous
from .models import GraphAlgebraModel, edge_cartan, model_for
from .moves import _check_subset, move_set

Matrix = list[list[Element]]


@dataclass(frozen=True)
class ProjPresentation:
    """A complex (deg -1) -> (deg 0) of sums of idempotent projectives."""

    deg_minus1: tuple[int, ...]
    deg_0: tuple[int, ...]
    differential: tuple[tuple[tuple[tuple[int, int | Fraction], ...], ...], ...]

    def matrix(self) -> Matrix:
        return [
            [dict(entry) for entry in row] for row in self.differential
        ]


def _freeze_matrix(matrix: Matrix) -> tuple:
    return tuple(
        tuple(tuple(sorted(entry.items())) for entry in row) for row in matrix
    )


def make_complex(
    table: AlgebraTable,
    deg_minus1: tuple[int, ...],
    deg_0: tuple[int, ...],
    matrix: Matrix,
) -> ProjPresentation:
    for t, row in enumerate(matrix):
        for s, entry in enumerate(row):
            target = table.idempotent_element(deg_0[t])
            source = table.idempotent_element(deg_minus1[s])
            squeezed = table.mul(table.mul(target, entry), source)
            if squeezed != entry:
                raise ValueError("differential entry escapes its corner")
    return ProjPresentation(tuple(deg_minus1), tuple(deg_0), _freeze_matrix(matrix))


def stalk(table: AlgebraTable, positions: list[int]) -> ProjPresentation:
    return ProjPresentation((), tuple(positions), tuple(() for _ in positions))


def proj_hom(table: AlgebraTable, i: int, j: int) -> list[int]:
    """Basis of Hom(e_i A, e_j A): the corner e_j A e_i, acting on the left."""
    return table.corner_basis(j, i)


@dataclass(frozen=True)
class SideApproximation:
    half_edge: str
    r: int | None
    target_edge: str | None
    walk: tuple[str, ...]


@dataclass(frozen=True)
class ApproximationData:
    source_edge: str
    sides: tuple[SideApproximation, ...]


def approximation(
    graph: BrauerGraph, subset: frozenset[str], h: str
) -> ApproximationData:
    """Combinatorial left approximation data of the edge through ``h``.

    Per side: the escape index r, the target edge through sigma^{r+1} of the
    side, and the connecting walk; a side whose whole sigma-orbit lies in the
    subset approximates into the zero module.
    """
    subset = _check_subset(graph, subset)
    if h not in subset:
        raise ValueError(f"half-edge {h!r} is not in the moved subset")
    sides = []
    for side in dict.fromkeys((h, graph.pairing(h))):
        orbit = graph.sigma_orbit_of(side)
        if all(x in subset for x in orbit):
            sides.append(SideApproximation(side, None, None, ()))
            continue
        r = 0
        while orbit[(r + 1) % len(orbit)] in subset:
            r += 1
        walk = tuple(orbit[k % len(orbit)] for k in range(r + 1))
        target = edge_name(graph, orbit[(r + 1) % len(orbit)])
        sides.append(SideApproximation(side, r, target, walk))
    return ApproximationData(edge_name(graph, h), tuple(sides))


def mutation_object(
    model: GraphAlgebraModel, subset: frozenset[str]
) -> list[tuple[str, ProjPresentation]]:
    """The left mutation of the regular module over the unmoved projectives.

    One summand per edge: unmoved edges stay as stalks in degree 0, moved
    edges become the cone of their approximation, with the edge projective in
    degree -1.
    """
    graph = model.graph
    table = model.table
    subset = _check_subset(graph, subset)
    out: list[tuple[str, ProjPresentation]] = []
    for edge in sorted(graph.edges, key=lambda e: edge_name(graph, e[0])):
        h = edge[0]
        name = edge_name(graph, h)
        source_positions = model.edge_positions(h)
        if h not in subset:
            out.append((name, stalk(table, source_positions)))
            continue
        data = approximation(graph, subset, h)
        blocks: list[tuple[list[int], Element]] = []
        for side in data.sides:
            if side.target_edge is None:
                continue
            walk_elem = model.walk_element(side.half_edge, side.r + 1)
            target_positions = model.edge_positions(
                graph.orientation.power(side.r + 1, side.half_edge)
            )
            blocks.append((target_positions, walk_elem))
            if len(edge) == 1:
                # Skew leg: the other sheet's walk lands in a second copy,
                # twisted by the group generator.
                blocks.append(
                    (target_positions, table.mul(walk_elem, model.twist))
                )
        deg0: list[int] = []
        matrix: Matrix = []
        for positions, elem in blocks:
            for t in positions:
                deg0.append(t)
                row = []
                for s in source_positions:
                    target_idem = table.idempotent_element(t)
                    source_idem = table.idempotent_element(s)
                    row.append(table.mul(table.mul(target_idem, elem), source_idem))
                matrix.append(row)
        out.append(
            (name, make_complex(table, tuple(source_positions), tuple(deg0), matrix))
        )
    return out


# ---------------------------------------------------------------------------
# Hom spaces in the homotopy category
# ---------------------------------------------------------------------------


def _slots(
    table: AlgebraTable, sources: tuple[int, ...], targets: tuple[int, ...]
) -> list[tuple[int, int, int]]:
    """Unknown coordinates of a map (+ e_s A) -> (+ e_t A): (t, s, corner basis)."""
    out = []
    for t_idx, t in enumerate(targets):
        for s_idx, s in enumerate(sources):
            for b in table.corner_basis(t, s):
                out.append((t_idx, s_idx, b))
    return out


def _vector_from_matrix(matrix: Matrix, tag: str) -> dict:
    out = {}
    for t_idx, row in enumerate(matrix):
        for s_idx, entry in enumerate(row):
            for b, c in entry.items():
                if c:
                    out[(tag, t_idx, s_idx, b)] = c
    return out


def _chain_map_vector(f_m1: Matrix, f_0: Matrix) -> dict:
    """Coordinates of a chain map (f_{-1}, f_0), keyed (tag, t, s, basis)."""
    vec = _vector_from_matrix(f_m1, "m1")
    vec.update(_vector_from_matrix(f_0, "d0"))
    return vec


def _chain_map_from_vector(
    x: ProjPresentation, y: ProjPresentation, coords: dict
) -> tuple[Matrix, Matrix]:
    """The components (f_{-1}, f_0) of a chain map X -> Y from its coordinates."""
    f_m1: Matrix = [[dict() for _ in x.deg_minus1] for _ in y.deg_minus1]
    f_0: Matrix = [[dict() for _ in x.deg_0] for _ in y.deg_0]
    component = {"m1": f_m1, "d0": f_0}
    for (tag, t_idx, s_idx, b), value in coords.items():
        entry = component[tag][t_idx][s_idx]
        entry[b] = entry.get(b, 0) + value
    return f_m1, f_0


def compose(table: AlgebraTable, left: Matrix, right: Matrix) -> Matrix:
    """Matrix product: the right factor acts first."""
    if not left or not right:
        return [[{} for _ in (right[0] if right else [])] for _ in left]
    n_mid = len(right)
    out: Matrix = []
    for t in range(len(left)):
        row = []
        for s in range(len(right[0])):
            acc: Element = {}
            for k in range(n_mid):
                product = table.mul(left[t][k], right[k][s])
                for b, c in product.items():
                    new = acc.get(b, 0) + c
                    if new:
                        acc[b] = new
                    else:
                        del acc[b]
            row.append(acc)
        out.append(row)
    return out


def _chain_map_space(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation
) -> tuple[list[dict], list[dict]]:
    """Solution basis and homotopy boundaries for degree-0 chain maps."""
    slots_m1 = _slots(table, x.deg_minus1, y.deg_minus1)
    slots_0 = _slots(table, x.deg_0, y.deg_0)
    unknowns = [("m1",) + s for s in slots_m1] + [("d0",) + s for s in slots_0]
    dx = x.matrix()
    dy = y.matrix()
    rows: dict[tuple, dict] = {}

    def add_row_entry(eq_key, unknown, coeff):
        if not coeff:
            return
        row = rows.setdefault(eq_key, {})
        row[unknown] = row.get(unknown, 0) + coeff
        if not row[unknown]:
            del row[unknown]

    # f_0 . d_X - d_Y . f_{-1} = 0, an identity of maps X_{-1} -> Y_0.
    for t_idx, s_idx, b in slots_0:
        for s2 in range(len(x.deg_minus1)):
            product = table.mul({b: ONE}, dx[s_idx][s2])
            for coord, coeff in product.items():
                add_row_entry(
                    (t_idx, s2, coord), ("d0", t_idx, s_idx, b), coeff
                )
    for t_idx, s_idx, b in slots_m1:
        for t2 in range(len(y.deg_0)):
            product = table.mul(dy[t2][t_idx], {b: ONE})
            for coord, coeff in product.items():
                add_row_entry(
                    (t2, s_idx, coord), ("m1", t_idx, s_idx, b), -coeff
                )
    solutions = solve_homogeneous(list(rows.values()), unknowns)

    boundaries = []
    for t_idx, s_idx, b in _slots(table, x.deg_0, y.deg_minus1):
        h: Matrix = [
            [dict() for _ in x.deg_0] for _ in y.deg_minus1
        ]
        h[t_idx][s_idx] = {b: ONE}
        vec = _chain_map_vector(compose(table, h, dx), compose(table, dy, h))
        if vec:
            boundaries.append(vec)
    return solutions, boundaries


def _hom_classes(
    table: AlgebraTable,
    x: ProjPresentation,
    y: ProjPresentation,
    seed: tuple[dict, ...] = (),
) -> tuple[RationalSpan, int, list[tuple[Matrix, Matrix]]]:
    """Representatives of the degree-0 homotopy classes X -> Y.

    Spans the boundaries first, then keeps each candidate chain map (the
    ``seed`` vectors, then the solution basis) that is independent of the
    span so far.  Returns the span, its number of boundary vectors, and the
    representatives in the order the span holds them after the boundaries.
    """
    solutions, boundaries = _chain_map_space(table, x, y)
    span = RationalSpan()
    for vec in boundaries:
        span.add(vec)
    n_boundaries = span.rank
    reps = [
        _chain_map_from_vector(x, y, vec)
        for vec in (*seed, *solutions)
        if span.add(vec) is not None
    ]
    return span, n_boundaries, reps


@dataclass(frozen=True)
class HomSpace:
    """A homotopy Hom space: dimension and, in degree 0, class representatives."""

    dimension: int
    basis: tuple[tuple[Matrix, Matrix], ...] = ()


def hom_space(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation, shift: int
) -> HomSpace:
    if shift != 0:
        return HomSpace(hom_dimension(table, x, y, shift))
    reps = _hom_classes(table, x, y)[2]
    return HomSpace(len(reps), tuple(reps))


def hom_dimension(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation, shift: int
) -> int:
    """dim Hom(X, Y[shift]) in the homotopy category of projectives."""
    if abs(shift) >= 2:
        return 0
    if shift == 0:
        return len(_hom_classes(table, x, y)[2])
    if shift == 1:
        slots = _slots(table, x.deg_minus1, y.deg_0)
        dx = x.matrix()
        dy = y.matrix()
        span = RationalSpan()
        for t_idx, s_idx, b in _slots(table, x.deg_0, y.deg_0):
            h: Matrix = [[dict() for _ in x.deg_0] for _ in y.deg_0]
            h[t_idx][s_idx] = {b: ONE}
            span.add(_vector_from_matrix(compose(table, h, dx), "g"))
        for t_idx, s_idx, b in _slots(table, x.deg_minus1, y.deg_minus1):
            h: Matrix = [[dict() for _ in x.deg_minus1] for _ in y.deg_minus1]
            h[t_idx][s_idx] = {b: ONE}
            span.add(_vector_from_matrix(compose(table, dy, h), "g"))
        return len(slots) - span.rank
    # shift == -1: maps X_0 -> Y_{-1} killed by both differentials, no homotopies.
    slots = _slots(table, x.deg_0, y.deg_minus1)
    unknowns = [("u",) + s for s in slots]
    dx = x.matrix()
    dy = y.matrix()
    rows: dict[tuple, dict] = {}
    for t_idx, s_idx, b in slots:
        for s2 in range(len(x.deg_minus1)):
            for coord, coeff in table.mul({b: ONE}, dx[s_idx][s2]).items():
                key = ("left", t_idx, s2, coord)
                row = rows.setdefault(key, {})
                row[("u", t_idx, s_idx, b)] = coeff
        for t2 in range(len(y.deg_0)):
            for coord, coeff in table.mul(dy[t2][t_idx], {b: ONE}).items():
                key = ("right", t2, s_idx, coord)
                row = rows.setdefault(key, {})
                row[("u", t_idx, s_idx, b)] = coeff
    return len(solve_homogeneous(list(rows.values()), unknowns))


def hom_vanishing_report(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> dict[int, int]:
    """Total dim Hom(T, T[k]) for k = -1 and 1 (nonzero means not tilting)."""
    out = {}
    for shift in (-1, 1):
        total = 0
        for _, x in summands:
            for _, y in summands:
                total += hom_dimension(table, x, y, shift)
        out[shift] = total
    return out


def left_minimality_report(
    model: GraphAlgebraModel, summands: list[tuple[str, ProjPresentation]]
) -> list[str]:
    """Radical-entry witness: no differential entry has an idempotent component."""
    problems = []
    for name, x in summands:
        for row in x.matrix():
            for entry in row:
                if entry and not model.table.radical_coefficient_free(entry):
                    problems.append(f"non-radical differential entry at edge {name}")
    return problems


def end_table(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> AlgebraTable:
    """Endomorphism algebra of the direct sum, modulo homotopy.

    Raises when a shifted Hom fails to vanish, since the composition table is
    only an algebra on honest degree-0 classes of a tilting object.
    """
    vanishing = hom_vanishing_report(table, summands)
    if any(vanishing.values()):
        raise ValueError(f"not tilting: shifted Hom dimensions {vanishing}")
    return _end_table_of_tilting(table, summands)


def _end_table_of_tilting(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> AlgebraTable:
    """``end_table`` for summands whose shifted Homs are known to vanish."""
    n = len(summands)
    reps: dict[tuple[int, int], list[tuple[Matrix, Matrix]]] = {}
    spans: dict[tuple[int, int], RationalSpan] = {}
    boundary_counts: dict[tuple[int, int], int] = {}

    def identity_pair(x: ProjPresentation) -> tuple[Matrix, Matrix]:
        f_m1: Matrix = [
            [
                table.idempotent_element(x.deg_minus1[t]) if t == s else {}
                for s in range(len(x.deg_minus1))
            ]
            for t in range(len(x.deg_minus1))
        ]
        f_0: Matrix = [
            [
                table.idempotent_element(x.deg_0[t]) if t == s else {}
                for s in range(len(x.deg_0))
            ]
            for t in range(len(x.deg_0))
        ]
        return f_m1, f_0

    for a in range(n):
        for b in range(n):
            x = summands[a][1]
            seed = (_chain_map_vector(*identity_pair(x)),) if a == b else ()
            spans[(a, b)], boundary_counts[(a, b)], reps[(a, b)] = _hom_classes(
                table, x, summands[b][1], seed
            )

    labels = []
    src = []
    tgt = []
    offsets: dict[tuple[int, int], int] = {}
    idempotents = []
    for a in range(n):
        for b in range(n):
            offsets[(a, b)] = len(labels)
            for k in range(len(reps[(a, b)])):
                if a == b and k == 0:
                    idempotents.append((summands[a][0], len(labels)))
                labels.append(f"[{summands[a][0]}->{summands[b][0]}]{k}")
                src.append(a)
                tgt.append(b)

    def locate(index: int) -> tuple[int, int, int]:
        for (a, b), off in offsets.items():
            if off <= index < off + len(reps[(a, b)]):
                return a, b, index - off
        raise IndexError(index)

    def product(i: int, j: int) -> Element:
        fa, fb, fk = locate(i)
        ga, gb, gk = locate(j)
        # product i . j: j acts first, so j: ga -> gb then i: fa -> fb with fa == gb
        if gb != fa:
            return {}
        u = reps[(fa, fb)][fk]
        v = reps[(ga, gb)][gk]
        vec = _chain_map_vector(compose(table, u[0], v[0]), compose(table, u[1], v[1]))
        coords = spans[(ga, fb)].express(vec)
        if coords is None:
            raise RuntimeError("composite chain map escaped its Hom space")
        n_boundaries = boundary_counts[(ga, fb)]
        out: Element = {}
        for local, c in coords.items():
            if local >= n_boundaries and c:
                out[offsets[(ga, fb)] + (local - n_boundaries)] = c
        return out

    return AlgebraTable(labels, src, tgt, idempotents, product)


@dataclass
class MutationReport:
    summands: list[tuple[str, ProjPresentation]]
    silting: bool
    tilting: bool
    left_minimal: bool
    dim_end: int
    dim_moved: int
    cartan_equal: bool

    @property
    def ok(self) -> bool:
        return (
            self.silting
            and self.tilting
            and self.left_minimal
            and self.dim_end == self.dim_moved
            and self.cartan_equal
        )


def mutation_verification(
    model: GraphAlgebraModel, subset: frozenset[str]
) -> MutationReport:
    """Run the full desk-scale mutation check against the moved graph's algebra."""
    graph = model.graph
    subset = _check_subset(graph, subset)
    summands = mutation_object(model, subset)
    vanishing = hom_vanishing_report(model.table, summands)
    silting = vanishing[1] == 0
    tilting = silting and vanishing[-1] == 0
    minimal = not left_minimality_report(model, summands)
    grading = model.grading
    if grading is None:
        grading = default_grading(graph, subset)
    moved = move_set(GradedGraph(graph, grading), subset)
    moved_model = model_for(
        moved.graph, moved.grading if moved.graph.is_skew else None
    )
    dim_moved = moved_model.table.dim
    if not tilting:
        return MutationReport(summands, silting, tilting, minimal, -1, dim_moved, False)
    end = _end_table_of_tilting(model.table, summands)
    _, moved_cartan = edge_cartan(moved_model)
    cartan_equal = end.cartan() == moved_cartan
    return MutationReport(
        summands, silting, tilting, minimal, end.dim, dim_moved, cartan_equal
    )

"""Two-term complexes of projectives, left mutation and endomorphism algebras.

Complexes live in degrees -1 and 0.  A map of sums of indecomposable
projectives e_i A -> e_j A is a matrix of algebra elements in the corners
e_j A e_i acting by left multiplication; all homotopy-category computations
reduce to exact linear algebra over those coordinates.

For complexes X, Y the maps form one complex Hom^{-1} -> Hom^0 -> Hom^1 with
Hom^{-1} = Hom(X_0, Y_{-1}), Hom^0 = Hom(X_{-1}, Y_{-1}) + Hom(X_0, Y_0) and
Hom^1 = Hom(X_{-1}, Y_0), and H^n Hom(X, Y) = Hom(X, Y[n]) in the homotopy
category.  Every Hom dimension, the tilting check and End(T) read it.
``mutation_verification`` needs only the dimensions: End(T) has dim H^0
Hom(X_a, X_b) classes from summand a to summand b, so its dimension and
Cartan matrix are read off H^0, and no class is named.  Those dimensions
come from the ranks of the two differentials (``_hom_complex``), with no
kernel vector and no coordinates.  |Hom^n| is a sum of the table's corner
sizes, and a differential whose rank is bounded by 0 is not applied.  One
generator (``_images``) forms the images, in one pass over the corner
basis: u.d from the row terms of a d acting before the basis map u, d.u
from the column terms of one acting after.  ``_hom_complexes`` does that
work once per cone, not once per pair.  A pair of two stalks is read off
the corner sizes, as Hom^{-1} = Hom^1 = 0.  For a cone Y, one pass over the
maps from every stalk position into Y_{-1} gives D^{-1} of every stalk
into Y, and D^0 of Y onto each stalk is drawn per stalk; every image lies
over one stalk's positions, so each pair's ranks are its own.  A pair of
two cones X -> Y takes no rank when the pairs with a stalk prove its
answer: h -> d_Y.h splits over the components P_s of X_0, so
D^{-1} is injective when each such s is held by a stalk S with
H^{-1} Hom(S, Y) = 0, and f_0 -> f_0.d_X splits over the components P_t of
Y_0, so D^0 is onto when each such t is held by a stalk S with
H^1 Hom(X, S) = 0; then the shifted Homs vanish and
H^0 = |Hom^0| - |Hom^{-1}| - |Hom^1|.  ``end_table`` runs one coordinate
elimination per pair (``_eliminated_hom_complex``), which gives both the
cohomology and the classes.  The moved graph's algebra is not built
either: its dimension and Cartan matrix are counted from the moved graph,
or its covering (``models.graph_edge_cartan``), so the only algebra table
on the verify path is the one it is handed.

A degree-0 class is represented by a Hom^0 coordinate vector: a dict keyed
(tag, t, s, b), where tag "m1" or "d0" names the component f_{-1} or f_0, t
and s index the target and source summands and b is a corner basis element.
``end_table`` builds the algebra End(T) by composing classes in these
coordinates, with no matrix of algebra elements formed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .algebra import AlgebraTable, Element, ONE
from .core import BrauerGraph, GradedGraph, edge_name
from .covering import default_grading
from .linalg import RationalSpan, rank
from .models import GraphAlgebraModel, graph_edge_cartan
from .moves import _check_subset, escape_index, move_set

Matrix = list[list[Element]]
# dim H^n for n = -1, 0, 1 of a Hom complex.
Cohomology = tuple[int, int, int]


class ProjPresentation(NamedTuple):
    """A complex (deg -1) -> (deg 0) of sums of idempotent projectives."""

    deg_minus1: tuple[int, ...]
    deg_0: tuple[int, ...]
    differential: tuple[tuple[tuple[tuple[int, int | Fraction], ...], ...], ...]


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
            if table.corner(entry, deg_0[t], deg_minus1[s]) != entry:
                raise ValueError("differential entry escapes its corner")
    return ProjPresentation(tuple(deg_minus1), tuple(deg_0), _freeze_matrix(matrix))


def stalk(positions: list[int]) -> ProjPresentation:
    return ProjPresentation((), tuple(positions), tuple(() for _ in positions))


class SideApproximation(NamedTuple):
    half_edge: str
    r: int | None
    target_edge: str | None
    walk: tuple[str, ...]


class ApproximationData(NamedTuple):
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
        r = escape_index(graph, subset, side)
        if r is None:
            sides.append(SideApproximation(side, None, None, ()))
            continue
        # sigma^{r+1} side lies outside the subset and side inside it, so
        # r + 1 < len(orbit).
        orbit = graph.sigma_orbit_of(side)
        target = edge_name(graph, orbit[r + 1])
        sides.append(SideApproximation(side, r, target, orbit[: r + 1]))
    return ApproximationData(edge_name(graph, h), tuple(sides))


def mutation_object(
    model: GraphAlgebraModel, subset: frozenset[str]
) -> list[tuple[str, ProjPresentation]]:
    """The left mutation of the regular module over the unmoved projectives.

    One summand per edge: unmoved edges stay as stalks in degree 0, moved
    edges become the cone of their approximation, with the edge projective in
    degree -1.

    Each block of a cone's differential, a walk element or its twist, is
    built from the integral V = D * walk of ``scaled_walk`` (the twist is
    +-1 on the idempotents of a skew leg's copies, already integral).
    Scaling the target summands of a block by a nonzero constant (here a
    power of two) is an isomorphism of complexes, the identity in degree
    -1, so every Hom dimension, the tilting verdict, left minimality and
    the Cartan matrix of End(T) are those of the cone of the unscaled walk
    elements.
    """
    graph = model.graph
    table = model.table
    subset = _check_subset(graph, subset)
    out: list[tuple[str, ProjPresentation]] = []
    for name, edge in graph.edges_by_label.items():
        h = edge[0]
        source_positions = model.edge_positions(h)
        if h not in subset:
            out.append((name, stalk(source_positions)))
            continue
        data = approximation(graph, subset, h)
        blocks: list[tuple[list[int], Element]] = []
        for side in data.sides:
            if side.target_edge is None:
                continue
            walk_elem, _ = model.scaled_walk(side.half_edge, side.r + 1)
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
                matrix.append([table.corner(elem, t, s) for s in source_positions])
        out.append(
            (name, make_complex(table, tuple(source_positions), tuple(deg0), matrix))
        )
    return out


# ---------------------------------------------------------------------------
# Hom spaces in the homotopy category
# ---------------------------------------------------------------------------


def _images(
    table: AlgebraTable,
    key_tag: str,
    targets: tuple[int, ...],
    sources: tuple[int, ...],
    before: tuple[str, tuple] | None = None,
    after: tuple[str, tuple] | None = None,
    sign: int = 1,
):
    """Each basis map u: (+ e_s A) -> (+ e_t A), keyed (key_tag, t, s, b) in
    (t, s, corner basis) order, with its image formed in one dict: sign * u.d
    for ``before`` = (tag, d), then sign * d.u for ``after`` = (tag, d), each
    keyed (tag, i, j, e).  Each d is a ``ProjPresentation.differential``:
    u.d reads the row terms of d's row s, d.u the column terms of d's
    column t."""
    pairwise = table.pairwise
    corners = table.corners
    if before is not None:
        before_tag, d = before
        rows = [
            [(j, k, sign * c) for j, entry in enumerate(row) for k, c in entry]
            for row in d
        ]
    if after is not None:
        after_tag, d = after
        columns = [
            [(i, k, sign * c) for i, row in enumerate(d) for k, c in row[t]]
            for t in range(len(targets))
        ]
    # Each term's product has its own (i, j), so summing every term into one
    # dict gives the keys, in order, of taking the products entry by entry.
    for t, target in enumerate(targets):
        corner_row = corners[target]
        for s, source in enumerate(sources):
            for b in corner_row[source]:
                image: dict = {}
                if before is not None:
                    for j, k, c in rows[s]:
                        for e, ce in pairwise(b, k).items():
                            key = (before_tag, t, j, e)
                            if not (new := image.get(key, 0) + c * ce):
                                del image[key]
                            else:
                                image[key] = new
                if after is not None:
                    for i, k, c in columns[t]:
                        for e, ce in pairwise(k, b).items():
                            key = (after_tag, i, s, e)
                            if not (new := image.get(key, 0) + c * ce):
                                del image[key]
                            else:
                                image[key] = new
                yield (key_tag, t, s, b), image


def _boundary_vectors(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation
):
    """D^{-1}: h -> (h.d_X, d_Y.h) on the basis maps h of Hom^{-1}, in Hom^0
    coordinates."""
    images = _images(
        table, "h", y.deg_minus1, x.deg_0,
        before=("m1", x.differential), after=("d0", y.differential),
    )
    return (image for _, image in images)


def _d0_columns(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation
):
    """D^0: (f_{-1}, f_0) -> f_0.d_X - d_Y.f_{-1} on the basis maps of Hom^0,
    as (basis map key, image) pairs, each formed when it is drawn."""
    yield from _images(
        table, "m1", y.deg_minus1, x.deg_minus1, after=("g", y.differential), sign=-1
    )
    yield from _images(table, "d0", y.deg_0, x.deg_0, before=("g", x.differential))


def _map_count(sizes: tuple, targets: tuple[int, ...], sources: tuple[int, ...]) -> int:
    """dim of the maps (+ e_s A) -> (+ e_t A), from the table's corner sizes."""
    return sum([sizes[t][s] for t in targets for s in sources])


def _hom_sizes(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation
) -> tuple[int, int, int]:
    """|Hom^{-1}|, |Hom^0| and |Hom^1| for maps X -> Y."""
    sizes = table.corner_sizes
    return (
        _map_count(sizes, y.deg_minus1, x.deg_0),
        _map_count(sizes, y.deg_minus1, x.deg_minus1)
        + _map_count(sizes, y.deg_0, x.deg_0),
        _map_count(sizes, y.deg_0, x.deg_minus1),
    )


def _hom_complex(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation
) -> Cohomology:
    """dim H^n for n = -1, 0, 1 of the Hom complex of maps X -> Y, read off
    two ranks with no kernel vector and no coordinate kept.

    H^{-1} = |Hom^{-1}| - rk D^{-1}, H^1 = |Hom^1| - rk D^0 and, by the
    Euler characteristic, H^0 = |Hom^0| - rk D^0 - rk D^{-1}.  The columns
    of D^0 are formed one at a time and stop once rk D^0 = |Hom^1|: every
    later column lies in their span.  Likewise rk D^{-1} stops at
    |Hom^{-1}|, and a zero bound forms no vector and takes no rank, so
    between two stalks, where Hom^{-1} and Hom^1 are zero, no differential
    is applied at all.
    """
    n_minus1, n_0, n_plus1 = _hom_sizes(table, x, y)
    rk_minus1 = n_minus1 and rank(_boundary_vectors(table, x, y), n_minus1)
    rk_0 = n_plus1 and rank(
        (column for _, column in _d0_columns(table, x, y)), n_plus1
    )
    return (n_minus1 - rk_minus1, n_0 - rk_0 - rk_minus1, n_plus1 - rk_0)


def _eliminated_hom_complex(
    table: AlgebraTable,
    x: ProjPresentation,
    y: ProjPresentation,
    seed: tuple[dict, ...] = (),
) -> tuple[Cohomology, RationalSpan, list[dict]]:
    """The coordinate pass over maps X -> Y: the cohomology, read off rk
    D^{-1} and rk D^0 as in ``_hom_complex``, the span of the boundaries and
    then the classes, and the classes as Hom^0 coordinate vectors: each
    ``seed`` vector, then each cycle, kept if independent of the span so far.

    Each boundary image and each column of D^0 is formed once.  A column
    that depends on the earlier independent ones gives a cycle: the basis
    map minus their combination.
    """
    span = RationalSpan()
    for vec in _boundary_vectors(table, x, y):
        span.add(vec)
    rk_minus1 = span.rank
    image = RationalSpan()
    independent: list[tuple] = []
    cycles = []
    for key, column in _d0_columns(table, x, y):
        index, coords = image.add_or_express(column)
        if index is not None:
            independent.append(key)
            continue
        cycle = {key: ONE}
        for index, c in coords.items():
            cycle[independent[index]] = -c
        cycles.append(cycle)
    n_minus1, n_0, n_plus1 = _hom_sizes(table, x, y)
    rk_0 = len(independent)
    cohomology = (n_minus1 - rk_minus1, n_0 - rk_0 - rk_minus1, n_plus1 - rk_0)
    classes = [vec for vec in (*seed, *cycles) if span.add(vec) is not None]
    return cohomology, span, classes


def hom_dimension(
    table: AlgebraTable, x: ProjPresentation, y: ProjPresentation, shift: int
) -> int:
    """dim Hom(X, Y[shift]) = dim H^shift of the Hom complex."""
    if abs(shift) >= 2:
        return 0
    return _hom_complex(table, x, y)[shift + 1]


def _hom_complexes(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> dict[tuple[int, int], Cohomology]:
    """The Hom complex's cohomology for each ordered pair of summands, keyed
    (a, b) in row order: the values of ``_hom_complex`` on every pair, with
    the work done once per cone rather than once per pair.

    Between two stalks Hom^{-1} = Hom^1 = 0, so the cohomology is
    (0, |Hom^0|, 0) from the corner sizes.  A stalk S and a cone Y meet in
    one differential each way, and both split over the positions of the
    stalks.  For S -> Y, D^{-1} is h -> d_Y.h (d_S = 0): one ``_images``
    pass over the maps from every stalk position to Y_{-1} gives D^{-1} of
    every stalk into Y, each image filed under the stalk holding its
    source; after the pass each stalk's images are ranked.  For Y -> S, D^0
    is f_0 -> f_0.d_Y on Hom(Y_0, S_0) (S_{-1} = 0), drawn by one
    ``_images`` call per stalk so that its rank stops at |Hom^1|.  No image
    mixes two stalks, so each stalk's rank is that of its own pair.

    A pair of two cones X -> Y is read off those pairs when they prove it.
    D^{-1}(h) = (h.d_X, d_Y.h), and h -> d_Y.h splits over the components
    P_s of X_0: on P_s it is D^{-1} of S -> Y for a stalk S holding s.  So
    D^{-1} is injective when each s is held by a stalk S with
    H^{-1} Hom(S, Y) = 0.  On (0, f_0), D^0 is f_0 -> f_0.d_X, which splits
    over the components P_t of Y_0: on P_t it is D^0 of X -> S for a stalk
    S holding t.  So D^0 is onto when each t is held by a stalk S with
    H^1 Hom(X, S) = 0.  Then the cohomology is
    (0, |Hom^0| - |Hom^{-1}| - |Hom^1|, 0).  Any other pair of cones goes
    through ``_hom_complex``.
    """
    sizes = table.corner_sizes
    stalks = [(s, x.deg_0) for s, (_, x) in enumerate(summands) if not x.deg_minus1]
    # Every stalk position, and the index in ``stalks`` of the stalk holding
    # each.
    held = tuple(p for _, positions in stalks for p in positions)
    holder = [k for k, (_, positions) in enumerate(stalks) for _ in positions]
    known = {
        (a, b): (0, _map_count(sizes, y_0, x_0), 0)
        for a, x_0 in stalks
        for b, y_0 in stalks
    }
    for b, (_, y) in enumerate(summands):
        if not y.deg_minus1:
            continue
        d_y = y.differential
        boundaries: list[list[Element]] = [[] for _ in stalks]
        for (_, _, s, _), image in _images(
            table, "h", y.deg_minus1, held, after=("d0", d_y)
        ):
            boundaries[holder[s]].append(image)
        for (a, positions), images in zip(stalks, boundaries):
            n_minus1 = _map_count(sizes, y.deg_minus1, positions)
            rk_minus1 = rank(images, n_minus1)
            known[a, b] = (
                n_minus1 - rk_minus1,
                _map_count(sizes, y.deg_0, positions) - rk_minus1,
                0,
            )
            n_plus1 = _map_count(sizes, positions, y.deg_minus1)
            rk_0 = n_plus1 and rank(
                (
                    column
                    for _, column in _images(
                        table, "d0", positions, y.deg_0, before=("g", d_y)
                    )
                ),
                n_plus1,
            )
            known[b, a] = (
                0,
                _map_count(sizes, positions, y.deg_0) - rk_0,
                n_plus1 - rk_0,
            )
    # The positions of the stalks S with Hom(S, X_b[-1]) = 0, per b, and of
    # the stalks S with Hom(X_a, S[1]) = 0, per a.
    into = [
        {p for s, positions in stalks if not known[s, b][0] for p in positions}
        for b in range(len(summands))
    ]
    onto = [
        {p for s, positions in stalks if not known[a, s][2] for p in positions}
        for a in range(len(summands))
    ]
    cohomology = {}
    for a, (_, x) in enumerate(summands):
        for b, (_, y) in enumerate(summands):
            c = known.get((a, b))
            if c is None:
                if into[b].issuperset(x.deg_0) and onto[a].issuperset(y.deg_0):
                    n_minus1, n_0, n_plus1 = _hom_sizes(table, x, y)
                    c = (0, n_0 - n_minus1 - n_plus1, 0)
                else:
                    c = _hom_complex(table, x, y)
            cohomology[a, b] = c
    return cohomology


def _vanishing(cohomology: dict[tuple[int, int], Cohomology]) -> dict[int, int]:
    return {
        shift: sum(c[shift + 1] for c in cohomology.values())
        for shift in (-1, 1)
    }


def left_minimality_report(
    model: GraphAlgebraModel, summands: list[tuple[str, ProjPresentation]]
) -> list[str]:
    """Radical-entry witness: no differential entry has an idempotent component."""
    problems = []
    for name, x in summands:
        for row in x.differential:
            for entry in row:
                if entry and not model.table.radical_coefficient_free(dict(entry)):
                    problems.append(f"non-radical differential entry at edge {name}")
    return problems


def _end_cartan(
    summands: list[tuple[str, ProjPresentation]],
    cohomology: dict[tuple[int, int], Cohomology],
) -> list[list[int]]:
    """The Cartan matrix of End(T), for summands whose shifted Homs vanish.

    Entry [b][a] is dim H^0 Hom(X_a, X_b): the classes from summand a to
    summand b, in the orientation of ``AlgebraTable.cartan``.  Raises when a
    summand is zero in the homotopy category.  Its identity is a cycle, and
    it is a boundary exactly when H^0 Hom(X, X) = 0, since every f equals
    f . id.
    """
    cartan = [[0] * len(summands) for _ in summands]
    for (a, b), c in cohomology.items():
        cartan[b][a] = c[1]
    for a, (name, _) in enumerate(summands):
        if not cartan[a][a]:
            raise ValueError(
                f"summand {name!r} is zero in the homotopy category: "
                "its identity is null-homotopic"
            )
    return cartan


def end_table(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> AlgebraTable:
    """Endomorphism algebra of the direct sum, modulo homotopy.

    One coordinate pass per ordered pair of summands gives both the
    cohomology and the classes.  Raises when a shifted Hom fails to vanish,
    since the composition table is only an algebra on honest degree-0
    classes of a tilting object, and then, as ``_end_cartan`` does, when a
    summand is zero in the homotopy category.
    """
    # The identity of each X in Hom^0 coordinates, so that it is class 0.
    identities = [
        {
            (tag, t, t, table.idempotents[p][1]): ONE
            for tag, positions in (("m1", x.deg_minus1), ("d0", x.deg_0))
            for t, p in enumerate(positions)
        }
        for _, x in summands
    ]
    eliminated = {
        (a, b): _eliminated_hom_complex(
            table, x, y, (identities[a],) if a == b else ()
        )
        for a, (_, x) in enumerate(summands)
        for b, (_, y) in enumerate(summands)
    }
    cohomology = {pair: c for pair, (c, _, _) in eliminated.items()}
    vanishing = _vanishing(cohomology)
    if any(vanishing.values()):
        raise ValueError(f"not tilting: shifted Hom dimensions {vanishing}")
    # Raises on a contractible summand; otherwise no identity is a boundary,
    # so each is kept first, as class 0 of its corner.
    _end_cartan(summands, cohomology)

    labels = []
    src = []
    tgt = []
    offsets: dict[tuple[int, int], int] = {}
    vectors: list[dict] = []
    idempotents = []
    for (a, b), (_, _, classes) in eliminated.items():
        offsets[(a, b)] = len(labels)
        for k, vec in enumerate(classes):
            if a == b and k == 0:
                idempotents.append((summands[a][0], len(labels)))
            labels.append(f"[{summands[a][0]}->{summands[b][0]}]{k}")
            src.append(a)
            tgt.append(b)
            vectors.append(vec)

    # Class j as the right factor, grouped by (tag, target index): the entries
    # that the left factor's (tag, source index) entries compose with.
    @cache
    def rows_of(j: int) -> dict:
        rows: dict = {}
        for (tag, t, s, b), c in vectors[j].items():
            rows.setdefault((tag, t), []).append((s, b, c))
        return rows

    def product(i: int, j: int) -> Element:
        fa, fb = src[i], tgt[i]
        ga, gb = src[j], tgt[j]
        # product i . j: j acts first, so j: ga -> gb then i: fa -> fb with fa == gb
        if gb != fa:
            return {}
        # Component by component, (u . v)[t][s] = sum over k of u[t][k] v[k][s].
        right = rows_of(j)
        pairwise = table.pairwise
        vec: dict = {}
        for (tag, t, k, b), c in vectors[i].items():
            for s, b2, c2 in right.get((tag, k), ()):
                for e, ce in pairwise(b, b2).items():
                    key = (tag, t, s, e)
                    new = vec.get(key, 0) + c * c2 * ce
                    if new:
                        vec[key] = new
                    else:
                        del vec[key]
        if not vec:
            return {}
        _, span, classes = eliminated[(ga, fb)]
        coords = span.express(vec)
        if coords is None:
            raise RuntimeError("composite chain map escaped its Hom space")
        n_boundaries = span.rank - len(classes)
        out: Element = {}
        for local, c in coords.items():
            if local >= n_boundaries and c:
                out[offsets[(ga, fb)] + (local - n_boundaries)] = c
        return out

    return AlgebraTable(labels, src, tgt, idempotents, product)


class MutationReport(NamedTuple):
    summands: list[tuple[str, ProjPresentation]]
    silting: bool
    tilting: bool
    left_minimal: bool
    # dim End(T) and whether its Cartan matrix is the moved algebra's; None
    # when T is not tilting, as End(T) is then not compared.
    dim_end: int | None
    dim_moved: int
    cartan_equal: bool | None
    # The first entry where the Cartan matrices differ: (row edge, column
    # edge, End(T) value, moved value); None when they agree or T is not
    # tilting.
    cartan_witness: tuple[str, str, int, int] | None = None
    # The first ordered summand pair and shift k = -1, then 1, with
    # Hom(T_a, T_b[k]) nonzero: (edge a, edge b, k, dimension); None when T
    # is tilting.
    hom_witness: tuple[str, str, int, int] | None = None

    @property
    def ok(self) -> bool:
        return (
            self.silting
            and self.tilting
            and self.left_minimal
            and self.dim_end == self.dim_moved
            and self.cartan_equal
        )


def _hom_witness(
    summands: list[tuple[str, ProjPresentation]],
    cohomology: dict[tuple[int, int], Cohomology],
) -> tuple[str, str, int, int] | None:
    return next(
        (
            (summands[a][0], summands[b][0], shift, c[shift + 1])
            for (a, b), c in cohomology.items()
            for shift in (-1, 1)
            if c[shift + 1]
        ),
        None,
    )


def mutation_verification(
    model: GraphAlgebraModel, subset: frozenset[str]
) -> MutationReport:
    """Run the full desk-scale mutation check against the moved graph's algebra.

    The moved algebra's dimension and edge Cartan matrix are counted from
    the moved graph, or its covering (``graph_edge_cartan``): no second
    algebra is built.

    Once T is tilting, each Cartan entry of End(T) is the Euler form
    |Hom^0| - |Hom^-1| - |Hom^1| of two summands: the dimension and Cartan
    comparisons check K_0, and the ranks certify only the vanishing.
    """
    graph = model.graph
    subset = _check_subset(graph, subset)
    summands = mutation_object(model, subset)
    cohomology = _hom_complexes(model.table, summands)
    vanishing = _vanishing(cohomology)
    silting = vanishing[1] == 0
    tilting = silting and vanishing[-1] == 0
    minimal = not left_minimality_report(model, summands)
    grading = model.grading
    if grading is None:
        grading = default_grading(graph, subset)
    moved = move_set(GradedGraph(graph, grading), subset)
    edges, moved_cartan = graph_edge_cartan(moved.graph, moved.grading)
    dim_moved = sum(map(sum, moved_cartan))
    if not tilting:
        return MutationReport(
            summands,
            silting,
            tilting,
            minimal,
            None,
            dim_moved,
            None,
            hom_witness=_hom_witness(summands, cohomology),
        )
    cartan = _end_cartan(summands, cohomology)
    witness = next(
        (
            (edges[r], edges[c], cartan[r][c], moved_cartan[r][c])
            for r in range(len(edges))
            for c in range(len(edges))
            if cartan[r][c] != moved_cartan[r][c]
        ),
        None,
    )
    return MutationReport(
        summands,
        silting,
        tilting,
        minimal,
        sum(map(sum, cartan)),
        dim_moved,
        witness is None,
        witness,
    )

"""Quivers with relations for (skew) Brauer graph algebras.

Quiver vertices are edges of the graph, with the edges at cross vertices
doubled into two copies.  Paths are stored in application order (first arrow
traversed first) and rendered right to left, matching the composition
convention used throughout the package.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import BrauerGraph, edge_name, induces_arrow

if TYPE_CHECKING:
    from .covering import CoveredGraph

QVertex = tuple[str, int | None]


def vertex_indices(graph: BrauerGraph, h: str) -> tuple[int | None, ...]:
    """Quiver-vertex copies of the edge through ``h``: doubled iff h is a skew leg."""
    return (0, 1) if h in graph.cross_half_edges else (None,)


class Arrow(NamedTuple):
    h: str
    source: QVertex
    target: QVertex


Path = tuple[Arrow, ...]

# The most paths one summed walk may expand to.  Only rendering and
# well-formedness checks expand walks; past the cap they raise ValueError
# instead of running for minutes.  At a vertex carrying L skew legs and
# nothing else, with multiplicity 2, the longest walk sums 2^(2L) paths: six
# legs reach the cap and render in about a second, seven are refused.
# ``models.presentation_problems`` takes one route per quiver vertex when it
# can prove the rest equal, and lists them all only to name the problems of
# a check that fails; that listing alone caps the routes of one special
# cycle, 2^k for k skew legs at its vertex, by the same number.
MAX_WALK_PATHS = 1 << 12


class Walk(NamedTuple):
    """The sum of all index-resolved walks of ``length`` arrows along the
    sigma-orbit of ``h``, from copy ``start`` of the first vertex to copy
    ``end`` of the last; the free middle indices are summed with coefficient 1.
    """

    h: str
    start: int | None
    length: int
    end: int | None


class Relation(NamedTuple):
    terms: tuple[tuple[int, Path | Walk], ...]


class PowerFamily(NamedTuple):
    """Rule (I) at one edge: c_h r^m_h - c_o s^m_o = 0 for every route r of
    the special cycle at ``h`` and every route s at ``other``.

    ``powers_h`` and ``powers_o`` hold each route power r^m once, so a family
    of 2^k_h * 2^k_o relations keeps 2^k_h + 2^k_o paths.  The family
    vanishes in an algebra exactly when the values c_h v(r) and c_o v(s) are
    all one element: fixing s, c_h v(r) = c_o v(s) for every r makes all
    c_h v(r) equal, and fixing r does the same for every c_o v(s).

    A route power r^m is m copies of one turn round the sigma-orbit.  A
    model (``models.GraphAlgebraModel``) evaluates it as the m-th power of
    the turn's value: the turn multiplied out once, then m - 1 products.
    """

    h: str
    other: str
    c_h: int
    c_o: int
    powers_h: tuple[Path, ...]
    powers_o: tuple[Path, ...]

    def pairs(self) -> Iterator[Relation]:
        """One relation per pair of routes, routes at ``h`` outermost."""
        c_h, minus_c_o = self.c_h, -self.c_o
        for power_h in self.powers_h:
            for power_o in self.powers_o:
                yield Relation(((c_h, power_h), (minus_c_o, power_o)))


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[QVertex, ...]
    arrows: tuple[Arrow, ...]

    @cached_property
    def _by_indices(self) -> dict[tuple[str, int | None, int | None], Arrow]:
        return {(a.h, a.source[1], a.target[1]): a for a in self.arrows}

    @cached_property
    def names(self) -> dict[Arrow, str]:
        return {a: render_arrow(a) for a in self.arrows}

    def arrow(self, h: str, i: int | None, j: int | None) -> Arrow:
        try:
            return self._by_indices[h, i, j]
        except KeyError:
            raise KeyError(
                f"no arrow for half-edge {h!r} with indices ({i}, {j})"
            ) from None


@dataclass(frozen=True)
class Presentation:
    """A quiver with relations.

    Rule (I) of a graph's presentation is held as its ``families``, each
    route power once; ``other_relations`` holds every other relation.
    ``relations`` lists them all, each family expanded pair by pair ahead
    of the others, and is built on first access.
    """

    quiver: Quiver
    other_relations: tuple[Relation, ...]
    symbol: str = "a"
    # The graph whose sigma-orbits expand summed walks; None when no
    # relation has one.
    graph: BrauerGraph | None = None
    families: tuple[PowerFamily, ...] = ()

    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(_listed(self.families, self.other_relations))


def quiver(graph: BrauerGraph) -> Quiver:
    """The quiver of ``graph``, built once per graph object
    (``BrauerGraph.quiver``): relation builders and walk expansion read its
    arrow index."""
    return graph.quiver


def _build_quiver(graph: BrauerGraph) -> Quiver:
    vertices = [
        (name, i)
        for name, edge in graph.edges_by_label.items()
        for i in vertex_indices(graph, edge[0])
    ]
    arrows: list[Arrow] = []
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        source = edge_name(graph, h)
        target = edge_name(graph, graph.orientation(h))
        for i in vertex_indices(graph, h):
            for j in vertex_indices(graph, graph.orientation(h)):
                arrows.append(Arrow(h, (source, i), (target, j)))
    return Quiver(tuple(vertices), tuple(arrows))


def _walk_paths(graph: BrauerGraph, walk: Walk) -> Iterator[Path]:
    """All index-resolved walks summed by ``walk``, drawn lazily.

    Intermediate indices range over the copies of each visited vertex, the
    first one slowest; the start and final indices are pinned.  Walk step k
    uses the arrow induced by sigma^k h.
    """
    by_indices = quiver(graph)._by_indices
    orbit = graph.sigma_orbit_of(walk.h)
    steps = [orbit[k % len(orbit)] for k in range(walk.length)]
    choice_sets = [vertex_indices(graph, x) for x in steps[1:]]
    for choices in itertools.product(*choice_sets):
        indices = (walk.start,) + choices + (walk.end,)
        yield tuple(
            by_indices[x, indices[k], indices[k + 1]] for k, x in enumerate(steps)
        )


def walk_path_count(graph: BrauerGraph, h: str, length: int) -> int:
    """How many index-resolved paths a walk of ``length`` arrows from h sums:
    one per choice of copy at each intermediate vertex."""
    orbit = graph.sigma_orbit_of(h)
    return math.prod(
        len(vertex_indices(graph, orbit[k % len(orbit)])) for k in range(1, length)
    )


def expand_relation(
    rel: Relation, graph: BrauerGraph | None = None
) -> list[tuple[int, Path]]:
    """The terms of ``rel`` with each summed walk expanded to its paths.

    ``graph`` supplies the sigma-orbits and is needed only when ``rel`` has
    a summed walk.  A walk of more than ``MAX_WALK_PATHS`` paths raises
    ValueError.
    """
    out: list[tuple[int, Path]] = []
    for coeff, body in rel.terms:
        if not isinstance(body, Walk):
            out.append((coeff, body))
            continue
        if graph is None:
            raise ValueError(f"expanding {body} needs its graph")
        count = walk_path_count(graph, body.h, body.length)
        if count > MAX_WALK_PATHS:
            raise ValueError(
                f"{body} sums {count} paths, over the expansion cap of "
                f"{MAX_WALK_PATHS}"
            )
        out.extend((coeff, path) for path in _walk_paths(graph, body))
    return out


def special_cycles(
    graph: BrauerGraph, h: str, index: int | None = None
) -> list[Path]:
    """The special cycles at a quiver vertex of the edge through ``h``."""
    if not induces_arrow(graph, h):
        raise ValueError(f"half-edge {h!r} induces no arrow")
    if h in graph.cross_half_edges:
        if index not in (0, 1):
            raise ValueError("a copy index 0 or 1 is required at a skew leg")
    elif index is not None:
        raise ValueError(f"half-edge {h!r} has no copy index")
    n = len(graph.sigma_orbit_of(h))
    return list(_walk_paths(graph, Walk(h, index, n, index)))


def _first_routes(graph: BrauerGraph, h: str, i: int | None = None) -> list[Path]:
    """One special cycle at (h, i) per first arrow: for each copy k of the
    next vertex, the first of ``special_cycles`` that starts with the arrow
    into copy k.  The first route comes first."""
    n = len(graph.sigma_orbit_of(h))
    if n == 1:
        return [next(_walk_paths(graph, Walk(h, i, 1, i)))]
    arrow = quiver(graph).arrow
    nxt = graph.orientation(h)
    return [
        (arrow(h, i, k),) + next(_walk_paths(graph, Walk(nxt, k, n - 1, i)))
        for k in vertex_indices(graph, nxt)
    ]


def n_cross(graph: BrauerGraph, h: str) -> int:
    """Number of skew legs on the sigma-orbit of ``h``."""
    return sum(1 for x in graph.sigma_orbit_of(h) if x in graph.cross_half_edges)


def _crossing_relations(graph: BrauerGraph) -> list[Relation]:
    """Crossing to the other side of the next edge is zero (skew legs excepted)."""
    sigma = graph.orientation
    arrow = quiver(graph).arrow
    out: list[Relation] = []
    for h in sorted(graph.half_edges):
        nxt = sigma(h)
        if not induces_arrow(graph, h) or nxt in graph.cross_half_edges:
            continue
        partner = graph.pairing(nxt)
        if not induces_arrow(graph, partner):
            continue
        for i in vertex_indices(graph, h):
            for j in vertex_indices(graph, sigma(partner)):
                path = (arrow(h, i, None), arrow(partner, None, j))
                out.append(Relation(((1, path),)))
    return out


def _two_route_relations(graph: BrauerGraph) -> list[Relation]:
    """The two routes through the doubled vertex at a skew leg agree."""
    sigma = graph.orientation
    arrow = quiver(graph).arrow
    out: list[Relation] = []
    for h in sorted(graph.half_edges):
        if sigma(h) == h or sigma(h) not in graph.cross_half_edges:
            continue
        for i in vertex_indices(graph, h):
            for j in vertex_indices(graph, sigma(sigma(h))):
                routes = [
                    (arrow(h, i, k), arrow(sigma(h), k, j))
                    for k in (0, 1)
                ]
                out.append(Relation(((1, routes[0]), (-1, routes[1]))))
    return out


# The most relations one rule-(I) family may list in a ``presentation``.
# Past it ``presentation`` raises ValueError instead of printing megabytes
# through the ``relations`` and ``quiver`` commands.  A ``Presentation``
# holds each family's route powers once and renders each of them once, but
# still prints one line per pair; ``relations`` lists every pair, whatever
# the count, and ``models.presentations_match`` checks a family from one
# route per end, or per route on its witness path, and lists the pairs of
# a failing family only.  A loop edge whose vertex carries k skew legs
# has 2^(2k) pairs: six legs reach the cap, seven are refused.
MAX_RELATION_PAIRS = 1 << 12

# The most paths ``models.monomial_table`` enumerates before it gives up.
MAX_MONOMIAL_PATHS = 20_000


def _special_cycle_table(graph: BrauerGraph) -> Callable[..., list[Path]]:
    """``special_cycles`` of ``graph``, each built once per (h, index)."""
    return cache(partial(special_cycles, graph))


def _rule_one_edges(graph: BrauerGraph) -> list[tuple[str, str]]:
    """(h, other) for each non-degenerate edge whose ends both induce arrows.

    Neither end is a skew leg, so the special cycle at h has 2^n_cross(h)
    routes.
    """
    out: list[tuple[str, str]] = []
    for edge in graph.edges:
        if len(edge) != 2:
            continue
        h, other = min(edge), max(edge)
        if induces_arrow(graph, h) and induces_arrow(graph, other):
            out.append((h, other))
    return out


def _power_families(
    graph: BrauerGraph, cycles_at: Callable[..., list[Path]]
) -> list[PowerFamily]:
    """(I) equality of weighted cycle powers across each non-degenerate edge."""
    out: list[PowerFamily] = []
    for h, other in _rule_one_edges(graph):
        m_h, m_o = graph.multiplicity[h], graph.multiplicity[other]
        out.append(
            PowerFamily(
                h,
                other,
                2 ** (n_cross(graph, h) * m_h),
                2 ** (n_cross(graph, other) * m_o),
                # the key (h, None) of the other rules, so that a cached
                # ``cycles_at`` builds each cycle once
                tuple(route * m_h for route in cycles_at(h, None)),
                tuple(route * m_o for route in cycles_at(other, None)),
            )
        )
    return out


def _overrun_relations(
    graph: BrauerGraph, cycles_at: Callable[..., list[Path]]
) -> list[Relation]:
    """(II) a cycle power followed by its own first arrow, one relation per
    route that ``cycles_at`` gives."""
    out: list[Relation] = []
    for h in sorted(graph.half_edges):
        if not induces_arrow(graph, h):
            continue
        for i in vertex_indices(graph, h):
            for route in cycles_at(h, i):
                path = route * graph.multiplicity[h] + (route[0],)
                out.append(Relation(((1, path),)))
    return out


def _shifted_relations(
    graph: BrauerGraph, cycles_at: Callable[..., list[Path]]
) -> list[Relation]:
    """(IV) full cycle powers at a skew leg land on the other copy, one
    relation per route that ``cycles_at`` gives."""
    arrow = quiver(graph).arrow
    out: list[Relation] = []
    for h in sorted(graph.cross_half_edges):
        if not induces_arrow(graph, h):
            continue
        for i in (0, 1):
            for route in cycles_at(h, i):
                last = route[-1]
                shifted = route[:-1] + (
                    arrow(last.h, last.source[1], (i + 1) % 2),
                )
                path = route * (graph.multiplicity[h] - 1) + shifted
                out.append(Relation(((1, path),)))
    return out


def _other_relations(
    graph: BrauerGraph, cycles_at: Callable[..., list[Path]]
) -> list[Relation]:
    """Rules (II)-(V) of ``relations``, in its order: (III) is crossing to
    the other side of the next edge, (V) the two routes through a doubled
    vertex."""
    return [
        *_overrun_relations(graph, cycles_at),
        *_crossing_relations(graph),
        *_shifted_relations(graph, cycles_at),
        *_two_route_relations(graph),
    ]


def _listed(
    families: Iterable[PowerFamily], others: Iterable[Relation]
) -> Iterator[Relation]:
    """Each family pair by pair, then the other relations."""
    for family in families:
        yield from family.pairs()
    yield from others


def _rules(graph: BrauerGraph) -> tuple[list[PowerFamily], list[Relation]]:
    """The rule-(I) families and rules (II)-(V) of the graph."""
    # Rules (I), (II) and (IV) read the same special cycles: build each once.
    cycles_at = _special_cycle_table(graph)
    return _power_families(graph, cycles_at), _other_relations(graph, cycles_at)


def relations(graph: BrauerGraph) -> list[Relation]:
    """The generating relations of the (skew) Brauer graph algebra.

    Rule (I) comes first, one relation per pair of routes of each
    ``PowerFamily``, routes at its h outermost; rules (II)-(V) follow.
    """
    return list(_listed(*_rules(graph)))


def presentation(graph: BrauerGraph) -> Presentation:
    """Quiver and relations of the graph, rule (I) held as its families.

    A rule-(I) family of more than ``MAX_RELATION_PAIRS`` pairs raises
    ValueError naming its edge and pair count, before any route is listed.
    """
    for h, other in _rule_one_edges(graph):
        pairs = 2 ** (n_cross(graph, h) + n_cross(graph, other))
        if pairs > MAX_RELATION_PAIRS:
            raise ValueError(
                f"rule (I) at edge {edge_name(graph, h)} has {pairs} "
                f"relations, over the expansion cap of {MAX_RELATION_PAIRS}"
            )
    families, others = _rules(graph)
    return Presentation(quiver(graph), tuple(others), families=tuple(families))


def relation_violations(p: Presentation) -> list[str]:
    """Well-formedness: all terms of a relation share source and target."""
    known = set(p.quiver.arrows)
    problems = []
    for k, rel in enumerate(p.relations):
        ends = set()
        for _, path in expand_relation(rel, p.graph):
            if not path:
                problems.append(f"relation {k} has an empty path")
                continue
            for a in path:
                if a not in known:
                    problems.append(f"relation {k} uses unknown arrow {a}")
            for a, b in zip(path, path[1:]):
                if a.target != b.source:
                    problems.append(f"relation {k} has a non-composable path")
            ends.add((path[0].source, path[-1].target))
        if len(ends) > 1:
            problems.append(f"relation {k} mixes sources or targets")
    return problems


def find_subword(
    word: Path, patterns: Iterable[Path]
) -> tuple[Path, int] | None:
    """The first pattern occurring in ``word`` and its start, or None."""
    for pat in patterns:
        n = len(pat)
        for s in range(len(word) - n + 1):
            if word[s : s + n] == pat:
                return pat, s
    return None


def normal_paths(
    arrows: Sequence[Arrow], is_normal: Callable[[Path], bool]
) -> Iterator[list[Path]]:
    """The normal paths, one length at a time, in ``arrows`` order.

    Each path of length k + 1 extends a normal path of length k by one
    arrow, so ``is_normal`` must hold on every prefix of a normal path.  The
    iteration ends at the first length with no normal path.
    """
    by_source: dict[QVertex, list[Arrow]] = {}
    for a in arrows:
        by_source.setdefault(a.source, []).append(a)
    layer = [(a,) for a in arrows if is_normal((a,))]
    while layer:
        yield layer
        layer = [
            path + (a,)
            for path in layer
            for a in by_source.get(path[-1].target, ())
            if is_normal(path + (a,))
        ]


def truncation_presentation(c: CoveredGraph) -> Presentation:
    """Quiver and relations of the sheet-group truncation of the covering algebra.

    Relations come from representatives of the group orbits of the covering
    relations; on skew bases the arrows appear summed over their copy
    indices, so rules (I')-(III') are sums over free-index walks, each kept
    as one ``Walk`` term.
    """
    base = c.base.graph
    q = quiver(base)
    if not base.is_skew:
        families, others = _rules(base)
        return Presentation(q, tuple(others), symbol="b", families=tuple(families))

    sigma = base.orientation
    cross = base.cross_half_edges
    rels: list[Relation] = []

    # (I') full cycle powers at a skew leg land on the other copy, all routes.
    for h in sorted(cross):
        for i in (0, 1):
            n = len(base.sigma_orbit_of(h))
            length = n * base.multiplicity[h]
            rels.append(Relation(((1, Walk(h, i, length, (i + 1) % 2)),)))

    # (II') equality of summed cycle powers across non-degenerate edges.
    for h, other in _rule_one_edges(base):
        terms = []
        for x, sign in ((h, 1), (other, -1)):
            length = len(base.sigma_orbit_of(x)) * base.multiplicity[x]
            terms.append((sign, Walk(x, None, length, None)))
        rels.append(Relation(tuple(terms)))

    # (III') overruns of summed cycle powers vanish.
    for h in sorted(base.half_edges):
        if not induces_arrow(base, h):
            continue
        n = len(base.sigma_orbit_of(h))
        length = n * base.multiplicity[h] + 1
        for i in vertex_indices(base, h):
            for j in vertex_indices(base, sigma(h)):
                rels.append(Relation(((1, Walk(h, i, length, j)),)))

    # (IV') the two routes through a doubled vertex agree.
    rels.extend(_two_route_relations(base))

    # (V') crossing to the other side of the next edge.
    rels.extend(_crossing_relations(base))
    return Presentation(q, tuple(rels), symbol="b", graph=base)


def admissible_cut(graph: BrauerGraph, delta: frozenset[str]) -> Presentation:
    """Presentation of the cut algebra: drop the arrows induced by ``delta``.

    ``delta`` must pick exactly one half-edge per sigma-orbit and the graph
    must have multiplicity one everywhere.
    """
    delta = frozenset(delta)
    stray = delta - graph.half_edges
    if stray:
        raise ValueError(f"cut contains unknown half-edges: {sorted(stray)}")
    if any(m != 1 for m in graph.multiplicity.values()):
        raise ValueError("admissible cuts require multiplicity one everywhere")
    for orbit in graph.sigma_orbits:
        hits = [h for h in orbit if h in delta]
        if len(hits) != 1:
            raise ValueError(
                "cut must contain exactly one half-edge per sigma-orbit; "
                f"orbit ({' '.join(orbit)}) has {len(hits)}"
            )
    q = quiver(graph)
    kept = tuple(a for a in q.arrows if a.h not in delta)
    cut_quiver = Quiver(q.vertices, kept)
    rels: list[Relation] = []
    for rel in relations(graph):
        terms = tuple(
            (c, path)
            for c, path in rel.terms
            if all(a.h not in delta for a in path)
        )
        if terms:
            rels.append(Relation(terms))
    return Presentation(cut_quiver, tuple(rels))


def gentle_violations(p: Presentation) -> list[str]:
    """Check the standard gentle conditions on a monomial quadratic presentation."""
    problems: list[str] = []
    forbidden: set[tuple[Arrow, Arrow]] = set()
    for rel in p.relations:
        if len(rel.terms) != 1:
            problems.append("relation is not monomial")
            continue
        _, path = rel.terms[0]
        if len(path) != 2:
            problems.append("relation is not quadratic")
            continue
        forbidden.add((path[0], path[1]))
    arrows = p.quiver.arrows
    for v in p.quiver.vertices:
        if sum(1 for a in arrows if a.source == v) > 2:
            problems.append(f"more than two arrows out of {v}")
        if sum(1 for a in arrows if a.target == v) > 2:
            problems.append(f"more than two arrows into {v}")
    for a in arrows:
        nexts = [b for b in arrows if b.source == a.target]
        killed = [b for b in nexts if (a, b) in forbidden]
        alive = [b for b in nexts if (a, b) not in forbidden]
        if len(killed) > 1 or len(alive) > 1:
            problems.append(f"gentle successor condition fails after {a}")
        prevs = [b for b in arrows if b.target == a.source]
        pkilled = [b for b in prevs if (b, a) in forbidden]
        palive = [b for b in prevs if (b, a) not in forbidden]
        if len(pkilled) > 1 or len(palive) > 1:
            problems.append(f"gentle predecessor condition fails before {a}")
    return problems


def render_vertex(v: QVertex) -> str:
    name, i = v
    return name if i is None else f"{name}_{i}"


def render_arrow(a: Arrow, symbol: str = "a") -> str:
    i, j = a.source[1], a.target[1]
    if i is None and j is None:
        return f"{symbol}[{a.h}]"
    left = "" if j is None else str(j)
    right = "" if i is None else str(i)
    return f"{left}{symbol}[{a.h}]{right}"


def _chunk(
    coeff: int, path: Path, symbol: str, names: Mapping[Arrow, str]
) -> str:
    """One relation term as text; ``names`` holds arrows already rendered."""
    body = " ".join([names.get(a) or render_arrow(a, symbol) for a in reversed(path)])
    if coeff == 1:
        return body
    if coeff == -1:
        return f"- {body}"
    return f"{coeff} {body}"


def _following(chunk: str) -> str:
    """A term's text after the first: a sign joins it to the one before."""
    return chunk if chunk.startswith("-") else "+ " + chunk


def _render_terms(
    terms: list[tuple[int, Path]], symbol: str, names: Mapping[Arrow, str]
) -> str:
    """Expanded relation terms as text; ``names`` holds arrows already rendered."""
    chunks = [_chunk(coeff, path, symbol, names) for coeff, path in terms]
    return " ".join(chunks[:1] + [_following(chunk) for chunk in chunks[1:]])


def render_relation(
    rel: Relation, symbol: str = "a", graph: BrauerGraph | None = None
) -> str:
    """The relation as text; ``graph`` expands its summed walks, if any."""
    return _render_terms(expand_relation(rel, graph), symbol, {})


def render_relations(p: Presentation) -> list[str]:
    """Every relation of ``p`` as text, in the order of ``p.relations``.

    Each quiver arrow is rendered once, and each route power of a rule-(I)
    family once: a pair's line joins the texts of its two route powers.
    """
    symbol = p.symbol
    names = {a: render_arrow(a, symbol) for a in p.quiver.arrows}
    out: list[str] = []
    for family in p.families:
        heads = [_chunk(family.c_h, r, symbol, names) for r in family.powers_h]
        tails = [
            " " + _following(_chunk(-family.c_o, s, symbol, names))
            for s in family.powers_o
        ]
        out.extend([head + tail for head in heads for tail in tails])
    out.extend(
        _render_terms(expand_relation(rel, p.graph), symbol, names)
        for rel in p.other_relations
    )
    return out


def render_quiver(q: Quiver, symbol: str = "a") -> list[str]:
    """The vertex line and one line per arrow of ``q``."""
    lines = ["vertices: " + " ".join(render_vertex(v) for v in q.vertices)]
    for a in q.arrows:
        lines.append(
            f"arrow {render_arrow(a, symbol)} : "
            f"{render_vertex(a.source)} -> {render_vertex(a.target)}"
        )
    return lines


def render_presentation(p: Presentation) -> str:
    lines = render_quiver(p.quiver, p.symbol)
    lines += ["relation " + text for text in render_relations(p)]
    return "\n".join(lines) + "\n"


def to_dot(p: Presentation) -> str:
    lines = ["digraph quiver {"]
    for v in p.quiver.vertices:
        lines.append(f'  "{render_vertex(v)}";')
    for a in p.quiver.arrows:
        lines.append(
            f'  "{render_vertex(a.source)}" -> "{render_vertex(a.target)}"'
            f' [label="{render_arrow(a, p.symbol)}"];'
        )
    lines.append("  /* relations:")
    lines += ["   * " + text for text in render_relations(p)]
    lines.append("   */")
    lines.append("}")
    return "\n".join(lines) + "\n"

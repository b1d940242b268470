"""Oracles that only the tests call: independent checks of the package's
answers, kept out of ``src/`` because no command reaches them.

- ``check_table``: associativity, unit law and idempotent axioms of a table.
- ``dimension_by_rewriting``: the dimension of an ordinary graph's algebra
  by rewriting paths with its printed relations.
- ``edge_cartan``: a model's Cartan matrix summed to edges, read off its
  table (``models.graph_edge_cartan`` counts it from the graph).
- ``hom_vanishing_report``: total dim Hom(T, T[k]) for k = -1 and 1.
- ``radical_quiver``: the Gabriel quiver of a basic algebra with local
  diagonal corners, read off its radical layers.
- ``euler_characteristics``: V - E + F per connected component.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from brauergraph.algebra import ONE, AlgebraTable
from brauergraph.core import (
    BrauerGraph,
    connected_components,
    face_permutation,
    induces_arrow,
)
from brauergraph.homotopy import ProjPresentation, _hom_complexes, _vanishing
from brauergraph.linalg import RationalSpan
from brauergraph.models import GraphAlgebraModel
from brauergraph.presentation import (
    Arrow,
    find_subword,
    normal_paths,
    quiver,
    relations,
)


def check_table(table: AlgebraTable, seed: int = 0, cap: int = 40) -> list[str]:
    """Associativity, unit law and idempotent axioms; exhaustive up to ``cap``."""
    problems = []
    unit = {index: ONE for _, index in table.idempotents}
    for b in range(table.dim):
        e = {b: ONE}
        if table.mul(unit, e) != e or table.mul(e, unit) != e:
            problems.append(f"unit law fails on {table.labels[b]}")
    for p, (_, i) in enumerate(table.idempotents):
        ei = {i: ONE}
        if table.mul(ei, ei) != ei:
            problems.append(f"idempotent {p} is not idempotent")
        for q, (_, j) in enumerate(table.idempotents):
            if p != q and table.mul(ei, {j: ONE}):
                problems.append(f"idempotents {p}, {q} not orthogonal")
    if table.dim <= cap:
        triples = (
            (a, b, c)
            for a in range(table.dim)
            for b in range(table.dim)
            for c in range(table.dim)
        )
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(table.dim), rng.randrange(table.dim), rng.randrange(table.dim))
            for _ in range(10_000)
        )
    for a, b, c in triples:
        ea, eb, ec = {a: ONE}, {b: ONE}, {c: ONE}
        left = table.mul(table.mul(ea, eb), ec)
        right = table.mul(ea, table.mul(eb, ec))
        if left != right:
            problems.append(
                f"associativity fails on ({table.labels[a]}, {table.labels[b]}, "
                f"{table.labels[c]})"
            )
            break
    return problems


def dimension_by_rewriting(graph: BrauerGraph) -> int:
    """Count a spanning set of paths reduced by the generating relations.

    Enumerates quiver paths in normal form, killing subwords from the
    monomial relations and rewriting longer cycle powers to shorter ones,
    and certifies the length bound by checking the frontier dies out.
    """
    if graph.is_skew:
        raise ValueError("the rewriting oracle handles ordinary graphs")
    q = quiver(graph)
    zero_words: set[tuple[Arrow, ...]] = set()
    rewrites: dict[tuple[Arrow, ...], tuple[Arrow, ...]] = {}

    def word_key(w: tuple[Arrow, ...]):
        return (len(w), tuple((a.h, a.source, a.target) for a in w))

    for rel in relations(graph):
        if len(rel.terms) == 1:
            zero_words.add(rel.terms[0][1])
        else:
            (_, w1), (_, w2) = rel.terms
            big, small = (w1, w2) if word_key(w1) > word_key(w2) else (w2, w1)
            rewrites[big] = small

    def reduce(word: tuple[Arrow, ...]) -> tuple[Arrow, ...] | None:
        while True:
            if find_subword(word, zero_words):
                return None
            hit = find_subword(word, rewrites)
            if hit is None:
                return word
            pat, s = hit
            word = word[:s] + rewrites[pat] + word[s + len(pat) :]

    max_len = max(
        (
            len(graph.sigma_orbit_of(h)) * graph.multiplicity[h]
            for h in graph.half_edges
            if induces_arrow(graph, h)
        ),
        default=0,
    )
    count = len(q.vertices)
    layers = normal_paths(q.arrows, lambda w: reduce(w) == w)
    for length, layer in enumerate(layers, start=1):
        if length > max_len:
            raise RuntimeError("rewriting frontier outlived the length bound")
        count += len(layer)
    return count


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


def hom_vanishing_report(
    table: AlgebraTable, summands: list[tuple[str, ProjPresentation]]
) -> dict[int, int]:
    """Total dim Hom(T, T[k]) for k = -1 and 1 (nonzero means not tilting)."""
    return _vanishing(_hom_complexes(table, summands))


def radical_quiver(table: AlgebraTable) -> Counter:
    """Arrows of the Gabriel quiver, counted per (source, target) pair of
    idempotent names, of a table whose diagonal corners are local.

    The radical is every off-diagonal corner e_t A e_s, and in a diagonal
    corner each v - (tr L_v / dim) e_t for v other than e_t, where L_v is
    left multiplication by v on the corner: that element is nilpotent.
    rad^2(t, s) is spanned by the products r u, r in rad(t, c) and u in
    rad(c, s) over all c, and there are dim rad(t, s) - dim rad^2(t, s)
    arrows s -> t.
    """
    corners, idempotents = table.corners, table.idempotents
    n = len(idempotents)
    rad = {}
    for t in range(n):
        for s in range(n):
            if s != t:
                rad[t, s] = [{b: ONE} for b in corners[t][s]]
                continue
            unit, local = idempotents[t][1], corners[t][t]
            rad[t, t] = []
            for v in local:
                if v != unit:
                    trace = sum(table.pairwise(v, c).get(c, 0) for c in local)
                    shift = {unit: -Fraction(trace, len(local))} if trace else {}
                    rad[t, t].append({v: ONE} | shift)
    arrows: Counter = Counter()
    for t in range(n):
        for s in range(n):
            square = RationalSpan()
            for c in range(n):
                for r in rad[t, c]:
                    for u in rad[c, s]:
                        if square.rank < len(rad[t, s]):
                            square.add(table.mul(r, u))
            if square.rank < len(rad[t, s]):
                arrows[idempotents[s][0], idempotents[t][0]] = len(rad[t, s]) - square.rank
    return arrows


def euler_characteristics(graph: BrauerGraph) -> list[int]:
    """|vertices| - |edges| + |faces| per connected component (ordinary only)."""
    out = []
    for component in connected_components(graph):
        v = len({graph.sigma_orbit_of(h)[0] for h in component})
        e = len({frozenset((h, graph.pairing(h))) for h in component})
        f = len(
            {face_permutation(graph).orbit(h)[0] for h in component}
        )
        out.append(v - e + f)
    return out

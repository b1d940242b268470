"""Coverings of graded graphs and the covering/move commutativity check.

An ordinary graph with an admissible Z/mZ-grading unfolds to a graph of
multiplicity one on m sheets; a skew graph with a 0-homogeneous Z/2Z-grading
unfolds to an ordinary graph on two sheets, with skew legs joining up across
the sheets.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

from .core import (
    BrauerGraph,
    GradedGraph,
    Grading,
    check_grading,
    zero_grading,
)
from .moves import maximal_sectors, move_set, move_set_underlying
from .permutations import Permutation


class CoveredGraph(NamedTuple):
    base: GradedGraph
    total: BrauerGraph
    sheet_of: Mapping[str, tuple[str, int]]
    group_order: int
    # Each base half-edge's covering labels, by sheet: the inverse of
    # ``sheet_of``.
    labels: Mapping[str, list[str]]

    def shift_half(self, label: str) -> str:
        """The sheet shift h_i -> h_{i+1} on half-edges of the total graph."""
        h, i = self.sheet_of[label]
        return self.labels[h][(i + 1) % self.group_order]

    def sheet_edge(self, label: str, sheet: int) -> str:
        """Label of the covering edge over the base edge ``label`` on ``sheet``."""
        h = self.base.graph.edges_by_label[label][0]
        return self.total.edge_labels[self.labels[h][sheet]]

    def shift_edge(self, label: str) -> str:
        """Label of the sheet shift of the covering edge ``label``."""
        h = self.total.edges_by_label[label][0]
        return self.total.edge_labels[self.shift_half(h)]


def sheet_label(h: str, sheet: int) -> str:
    return f"{h}_{sheet}"


def _pairing(graph: BrauerGraph, labels: Mapping[str, list]) -> Permutation:
    """The pairing of a covering whose half-edges over h are ``labels[h]``,
    by sheet: a cross half-edge pairs with itself on the next sheet, any
    other with its partner on the same sheet."""
    cross = graph.cross_half_edges
    pairing = {}
    for h, row in labels.items():
        partner = row[1:] + row[:1] if h in cross else labels[graph.pairing(h)]
        pairing.update(zip(row, partner))
    return Permutation(pairing)


def _total(
    g: GradedGraph, labels: Mapping[str, list], pairing: Permutation
) -> BrauerGraph:
    """The covering graph of ``g`` whose half-edges over h are ``labels[h]``,
    by sheet, with the covering pairing ``pairing`` of those labels."""
    graph, grading = g.graph, g.grading
    n = grading.modulus
    skew = graph.is_skew
    orientation = {}
    multiplicity = {}
    for h, row in labels.items():
        successor = labels[graph.orientation(h)]
        degree = grading(h)
        m = graph.multiplicity[h] if skew else 1
        for i, label in enumerate(row):
            orientation[label] = successor[(i + degree) % n]
            multiplicity[label] = m
    return BrauerGraph(pairing.domain, pairing, Permutation(orientation), multiplicity)


def cover(g: GradedGraph) -> CoveredGraph:
    """The covering graph on ``modulus`` sheets."""
    check_grading(g.graph, g.grading)
    graph, n = g.graph, g.grading.modulus
    labels = {h: [sheet_label(h, i) for i in range(n)] for h in graph.half_edges}
    sheet_of = {
        label: (h, i) for h, row in labels.items() for i, label in enumerate(row)
    }
    total = _total(g, labels, _pairing(graph, labels))
    return CoveredGraph(g, total, sheet_of, n, labels)


def lift_subset(c: CoveredGraph, subset: frozenset[str]) -> frozenset[str]:
    """Full preimage of a set of base half-edges under the projection."""
    stray = frozenset(subset) - c.base.graph.half_edges
    if stray:
        raise ValueError(f"subset contains unknown half-edges: {sorted(stray)}")
    labels = c.labels
    return frozenset(label for h in subset for label in labels[h])


def default_grading(graph: BrauerGraph, subset: frozenset[str] = frozenset()) -> Grading:
    """The grading recipe used to set up coverings for a planned move of ``subset``.

    Skew graphs get the zero grading.  On an ordinary graph each circ vertex
    concentrates its required degree sum on one half-edge: for a vertex
    meeting both the subset and its complement, the predecessor of its
    smallest maximal sector; otherwise the smallest half-edge at the vertex.
    """
    if graph.is_skew:
        return zero_grading(graph)
    m_bar = graph.m_bar
    degrees = {h: 0 for h in graph.half_edges}
    sector_by_orbit: dict[str, list] = {}
    if subset:
        for s in maximal_sectors(graph, frozenset(subset)):
            key = min(graph.sigma_orbit_of(s.h))
            sector_by_orbit.setdefault(key, []).append(s)
    inv = graph.orientation.inverse()
    for orbit in graph.sigma_orbits:
        orbit_set = set(orbit)
        meets_subset = bool(orbit_set & subset)
        meets_complement = bool(orbit_set - subset)
        if meets_subset and meets_complement:
            candidates = sorted(sector_by_orbit[min(orbit)], key=lambda s: s.h)
            chosen = inv(candidates[0].h)
        else:
            chosen = min(orbit)
        degrees[chosen] = (m_bar // graph.multiplicity[chosen]) % m_bar
    return Grading(m_bar, degrees)


def _commuting_sides(
    g: GradedGraph, subset: frozenset[str]
) -> tuple[BrauerGraph, BrauerGraph]:
    """The covering of the moved graph and the move of the covering, on the
    integer labels of ``check_cover_commutes``."""
    subset = frozenset(subset)
    check_grading(g.graph, g.grading)
    moved = move_set(g, subset)
    check_grading(moved.graph, moved.grading)
    n = g.grading.modulus
    labels = {
        h: list(range(k * n, k * n + n))
        for k, h in enumerate(sorted(g.graph.half_edges))
    }
    pairing = _pairing(g.graph, labels)
    lifted = frozenset(label for h in subset for label in labels[h])
    moved_then_covered = _total(moved, labels, pairing)
    covered_then_moved = move_set_underlying(_total(g, labels, pairing), lifted)
    return moved_then_covered, covered_then_moved


def cover_commute_witness(g: GradedGraph, subset: frozenset[str]) -> str | None:
    """None when covering the moved graph equals moving the covered graph;
    else the first sheet label h_i, in sorted order, whose sigma-image or
    multiplicity differs between the two sides.

    The two sides share their half-edges and their pairing, so where they
    differ, some sheet label's sigma-image or multiplicity does.
    """
    first, second = _commuting_sides(g, subset)
    if first == second:
        return None
    names = sorted(g.graph.half_edges)
    n = g.grading.modulus
    return min(
        sheet_label(names[k // n], k % n)
        for k in first.half_edges
        if first.orientation(k) != second.orientation(k)
        or first.multiplicity[k] != second.multiplicity[k]
    )


def check_cover_commutes(g: GradedGraph, subset: frozenset[str]) -> bool:
    """Does covering the moved graph equal moving the covered graph?

    Both sides are compared as labelled combinatorial maps under the
    identification that keeps every sheet label fixed.  They are built on
    integer labels, half-edge k of ``sorted(g.graph.half_edges)`` on sheet i
    being k * n + i, which name the sheet labels h_i of ``cover`` one to
    one, so the identification is the same.  The moved graph has the
    half-edges, the pairing and the modulus of g, so its covering shares
    the labels and the covering pairing with g's: they are built once, and
    only its orientation and multiplicity anew.
    """
    return cover_commute_witness(g, subset) is None

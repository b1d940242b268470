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


def _sheets(
    graph: BrauerGraph, n: int
) -> tuple[dict[str, list[str]], dict[str, tuple[str, int]], Permutation]:
    """The half-edge labels, ``sheet_of`` and the pairing of a covering on
    ``n`` sheets: a cross half-edge pairs with itself on the next sheet.
    None of them reads the orientation or the grading."""
    labels = {h: [sheet_label(h, i) for i in range(n)] for h in graph.half_edges}
    sheet_of = {
        label: (h, i) for h, row in labels.items() for i, label in enumerate(row)
    }
    if len(sheet_of) != len(graph.half_edges) * n:
        raise ValueError("half-edge names collide under sheet labelling")
    cross = graph.cross_half_edges
    pairing = {}
    for h, row in labels.items():
        partner = labels[graph.pairing(h)]
        for i, label in enumerate(row):
            pairing[label] = row[(i + 1) % n] if h in cross else partner[i]
    return labels, sheet_of, Permutation(pairing)


def _total(
    g: GradedGraph, labels: Mapping[str, list[str]], pairing: Permutation
) -> BrauerGraph:
    """The covering graph of ``g`` on the sheets ``_sheets`` labelled."""
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
    n = g.grading.modulus
    labels, sheet_of, pairing = _sheets(g.graph, n)
    return CoveredGraph(g, _total(g, labels, pairing), sheet_of, n, labels)


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


def check_cover_commutes(g: GradedGraph, subset: frozenset[str]) -> bool:
    """Does covering the moved graph equal moving the covered graph?

    Both sides are compared as labelled combinatorial maps under the
    identification that keeps every sheet label fixed.  The moved graph has
    the half-edges, the pairing and the modulus of g, so its covering shares
    the sheet labels and the covering pairing with g's: they are built once,
    and only its orientation and multiplicity anew.
    """
    subset = frozenset(subset)
    covered = cover(g)
    moved = move_set(g, subset)
    check_grading(moved.graph, moved.grading)
    moved_then_covered = _total(moved, covered.labels, covered.total.pairing)
    covered_then_moved = move_set_underlying(
        covered.total, lift_subset(covered, subset)
    )
    return moved_then_covered == covered_then_moved

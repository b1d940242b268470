"""Sectors and graded generalized Kauer moves.

A sector (h, r) of a pairing-stable subset H' is a maximal run
h, sigma h, ..., sigma^r h of consecutive half-edges inside H'; the move
detaches the run and reattaches it at the far end of the next edge, updating
orientation, multiplicity and grading.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import BrauerGraph, GradedGraph, Grading
from .permutations import Permutation


@dataclass(frozen=True, order=True)
class Sector:
    h: str
    r: int


def _check_subset(graph: BrauerGraph, subset: frozenset[str]) -> frozenset[str]:
    subset = frozenset(subset)
    stray = subset - graph.half_edges
    if stray:
        raise ValueError(f"subset contains unknown half-edges: {sorted(stray)}")
    unstable = {h for h in subset if graph.pairing(h) not in subset}
    if unstable:
        raise ValueError(
            f"subset is not pairing-stable at {sorted(unstable)}"
        )
    return subset


def sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    """All sectors of ``subset``.

    A half-edge whose whole sigma-orbit lies inside the subset yields no
    sector: the defining escape index does not exist.
    """
    subset = _check_subset(graph, subset)
    out: set[Sector] = set()
    for h in subset:
        r = escape_index(graph, subset, h)
        if r is not None:
            out.add(Sector(h, r))
    return out


def escape_index(graph: BrauerGraph, subset: frozenset[str], h: str) -> int | None:
    """Least r with sigma^{r+1} h outside ``subset``; None if h's orbit lies inside."""
    orbit = graph.sigma_orbit_of(h)
    for r, x in enumerate(orbit[1:] + orbit[:1]):
        if x not in subset:
            return r
    return None


def maximal_sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    subset = _check_subset(graph, subset)
    inv = graph.orientation.inverse()
    return {s for s in sectors(graph, subset) if inv(s.h) not in subset}


def _sector_run(graph: BrauerGraph, sector: Sector) -> list[str]:
    run = [sector.h]
    for _ in range(sector.r):
        run.append(graph.orientation(run[-1]))
    return run


def _check_sector(graph: BrauerGraph, sector: Sector, subset: frozenset[str]) -> None:
    if sector not in sectors(graph, subset):
        raise ValueError(f"({sector.h}, {sector.r}) is not a sector of the subset")


def _moved_orientation_multiplicity(
    graph: BrauerGraph, sector: Sector
) -> tuple[Permutation, dict[str, int], list[str], str, str]:
    """Moved orientation and multiplicity, with the run, escape and target used."""
    sigma = graph.orientation
    run = _sector_run(graph, sector)
    escape = sigma(run[-1])                 # sigma^{r+1} h
    target = graph.pairing(escape)          # iota sigma^{r+1} h
    domain = graph.half_edges
    left = Permutation.transposition(domain, sector.h, escape)
    right = Permutation.transposition(domain, run[-1], target)
    new_sigma = left * sigma * right
    new_m = dict(graph.multiplicity)
    for x in run:
        new_m[x] = graph.multiplicity[target]
    return new_sigma, new_m, run, escape, target


def move_sector_underlying(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> BrauerGraph:
    """The ungraded Kauer move of one sector (orientation and multiplicity only)."""
    subset = _check_subset(graph, subset)
    _check_sector(graph, sector, subset)
    new_sigma, new_m, *_ = _moved_orientation_multiplicity(graph, sector)
    return BrauerGraph(graph.half_edges, graph.pairing, new_sigma, new_m)


def move_sector(
    g: GradedGraph, sector: Sector, subset: frozenset[str]
) -> GradedGraph:
    """The graded generalized Kauer move of one sector."""
    graph, grading = g.graph, g.grading
    subset = _check_subset(graph, subset)
    _check_sector(graph, sector, subset)
    new_sigma, new_m, run, escape, target = _moved_orientation_multiplicity(
        graph, sector
    )
    previous = graph.orientation.inverse()(sector.h)  # sigma^{-1} h
    last = run[-1]  # sigma^r h

    n = grading.modulus
    d = dict(grading.degrees)
    run_sum = sum(grading(x) for x in run)
    cross_step = 1 if escape in graph.cross_half_edges else 0
    new_d = dict(d)
    new_d[target] = -(run_sum + cross_step)
    if target != previous:
        new_d[last] = d[target] + d[last] + cross_step
        new_d[previous] = run_sum + d[previous]
    else:
        new_d[last] = run_sum + d[previous] + d[last] + cross_step
        new_d[previous] = -(run_sum + cross_step)
    moved = BrauerGraph(graph.half_edges, graph.pairing, new_sigma, new_m)
    return GradedGraph(moved, Grading(n, new_d))


def _canonical_sector_order(graph: BrauerGraph, found: set[Sector]) -> list[Sector]:
    # Deterministic processing order; the result is order-independent.
    return sorted(found, key=lambda s: (min(graph.sigma_orbit_of(s.h)), s.h))


def move_set(g: GradedGraph, subset: frozenset[str]) -> GradedGraph:
    """Composite graded move of all maximal sectors of ``subset``."""
    subset = _check_subset(g.graph, subset)
    for sector in _canonical_sector_order(g.graph, maximal_sectors(g.graph, subset)):
        g = move_sector(g, sector, subset)
    return g


def move_set_underlying(graph: BrauerGraph, subset: frozenset[str]) -> BrauerGraph:
    subset = _check_subset(graph, subset)
    for sector in _canonical_sector_order(graph, maximal_sectors(graph, subset)):
        graph = move_sector_underlying(graph, sector, subset)
    return graph

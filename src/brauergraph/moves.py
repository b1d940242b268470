"""Sectors and graded generalized Kauer moves.

A sector (h, r) of a pairing-stable subset H' is a maximal run
h, sigma h, ..., sigma^r h of consecutive half-edges inside H'; the move
detaches the run and reattaches it at the far end of the next edge, updating
orientation, multiplicity and grading.

All sectors of a subset come from one walk per sigma-orbit; a single sector
is checked in O(r), and a move edits a copy of sigma at three half-edges.
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
    if graph.pairing.image(subset) != subset:
        unstable = sorted(h for h in subset if graph.pairing(h) not in subset)
        raise ValueError(f"subset is not pairing-stable at {unstable}")
    return subset


def sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    """All sectors of ``subset``, from one walk per sigma-orbit.

    Each orbit that meets the subset is walked backwards from a half-edge
    outside it: a subset half-edge just before an outside one has r = 0, and
    each step further back adds one.  A half-edge whose whole sigma-orbit
    lies inside the subset yields no sector: the defining escape index does
    not exist.
    """
    return _sectors(graph, _check_subset(graph, subset))


def _sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    """``sectors`` of a subset already checked."""
    sigma = graph.orientation
    out: set[Sector] = set()
    seen: set[str] = set()
    for h in subset:
        if h in seen:
            continue
        orbit = sigma.orbit(h)
        seen.update(orbit)
        outside = next((i for i, x in enumerate(orbit) if x not in subset), None)
        if outside is None:
            continue
        r = -1
        for k in range(1, len(orbit)):
            x = orbit[outside - k]
            if x in subset:
                r += 1
                out.add(Sector(x, r))
            else:
                r = -1
    return out


def escape_index(graph: BrauerGraph, subset: frozenset[str], h: str) -> int | None:
    """Least r with sigma^{r+1} h outside ``subset``; None if h's orbit lies inside."""
    sigma = graph.orientation
    x = sigma(h)
    r = 0
    while x in subset:
        if x == h:
            return None
        x = sigma(x)
        r += 1
    return r


def maximal_sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    return _maximal_sectors(graph, _check_subset(graph, subset))


def _maximal_sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    """``maximal_sectors`` of a subset already checked."""
    inv = graph.orientation.inverse()
    return {s for s in _sectors(graph, subset) if inv(s.h) not in subset}


def _check_sector(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> list[str]:
    """The run h, sigma h, ..., sigma^r h of ``sector``, checked in O(r).

    (h, r) is a sector when 0 <= r < |H|, the run lies in ``subset`` and
    sigma^{r+1} h does not.
    """
    h, r = sector.h, sector.r
    sigma = graph.orientation
    if 0 <= r < len(graph.half_edges) and h in subset:
        run = [h]
        for _ in range(r):
            x = sigma(run[-1])
            if x not in subset:
                break
            run.append(x)
        else:
            if sigma(run[-1]) not in subset:
                return run
    raise ValueError(f"({sector.h}, {sector.r}) is not a sector of the subset")


def _moved_orientation_multiplicity(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> tuple[Permutation, dict[str, int], list[str], str, str, str]:
    """Check ``sector`` of a subset already checked; the moved orientation
    and multiplicity, with the run, sigma^{-1} h, escape and target used.

    The moved orientation (h escape) * sigma * (last target) differs from
    sigma only at last = sigma^r h, at target and at sigma^{-1} h.
    """
    run = _check_sector(graph, sector, subset)
    sigma = graph.orientation
    h, last = run[0], run[-1]
    escape = sigma(last)                    # sigma^{r+1} h
    target = graph.pairing(escape)          # iota sigma^{r+1} h
    previous = escape                       # sigma^{-1} h, walked to from escape
    while sigma(previous) != h:
        previous = sigma(previous)

    def swap(a: str, b: str, x: str) -> str:
        return b if x == a else a if x == b else x

    new_sigma = sigma.with_images(
        {
            x: swap(h, escape, sigma(swap(last, target, x)))
            for x in (last, target, previous)
        }
    )
    new_m = dict(graph.multiplicity)
    for x in run:
        new_m[x] = graph.multiplicity[target]
    return new_sigma, new_m, run, previous, escape, target


def move_sector_underlying(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> BrauerGraph:
    """The ungraded Kauer move of one sector (orientation and multiplicity only)."""
    return _move_sector_underlying(graph, sector, _check_subset(graph, subset))


def _move_sector_underlying(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> BrauerGraph:
    new_sigma, new_m, *_ = _moved_orientation_multiplicity(graph, sector, subset)
    return BrauerGraph(graph.half_edges, graph.pairing, new_sigma, new_m)


def move_sector(
    g: GradedGraph, sector: Sector, subset: frozenset[str]
) -> GradedGraph:
    """The graded generalized Kauer move of one sector."""
    return _move_sector(g, sector, _check_subset(g.graph, subset))


def _move_sector(
    g: GradedGraph, sector: Sector, subset: frozenset[str]
) -> GradedGraph:
    """``move_sector`` on a subset already checked."""
    graph, grading = g.graph, g.grading
    new_sigma, new_m, run, previous, escape, target = _moved_orientation_multiplicity(
        graph, sector, subset
    )
    last = run[-1]  # sigma^r h

    n = grading.modulus
    d = grading.degrees
    run_sum = sum(grading(x) for x in run)
    cross_step = 1 if target == escape else 0  # escape is a cross half-edge
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
    least: dict[str, str] = {}  # half-edge -> least name on its sigma-orbit
    for s in found:
        if s.h not in least:
            orbit = graph.sigma_orbit_of(s.h)
            least.update(dict.fromkeys(orbit, min(orbit)))
    return sorted(found, key=lambda s: (least[s.h], s.h))


def move_set(g: GradedGraph, subset: frozenset[str]) -> GradedGraph:
    """Composite graded move of all maximal sectors of ``subset``."""
    # Moves keep the half-edges and the pairing, so one check of the subset
    # holds for every sector.
    subset = _check_subset(g.graph, subset)
    for sector in _canonical_sector_order(g.graph, _maximal_sectors(g.graph, subset)):
        g = _move_sector(g, sector, subset)
    return g


def move_set_underlying(graph: BrauerGraph, subset: frozenset[str]) -> BrauerGraph:
    subset = _check_subset(graph, subset)
    for sector in _canonical_sector_order(graph, _maximal_sectors(graph, subset)):
        graph = _move_sector_underlying(graph, sector, subset)
    return graph

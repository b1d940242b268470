"""Sectors and graded generalized Kauer moves.

A sector (h, r) of a pairing-stable subset H' is a maximal run
h, sigma h, ..., sigma^r h of consecutive half-edges inside H'; the move
detaches the run and reattaches it at the far end of the next edge, updating
orientation, multiplicity and grading.

All sectors of a subset, and the maximal ones, come from one forward walk
per sigma-orbit that emits only whole runs.  A sector is checked in O(r),
and its move edits sigma at three half-edges.  A composite move edits one
mutable copy of the orientation, its inverse, the multiplicity and the
degrees, sector by sector, and builds one ``Permutation``, one graph and
one grading at the end; a single-sector move is the one-sector case of the
same edit.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import BrauerGraph, GradedGraph, Grading
from .permutations import Permutation


class Sector(NamedTuple):
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


def _runs(
    graph: BrauerGraph, subset: frozenset[str]
) -> Iterator[tuple[str, list[str]]]:
    """Each whole run h, sigma h, ..., sigma^r h of ``subset`` half-edges
    with sigma^{-1} h and sigma^{r+1} h outside ``subset``, with the least
    name on its sigma-orbit.

    Each orbit that meets the subset is walked once, forwards from a
    half-edge outside it.  A half-edge whose whole sigma-orbit lies inside
    the subset is on no run: its escape index does not exist.
    """
    sigma = graph.orientation
    seen: set[str] = set()
    for h in subset:
        if h in seen:
            continue
        orbit = sigma.orbit(h)
        seen.update(orbit)
        outside = next((i for i, x in enumerate(orbit) if x not in subset), None)
        if outside is None:
            continue
        least = min(orbit)
        run: list[str] = []
        for x in orbit[outside + 1 :] + orbit[: outside + 1]:
            if x in subset:
                run.append(x)
            elif run:
                yield least, run
                run = []


def sectors(graph: BrauerGraph, subset: frozenset[str]) -> set[Sector]:
    """All sectors of ``subset``: the k-th half-edge of a run of length
    r + 1 has escape index r - k."""
    return {
        Sector(x, len(run) - 1 - k)
        for _, run in _runs(graph, _check_subset(graph, subset))
        for k, x in enumerate(run)
    }


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
    return set(_maximal_sectors(graph, _check_subset(graph, subset)))


def _maximal_sectors(graph: BrauerGraph, subset: frozenset[str]) -> list[Sector]:
    """The maximal sectors of a subset already checked, one per whole run,
    by the least name on their sigma-orbit and then by h: the deterministic
    order of a composite move, whose result does not depend on it."""
    found = sorted((least, run[0], len(run) - 1) for least, run in _runs(graph, subset))
    return [Sector(h, r) for _, h, r in found]


def _check_range(graph: BrauerGraph, sector: Sector, subset: frozenset[str]) -> None:
    """Reject ``sector`` unless 0 <= r < |H| and h lies in ``subset``."""
    if not (0 <= sector.r < len(graph.half_edges) and sector.h in subset):
        raise _not_a_sector(sector)


def _not_a_sector(sector: Sector) -> ValueError:
    return ValueError(f"({sector.h}, {sector.r}) is not a sector of the subset")


def _check_sector(
    sigma: dict[str, str], sector: Sector, subset: frozenset[str]
) -> list[str]:
    """The run h, sigma h, ..., sigma^r h of ``sector`` in the orientation
    ``sigma`` (a dict of images), checked in O(r).

    (h, r) is a sector when 0 <= r < |H| (see ``_check_range``), the run
    lies in ``subset`` and sigma^{r+1} h does not.
    """
    run = [sector.h]
    for _ in range(sector.r):
        x = sigma[run[-1]]
        if x not in subset:
            break
        run.append(x)
    else:
        if sigma[run[-1]] not in subset:
            return run
    raise _not_a_sector(sector)


def _move_sectors(
    graph: BrauerGraph,
    found: list[Sector],
    subset: frozenset[str],
    grading: Grading | None = None,
) -> tuple[BrauerGraph, Grading | None]:
    """Move each sector of ``found`` in turn, on one mutable copy of the
    orientation (with its inverse), the multiplicity and the degrees.

    Each sector is checked against the orientation as moved so far.  The
    moved orientation (h escape) * sigma * (last target) differs from sigma
    only at last = sigma^r h, at target and at sigma^{-1} h, whose images
    sigma(target), h and escape it permutes, so every intermediate map is a
    bijection; the final ``Permutation`` checks it once.
    """
    for sector in found:
        _check_range(graph, sector, subset)
    pairing = graph.pairing
    sigma = graph.orientation.mapping()
    inverse = {y: x for x, y in sigma.items()}
    m = dict(graph.multiplicity)
    d = dict(grading.degrees) if grading is not None else None
    n = grading.modulus if grading is not None else 1
    for sector in found:
        run = _check_sector(sigma, sector, subset)
        h, last = run[0], run[-1]
        escape = sigma[last]                    # sigma^{r+1} h
        target = pairing(escape)                # iota sigma^{r+1} h
        previous = inverse[h]                   # sigma^{-1} h
        m.update(dict.fromkeys(run, m[target]))
        # last -> sigma(target), target -> h, previous -> escape; when
        # target = previous these are the old images and sigma stays.
        if target != previous:
            after = sigma[target]
            sigma[last], sigma[target], sigma[previous] = after, h, escape
            inverse[after], inverse[h], inverse[escape] = last, target, previous
        if d is not None:
            run_sum = sum(d[x] for x in run)
            cross_step = 1 if target == escape else 0  # escape is a cross half-edge
            if target != previous:
                d[last], d[previous], d[target] = (
                    (d[target] + d[last] + cross_step) % n,
                    (run_sum + d[previous]) % n,
                    -(run_sum + cross_step) % n,
                )
            else:
                d[last] = (run_sum + d[previous] + d[last] + cross_step) % n
                d[previous] = -(run_sum + cross_step) % n
    moved = BrauerGraph(graph.half_edges, pairing, Permutation(sigma), m)
    return moved, (Grading(n, d) if d is not None else None)


def move_sector_underlying(
    graph: BrauerGraph, sector: Sector, subset: frozenset[str]
) -> BrauerGraph:
    """The ungraded Kauer move of one sector (orientation and multiplicity only)."""
    subset = _check_subset(graph, subset)
    return _move_sectors(graph, [sector], subset)[0]


def move_sector(
    g: GradedGraph, sector: Sector, subset: frozenset[str]
) -> GradedGraph:
    """The graded generalized Kauer move of one sector."""
    subset = _check_subset(g.graph, subset)
    return GradedGraph(*_move_sectors(g.graph, [sector], subset, g.grading))


def move_set(g: GradedGraph, subset: frozenset[str]) -> GradedGraph:
    """Composite graded move of all maximal sectors of ``subset``."""
    # Moves keep the half-edges and the pairing, so one check of the subset
    # holds for every sector.
    subset = _check_subset(g.graph, subset)
    found = _maximal_sectors(g.graph, subset)
    return GradedGraph(*_move_sectors(g.graph, found, subset, g.grading))


def move_set_underlying(graph: BrauerGraph, subset: frozenset[str]) -> BrauerGraph:
    subset = _check_subset(graph, subset)
    return _move_sectors(graph, _maximal_sectors(graph, subset), subset)[0]

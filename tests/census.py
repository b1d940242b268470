"""A bounded-exhaustive census of small graphs.

Every connected combinatorial map on n half-edges, up to relabelling, with
each sigma-orbit given multiplicity 1 or 2, is kept when ``validate``
accepts it.  For every nonempty set of its edges the census checks three
verdicts: ``mutation_verification(...).ok``, ``check_cover_commutes``
under ``default_grading``, and on skew graphs ``presentations_match(...).ok``
(once per graph, since the skew default grading does not depend on the
subset).  A move that ``move_set`` refuses counts as a failure too.

Each graph is also written to a file and run through ``cli.main`` with
``--json``, once per command: ``move``, ``check-commute`` and ``mutate
--verify`` take the first edge, and ``cut`` the least half-edge of each
sigma-orbit.  A command fails when an exception escapes ``main``, when it
exits with a code other than 0, 1 or 2, or when it prints no JSON object,
on stdout for exits 0 and 1 and on stderr for exit 2.

Random draws sample the accepted graphs; the census covers every one up to
a size.  Run it as

    PYTHONPATH=src python tests/census.py 7

to print the counts per n and every failing case.  pytest does not collect
this file; ``test_census.py`` runs it up to n = 5.
"""
from __future__ import annotations

import io
import itertools
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator, NamedTuple

from brauergraph import cli
from brauergraph.core import BrauerGraph, GradedGraph, validate
from brauergraph.covering import check_cover_commutes, cover, default_grading
from brauergraph.graphfile import emit
from brauergraph.homotopy import mutation_verification
from brauergraph.models import model_for, presentations_match
from brauergraph.permutations import Permutation

Map = tuple[tuple[int, ...], tuple[int, ...]]  # (pairing, orientation) images


def _involutions(n: int) -> Iterator[tuple[int, ...]]:
    """One involution of 0..n-1 per number k of fixed points, n - k even:
    the fixed points first, then the pairs (k, k+1), (k+2, k+3), ...  Every
    involution is conjugate to one of these, so with every orientation they
    meet every map up to relabelling."""
    for k in range(n % 2, n + 1, 2):
        images = list(range(n))
        for a in range(k, n, 2):
            images[a], images[a + 1] = a + 1, a
        yield tuple(images)


def _relabelled(iota: tuple[int, ...], sigma: tuple[int, ...], root: int) -> Map | None:
    """The map renumbered in order of discovery by a breadth-first walk from
    ``root`` along sigma, then the pairing; None when the walk misses a
    half-edge, that is, when the map is not connected."""
    label = {root: 0}
    order = [root]
    for x in order:
        for y in (sigma[x], iota[x]):
            if y not in label:
                label[y] = len(order)
                order.append(y)
    if len(order) < len(iota):
        return None
    return (
        tuple(label[iota[x]] for x in order),
        tuple(label[sigma[x]] for x in order),
    )


def maps(n: int) -> list[Map]:
    """The connected maps on n half-edges up to relabelling, each as the
    least of its n breadth-first relabellings."""
    found = set()
    for iota in _involutions(n):
        for sigma in itertools.permutations(range(n)):
            if _relabelled(iota, sigma, 0) is not None:
                found.add(min(_relabelled(iota, sigma, root) for root in range(n)))
    return sorted(found)


def graphs(found: list[Map]) -> Iterator[BrauerGraph]:
    """The graphs that ``validate`` accepts on the maps ``found``, each
    sigma-orbit carrying multiplicity 1 or 2.  Half-edge k is named k + 1."""
    for iota, sigma in found:
        names = [str(k + 1) for k in range(len(iota))]
        pairing = Permutation(dict(zip(names, (names[y] for y in iota))))
        orientation = Permutation(dict(zip(names, (names[y] for y in sigma))))
        orbits = orientation.orbits()
        for values in itertools.product((1, 2), repeat=len(orbits)):
            multiplicity = {h: m for orbit, m in zip(orbits, values) for h in orbit}
            graph = BrauerGraph(frozenset(names), pairing, orientation, multiplicity)
            if not validate(graph):
                yield graph


class Counts(NamedTuple):
    maps: int
    graphs: int
    moves: int
    presentations: int


def cli_failures(graph: BrauerGraph, workdir: Path) -> Iterator[tuple[str, str]]:
    """(command, what went wrong) for every command of ``cli.main`` that
    fails on ``graph``, written to a file in ``workdir``."""
    path = workdir / "graph.bg"
    path.write_text(emit(graph), encoding="utf-8")
    edge = min(graph.edges_by_label)
    delta = ",".join(min(orbit) for orbit in graph.sigma_orbits)
    commands = [
        ["validate"],
        ["invariants"],
        ["quiver", "--dot", str(workdir / "graph.dot")],
        ["relations"],
        ["dim"],
        ["cartan"],
        ["move", "--edges", edge],
        ["cover"],
        ["check-commute", "--edges", edge],
        ["mutate", "--edges", edge, "--verify"],
        ["cut", "--delta", delta],
    ]
    for name, *options in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["--json", name, str(path), *options])
        except (Exception, SystemExit) as exc:
            yield name, f"cli raised {type(exc).__name__}: {exc}"
            continue
        if code not in (0, 1, 2):
            yield name, f"cli exited with {code}"
            continue
        stream = "stderr" if code == 2 else "stdout"
        try:
            payload = json.loads((err if code == 2 else out).getvalue())
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict):
            yield name, f"cli exited with {code} and no JSON object on {stream}"


def failures(graph: BrauerGraph, workdir: Path) -> Iterator[tuple[str, str]]:
    """(edges moved, verdict) for every failing verdict of ``graph``; the
    edges are "-" for the presentation check and the command for the
    command line (``cli_failures``)."""
    if graph.is_skew:
        report = presentations_match(graph, cover(GradedGraph(graph, default_grading(graph))))
        if not report.ok:
            yield "-", "presentations_match: " + "; ".join(report.problems)
    model = model_for(graph)
    edges = graph.edges_by_label
    for size in range(1, len(edges) + 1):
        for chosen in itertools.combinations(edges, size):
            subset = frozenset(h for name in chosen for h in edges[name])
            name = ",".join(chosen)
            try:
                if not mutation_verification(model, subset).ok:
                    yield name, "mutation_verification"
                graded = GradedGraph(graph, default_grading(graph, subset))
                if not check_cover_commutes(graded, subset):
                    yield name, "check_cover_commutes"
            except ValueError as exc:
                yield name, f"refused: {exc}"
    yield from cli_failures(graph, workdir)


def census(n: int) -> tuple[Counts, list[tuple[BrauerGraph, str, str]]]:
    """The counts on n half-edges and every failing (graph, edges, verdict)."""
    found_maps = maps(n)
    found = []
    n_graphs = n_moves = n_presentations = 0
    with tempfile.TemporaryDirectory() as workdir:
        for graph in graphs(found_maps):
            n_graphs += 1
            n_moves += 2 ** len(graph.edges) - 1
            n_presentations += graph.is_skew
            found += [(graph, edges, why) for edges, why in failures(graph, Path(workdir))]
    return Counts(len(found_maps), n_graphs, n_moves, n_presentations), found


def main(argv: list[str]) -> int:
    top = int(argv[1]) if len(argv) > 1 else 5
    total = [0, 0, 0, 0]
    failed = 0
    for n in range(1, top + 1):
        start = time.perf_counter()
        counts, found = census(n)
        total = [a + b for a, b in zip(total, counts)]
        print(
            f"n={n}: {counts.maps} maps, {counts.graphs} graphs, {counts.moves} moves, "
            f"{counts.presentations} presentation checks, {len(found)} failures "
            f"({time.perf_counter() - start:.1f} s)"
        )
        for graph, edges, why in found:
            print(
                f"  FAIL pairing {graph.pairing.mapping()} orientation "
                f"{graph.orientation.mapping()} multiplicity {graph.multiplicity} "
                f"edges {edges}: {why}"
            )
        failed += len(found)
    print(
        f"n<={top}: {total[0]} maps, {total[1]} graphs, {total[2]} moves, "
        f"{total[3]} presentation checks, {failed} failures"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

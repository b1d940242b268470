from __future__ import annotations

import pytest

from brauergraph.core import BrauerGraph, GradedGraph, Grading, zero_grading
from brauergraph.moves import Sector, escape_index, maximal_sectors, sectors
from brauergraph.permutations import Permutation


def build_graph(names, pairing_cycles, orientation_cycles, multiplicities=None):
    pairing = Permutation.from_cycles(names, pairing_cycles)
    orientation = Permutation.from_cycles(names, orientation_cycles)
    m = {h: 1 for h in names}
    m.update(multiplicities or {})
    for orbit in orientation.orbits():
        value = max(m[h] for h in orbit)
        m.update({h: value for h in orbit})
    return BrauerGraph(frozenset(names), pairing, orientation, m)


@pytest.fixture
def ex1() -> BrauerGraph:
    """Four edges around one central vertex, multiplicity two on three of them."""
    names = ["1+", "1-", "2+", "2-", "3+", "3-", "4+", "4-"]
    return build_graph(
        names,
        [("1+", "1-"), ("2+", "2-"), ("3+", "3-"), ("4+", "4-")],
        [("1-", "4-", "3-", "2-"), ("2+", "3+")],
        {"1+": 2, "2+": 2},
    )


@pytest.fixture
def ex1_grading(ex1) -> Grading:
    return Grading(2, {h: 0 for h in ex1.half_edges} | {"1+": 1, "3+": 1})


@pytest.fixture
def ex1_graded(ex1, ex1_grading) -> GradedGraph:
    return GradedGraph(ex1, ex1_grading)


@pytest.fixture
def ex1_subset(ex1) -> frozenset[str]:
    return frozenset(["1+", "1-", "2+", "2-"])


@pytest.fixture
def ex2() -> BrauerGraph:
    """Skew example: two skew legs, multiplicities 2 and 3."""
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    return build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
        {"4-": 3, "1-": 2},
    )


@pytest.fixture
def ex2_graded(ex2) -> GradedGraph:
    return GradedGraph(ex2, zero_grading(ex2))


@pytest.fixture
def ex2_subset(ex2) -> frozenset[str]:
    return frozenset(["1+", "1-", "4+", "4-"])


@pytest.fixture
def ex2_multiplicity_one() -> BrauerGraph:
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    return build_graph(
        names,
        [("1+", "1-"), ("4+", "4-"), ("5+", "5-")],
        [("1-", "3", "2"), ("1+", "4+", "5+")],
    )


@pytest.fixture
def loop_graph() -> BrauerGraph:
    """One edge whose ends are orientation-fixed, multiplicity 2 on one side."""
    return build_graph(["a", "b"], [("a", "b")], [], {"a": 2})


def reference_escape_index(graph, subset, h):
    """Least r with sigma^{r+1} h outside ``subset``, over the rotated orbit."""
    orbit = graph.sigma_orbit_of(h)
    for r, x in enumerate(orbit[1:] + orbit[:1]):
        if x not in subset:
            return r
    return None


def reference_sectors(graph, subset):
    """Every (h, escape index of h) for h in ``subset``, one orbit copy per h."""
    out = set()
    for h in subset:
        r = reference_escape_index(graph, subset, h)
        if r is not None:
            out.add(Sector(h, r))
    return out


def reference_maximal_sectors(graph, subset):
    inv = graph.orientation.inverse()
    return {s for s in reference_sectors(graph, subset) if inv(s.h) not in subset}


def assert_sectors_match_reference(graph, subset):
    assert sectors(graph, subset) == reference_sectors(graph, subset)
    assert maximal_sectors(graph, subset) == reference_maximal_sectors(graph, subset)
    for h in graph.half_edges:
        expected = reference_escape_index(graph, subset, h)
        assert escape_index(graph, subset, h) == expected

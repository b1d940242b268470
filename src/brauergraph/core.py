"""Brauer graphs and skew Brauer graphs as combinatorial maps.

A graph is the data (H, iota, sigma, m): a finite half-edge set, an
involutive pairing, an orientation permutation and a positive multiplicity
that is constant on sigma-orbits.  Pairing fixed points are the degenerate
"skew" legs ending at cross vertices.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .permutations import Permutation

if TYPE_CHECKING:
    from .presentation import Quiver


@dataclass(frozen=True)
class BrauerGraph:
    half_edges: frozenset[str]
    pairing: Permutation
    orientation: Permutation
    multiplicity: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_edges", frozenset(self.half_edges))
        object.__setattr__(self, "multiplicity", dict(self.multiplicity))

    @cached_property
    def cross_half_edges(self) -> frozenset[str]:
        """H_x: half-edges fixed by the pairing."""
        return self.pairing.fixed_points()

    @property
    def is_skew(self) -> bool:
        return bool(self.cross_half_edges)

    @cached_property
    def edges(self) -> list[tuple[str, ...]]:
        """Pairing orbits, i.e. the edges of the graph."""
        return self.pairing.orbits()

    @cached_property
    def edge_labels(self) -> dict[str, str]:
        """Half-edge -> edge label: common stem of a +/- pair, else the smaller name.

        Every name in the pairing's domain gets one, involution or not.
        """
        labels = {}
        for h in self.pairing.domain:
            other = self.pairing(h)
            if other == h:
                labels[h] = h
            elif h[:-1] == other[:-1] and {h[-1], other[-1]} == {"+", "-"}:
                labels[h] = h[:-1]
            else:
                labels[h] = min(h, other)
        return labels

    @cached_property
    def edges_by_label(self) -> dict[str, tuple[str, ...]]:
        """Each edge under its label (labels are distinct once ``validate`` passes)."""
        return {self.edge_labels[e[0]]: e for e in self.edges}

    @cached_property
    def sigma_orbits(self) -> list[tuple[str, ...]]:
        return self.orientation.orbits()

    def sigma_orbit_of(self, h: str) -> tuple[str, ...]:
        return self.orientation.orbit(h)

    @cached_property
    def quiver(self) -> Quiver:
        """The quiver of the graph (``presentation.quiver``), built once per
        graph object."""
        from .presentation import _build_quiver

        return _build_quiver(self)

    @cached_property
    def m_bar(self) -> int:
        """Least common multiple of all multiplicities (1 on the empty graph)."""
        return math.lcm(*self.multiplicity.values()) if self.multiplicity else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BrauerGraph):
            return NotImplemented
        return (
            self.half_edges == other.half_edges
            and self.pairing == other.pairing
            and self.orientation == other.orientation
            and dict(self.multiplicity) == dict(other.multiplicity)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.half_edges,
                self.pairing,
                self.orientation,
                frozenset(self.multiplicity.items()),
            )
        )


@dataclass(frozen=True)
class Grading:
    """Half-edge degrees in Z/nZ, stored as canonical residues 0..n-1."""

    modulus: int
    degrees: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("grading modulus must be positive")
        object.__setattr__(
            self, "degrees", {h: d % self.modulus for h, d in self.degrees.items()}
        )

    def __call__(self, h: str) -> int:
        return self.degrees[h]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grading):
            return NotImplemented
        return self.modulus == other.modulus and dict(self.degrees) == dict(
            other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.modulus, frozenset(self.degrees.items())))


class GradedGraph(NamedTuple):
    graph: BrauerGraph
    grading: Grading


class Vertex(NamedTuple):
    """A circ vertex: one sigma-orbit in cyclic order, with its multiplicity."""

    half_edges: tuple[str, ...]
    multiplicity: int


class OZInvariants(NamedTuple):
    """The derived invariants preserved by generalized Kauer moves.

    Faces are undefined for skew graphs; there the face fields are None.
    """

    edge_count: int
    circ_vertex_count: int
    cross_vertex_count: int
    face_count: int | None
    perimeter_multiset: tuple[int, ...] | None
    multiplicity_multiset: tuple[int, ...]
    bipartite: bool


def edge_name(graph: BrauerGraph, h: str) -> str:
    """The label of the edge through ``h`` (see ``BrauerGraph.edge_labels``)."""
    return graph.edge_labels[h]


def validate(graph: BrauerGraph) -> list[str]:
    """Return a report of violated invariants; empty means valid."""
    report: list[str] = []
    h_set = graph.half_edges
    if graph.pairing.domain != h_set:
        report.append("pairing domain differs from the half-edge set")
        return report
    if graph.orientation.domain != h_set:
        report.append("orientation domain differs from the half-edge set")
        return report
    if not graph.pairing.is_involution():
        report.append("pairing is not an involution")
    missing = sorted(h_set - set(graph.multiplicity))
    if missing:
        report.append(f"multiplicity undefined on {', '.join(missing)}")
        return report
    bad = sorted(h for h in h_set if graph.multiplicity[h] < 1)
    if bad:
        report.append(f"non-positive multiplicity on {', '.join(bad)}")
    for orbit in graph.sigma_orbits:
        values = {graph.multiplicity[h] for h in orbit}
        if len(values) > 1:
            report.append(
                "m not constant on sigma-orbit (" + " ".join(orbit) + ")"
            )
    both_fixed = sorted(
        graph.pairing.fixed_points() & graph.orientation.fixed_points()
    )
    for h in both_fixed:
        report.append(f"half-edge {h} fixed by both pairing and orientation")
    for component in connected_components(graph):
        if _is_excluded_component(graph, component):
            report.append(
                "excluded component (" + " ".join(sorted(component)) + ")"
            )
    # Edge labels name quiver vertices and idempotents, so they must be distinct.
    by_label: dict[str, list[tuple[str, ...]]] = {}
    for edge in graph.edges:
        by_label.setdefault(graph.edge_labels[edge[0]], []).append(edge)
    for label, edges in sorted(by_label.items()):
        if len(edges) > 1:
            shared = ", ".join("(" + " ".join(e) + ")" for e in edges)
            report.append(f"edge label {label} is shared by edges {shared}")
    return report


def _is_excluded_component(graph: BrauerGraph, component: frozenset[str]) -> bool:
    # Single plain edge or single skew leg, orientation trivial, m identically 1.
    if any(graph.multiplicity[h] != 1 for h in component):
        return False
    if any(graph.orientation(h) != h for h in component):
        return False
    if len(component) == 1:
        (h,) = component
        return graph.pairing(h) == h
    if len(component) == 2:
        a, b = sorted(component)
        return graph.pairing(a) == b
    return False


def connected_components(graph: BrauerGraph) -> list[frozenset[str]]:
    """Orbits of the group generated by the pairing and the orientation."""
    seen: set[str] = set()
    components = []
    for start in sorted(graph.half_edges):
        if start in seen:
            continue
        stack = [start]
        component = set()
        while stack:
            h = stack.pop()
            if h in component:
                continue
            component.add(h)
            stack.extend((graph.pairing(h), graph.orientation(h)))
        seen.update(component)
        components.append(frozenset(component))
    return components


def vertices(graph: BrauerGraph) -> tuple[list[Vertex], list[str]]:
    """Circ vertices (sigma-orbits with induced multiplicity) and cross vertices."""
    circ = [
        Vertex(orbit, graph.multiplicity[orbit[0]]) for orbit in graph.sigma_orbits
    ]
    cross = sorted(graph.cross_half_edges)
    return circ, cross


def face_permutation(graph: BrauerGraph) -> Permutation:
    """The face permutation sigma o iota (pairing first, then orientation)."""
    return graph.orientation * graph.pairing


def faces(graph: BrauerGraph) -> list[tuple[str, ...]]:
    """Orbits of the face permutation; perimeter of a face is its orbit length."""
    if graph.is_skew:
        raise ValueError("faces undefined for skew graphs")
    return face_permutation(graph).orbits()


def oz_invariants(graph: BrauerGraph) -> OZInvariants:
    circ, cross = vertices(graph)
    if graph.is_skew:
        face_count = None
        perimeters: tuple[int, ...] | None = None
    else:
        face_orbits = faces(graph)
        face_count = len(face_orbits)
        perimeters = tuple(sorted(len(f) for f in face_orbits))
    return OZInvariants(
        edge_count=len(graph.edges),
        circ_vertex_count=len(circ),
        cross_vertex_count=len(cross),
        face_count=face_count,
        perimeter_multiset=perimeters,
        multiplicity_multiset=tuple(sorted(v.multiplicity for v in circ)),
        bipartite=is_bipartite(graph),
    )


def is_bipartite(graph: BrauerGraph) -> bool:
    """Two-colorability of the underlying multigraph, cross vertices included."""
    orbit_of = {h: orbit[0] for orbit in graph.sigma_orbits for h in orbit}
    adjacency: dict[str, list[str]] = {}

    def vertex_key(h: str) -> str:
        return "o:" + orbit_of[h]

    for edge in graph.edges:
        if len(edge) == 1:
            ends = (vertex_key(edge[0]), "x:" + edge[0])
        else:
            ends = (vertex_key(edge[0]), vertex_key(edge[1]))
        if ends[0] == ends[1]:
            return False
        adjacency.setdefault(ends[0], []).append(ends[1])
        adjacency.setdefault(ends[1], []).append(ends[0])
    color: dict[str, int] = {}
    for start in sorted(adjacency):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def grading_violations(graph: BrauerGraph, grading: Grading) -> list[str]:
    """Check admissibility (ordinary) or 0-homogeneity (skew) of a grading."""
    report: list[str] = []
    expected_modulus = 2 if graph.is_skew else graph.m_bar
    if grading.modulus != expected_modulus:
        report.append(
            f"modulus {grading.modulus} differs from expected {expected_modulus}"
        )
        return report
    if set(grading.degrees) != set(graph.half_edges):
        report.append("grading domain differs from the half-edge set")
        return report
    n = grading.modulus
    for orbit in graph.sigma_orbits:
        total = sum(grading(h) for h in orbit) % n
        if graph.is_skew:
            required = 0
        else:
            required = (graph.m_bar // graph.multiplicity[orbit[0]]) % n
        if total != required:
            report.append(
                f"vertex ({' '.join(orbit)}) has degree sum {total}, "
                f"required {required}"
            )
    return report


def check_grading(graph: BrauerGraph, grading: Grading) -> None:
    """Raise ``ValueError`` naming every violation when ``grading`` is invalid."""
    problems = grading_violations(graph, grading)
    if problems:
        raise ValueError("invalid grading: " + "; ".join(problems))


def zero_grading(graph: BrauerGraph) -> Grading:
    modulus = 2 if graph.is_skew else graph.m_bar
    return Grading(modulus, {h: 0 for h in graph.half_edges})


def gen_random(
    seed: int,
    n_half: int = 8,
    allow_skew: bool = False,
    max_multiplicity: int = 3,
) -> BrauerGraph:
    """Deterministic random valid graph; used by the fuzz suites."""
    if n_half < 2:
        raise ValueError("need at least two half-edges")
    rng = random.Random(seed)
    if allow_skew:
        n_cross = rng.randrange(0, n_half + 1)
        if (n_half - n_cross) % 2:
            n_cross += -1 if n_cross > 0 else 1
    else:
        if n_half % 2:
            n_half += 1
        n_cross = 0
    names: list[str] = [str(i + 1) for i in range(n_cross)]
    n_edges = (n_half - n_cross) // 2
    for i in range(n_edges):
        names.extend((f"{n_cross + i + 1}+", f"{n_cross + i + 1}-"))
    pairing = Permutation.from_cycles(
        names,
        [(f"{n_cross + i + 1}+", f"{n_cross + i + 1}-") for i in range(n_edges)],
    )
    for _ in range(1000):
        shuffled = list(names)
        rng.shuffle(shuffled)
        sigma = Permutation({a: b for a, b in zip(names, shuffled)})
        multiplicity: dict[str, int] = {}
        for orbit in sigma.orbits():
            value = rng.randint(1, max_multiplicity)
            multiplicity.update({h: value for h in orbit})
        graph = BrauerGraph(frozenset(names), pairing, sigma, multiplicity)
        if not validate(graph):
            return graph
    raise RuntimeError(f"no valid graph found for seed {seed}")


def random_ih_stable_subset(graph: BrauerGraph, rng: random.Random) -> frozenset[str]:
    """A random pairing-stable subset of half-edges (a random set of edges)."""
    chosen: set[str] = set()
    for edge in graph.edges:
        if rng.random() < 0.5:
            chosen.update(edge)
    return frozenset(chosen)


def random_valid_grading(
    graph: BrauerGraph, rng: random.Random, base: Grading
) -> Grading:
    """Randomize a valid grading by zero-sum changes at single vertices."""
    degrees = dict(base.degrees)
    n = base.modulus
    orbits = [orbit for orbit in graph.sigma_orbits if len(orbit) >= 2]
    for _ in range(3 * len(orbits)):
        if not orbits or n == 1:
            break
        orbit = orbits[rng.randrange(len(orbits))]
        a, b = rng.sample(range(len(orbit)), 2)
        shift = rng.randrange(1, n)
        degrees[orbit[a]] = (degrees[orbit[a]] + shift) % n
        degrees[orbit[b]] = (degrees[orbit[b]] - shift) % n
    return Grading(n, degrees)

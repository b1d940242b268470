"""The plain-text graph format.

A file is a sequence of keyword lines (``#`` starts a comment):

    halfedges 1+ 1- 2+ 2- 3+ 3- 4+ 4-
    pairing (1+ 1-)(2+ 2-)(3+ 3-)(4+ 4-)
    orientation (1- 4- 3- 2-)(2+ 3+)
    multiplicity 1+ = 2
    grading 1+ = 1
    edge left = 1+ 1-

Names missing from ``pairing`` are skew legs, names missing from
``orientation`` are orientation-fixed.  Multiplicities propagate along
orientation orbits and default to 1; grading values default to 0 and live
modulo the graph's natural modulus.  ``pairing`` and ``orientation`` appear
at most once, and a half-edge's degree may be repeated only with a value
equal modulo the modulus.  ``edge`` lines are optional aliases; an
alias may not take the label of another edge.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import BrauerGraph, Grading
from .permutations import Permutation


class GraphFileError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ParsedGraph(NamedTuple):
    graph: BrauerGraph
    grading: Grading | None
    aliases: dict[str, tuple[str, ...]]


def _parse_cycles(body: str, line: int, offset: int, names: set[str]):
    """The cycles of ``body``, with error columns counted from ``offset``,
    the index in its line of the body's first character."""
    cycles: list[list[str]] = []
    current: list[str] | None = None
    token = ""
    token_col = 0
    for k, ch in enumerate(body + " "):
        col = offset + k + 1
        if ch == "(":
            if current is not None:
                raise GraphFileError("nested '(' in cycle list", line, col)
            if token:
                raise GraphFileError(f"stray token {token!r}", line, token_col)
            current = []
        elif ch == ")":
            if current is None:
                raise GraphFileError("unmatched ')'", line, col)
            if token:
                current.append(token)
                token = ""
            if not current:
                raise GraphFileError("empty cycle", line, col)
            cycles.append(current)
            current = None
        elif ch.isspace():
            if token:
                if current is None:
                    raise GraphFileError(
                        f"token {token!r} outside any cycle", line, token_col
                    )
                current.append(token)
                token = ""
        else:
            if not token:
                token_col = col
            token += ch
    if current is not None:
        raise GraphFileError("unterminated cycle", line, offset + len(body))
    seen: set[str] = set()
    for cycle in cycles:
        for name in cycle:
            if name not in names:
                raise GraphFileError(f"unknown half-edge name {name!r}", line)
            if name in seen:
                raise GraphFileError(f"name {name!r} repeats across cycles", line)
            seen.add(name)
    return cycles


def _parse_assignment(body: str, line: int, keyword: str) -> tuple[str, str]:
    if "=" not in body:
        raise GraphFileError(f"{keyword} lines read 'name = value'", line)
    name, _, value = body.partition("=")
    return name.strip(), value.strip()


def parse(text: str) -> ParsedGraph:
    names: list[str] = []
    cycle_lists: dict[str, list[list[str]]] = {}
    multiplicity_entries: list[tuple[str, int, int]] = []
    grading_entries: list[tuple[str, int, int]] = []
    alias_entries: list[tuple[str, tuple[str, ...], int]] = []
    saw_halfedges = False
    saw_grading = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        keyword, _, body = stripped.partition(" ")
        body = body.strip()
        # The index in ``raw`` of the body's first character: the body ends
        # where the line does, before any comment and trailing space.
        body_at = len(raw.split("#", 1)[0].rstrip()) - len(body)
        if keyword == "halfedges":
            saw_halfedges = True
            for name in body.split():
                if name in names:
                    raise GraphFileError(f"duplicate half-edge {name!r}", lineno)
                names.append(name)
        elif keyword in ("pairing", "orientation"):
            if keyword in cycle_lists:
                raise GraphFileError(f"repeated {keyword!r} line", lineno)
            cycles = _parse_cycles(body, lineno, body_at, set(names))
            cycle_lists[keyword] = cycles
            if keyword == "pairing" and any(len(cycle) != 2 for cycle in cycles):
                raise GraphFileError("pairing cycles must be transpositions", lineno)
        elif keyword == "multiplicity":
            name, value = _parse_assignment(body, lineno, "multiplicity")
            if name not in names:
                raise GraphFileError(f"unknown half-edge name {name!r}", lineno)
            try:
                parsed = int(value)
            except ValueError:
                raise GraphFileError(f"bad multiplicity {value!r}", lineno) from None
            if parsed < 1:
                raise GraphFileError(f"bad multiplicity {parsed}", lineno)
            multiplicity_entries.append((name, parsed, lineno))
        elif keyword == "grading":
            saw_grading = True
            name, value = _parse_assignment(body, lineno, "grading")
            if name not in names:
                raise GraphFileError(f"unknown half-edge name {name!r}", lineno)
            try:
                parsed = int(value)
            except ValueError:
                raise GraphFileError(f"bad degree {value!r}", lineno) from None
            grading_entries.append((name, parsed, lineno))
        elif keyword == "edge":
            name, value = _parse_assignment(body, lineno, "edge")
            members = tuple(value.split())
            for member in members:
                if member not in names:
                    raise GraphFileError(f"unknown half-edge name {member!r}", lineno)
            alias_entries.append((name, members, lineno))
        else:
            raise GraphFileError(f"unknown keyword {keyword!r}", lineno)

    if not saw_halfedges:
        raise GraphFileError("missing 'halfedges' section", 1)
    name_set = set(names)
    pairing = Permutation.from_cycles(name_set, cycle_lists.get("pairing", []))
    orientation = Permutation.from_cycles(name_set, cycle_lists.get("orientation", []))

    multiplicity = {}
    for orbit in orientation.orbits():
        assigned = [(n, v, ln) for n, v, ln in multiplicity_entries if n in orbit]
        values = {v for _, v, _ in assigned}
        if len(values) > 1:
            raise GraphFileError(
                "bad multiplicity: conflicting values on one orbit", assigned[-1][2]
            )
        value = values.pop() if values else 1
        multiplicity.update({h: value for h in orbit})
    graph = BrauerGraph(frozenset(names), pairing, orientation, multiplicity)

    grading = None
    if saw_grading:
        modulus = graph.grading_modulus
        degrees: dict[str, int] = {}
        for name, value, lineno in grading_entries:
            degree = value % modulus
            if degrees.setdefault(name, degree) != degree:
                raise GraphFileError(f"conflicting degrees for {name!r}", lineno)
        grading = Grading(modulus, {h: degrees.get(h, 0) for h in names})
    aliases = {}
    for name, members, lineno in alias_entries:
        if name in aliases:
            raise GraphFileError(f"duplicate edge alias {name!r}", lineno)
        labelled = graph.edges_by_label.get(name)
        if labelled is not None and set(labelled) != set(members):
            raise GraphFileError(
                f"edge alias {name!r} is the label of edge ({' '.join(labelled)})",
                lineno,
            )
        aliases[name] = members
    return ParsedGraph(graph, grading, aliases)


def _emit_cycles(cycles: list[tuple[str, ...]]) -> str:
    return "".join("(" + " ".join(c) + ")" for c in cycles)


def emit(
    graph: BrauerGraph,
    grading: Grading | None = None,
    aliases: dict[str, tuple[str, ...]] | None = None,
) -> str:
    lines = ["halfedges " + " ".join(sorted(graph.half_edges))]
    lines.append("pairing " + _emit_cycles(graph.pairing.cycles()))
    lines.append("orientation " + _emit_cycles(graph.orientation.cycles()))
    for orbit in graph.sigma_orbits:
        value = graph.multiplicity[orbit[0]]
        if value != 1:
            lines.append(f"multiplicity {orbit[0]} = {value}")
    if grading is not None:
        entries = [
            f"grading {h} = {grading(h)}"
            for h in sorted(graph.half_edges)
            if grading(h)
        ]
        if not entries and graph.half_edges:
            entries = [f"grading {min(graph.half_edges)} = 0"]
        lines.extend(entries)
    for name in sorted(aliases or {}):
        lines.append(f"edge {name} = " + " ".join(aliases[name]))
    return "\n".join(lines) + "\n"

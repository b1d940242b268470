"""Command line interface.

``main`` reads the graph file once and rejects an invalid graph for every
subcommand but ``validate``; the subcommand runs one library pipeline on the
parsed file and prints a deterministic report.  ``--json`` swaps the human
output for one JSON object on stdout and machine-readable errors on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import covering, homotopy, models, moves
from .core import GradedGraph, check_grading, oz_invariants, validate
from .graphfile import GraphFileError, ParsedGraph, emit, parse
from .presentation import (
    admissible_cut,
    presentation,
    quiver,
    render_presentation,
    render_quiver,
    render_relations,
    render_vertex,
    to_dot,
)


class CommandError(Exception):
    pass


class Outcome(NamedTuple):
    lines: list[str]
    payload: dict
    code: int = 0


def _load(path: str) -> ParsedGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            parsed = parse(fh.read())
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from exc
    except GraphFileError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    return parsed


def _subset_from_edges(parsed: ParsedGraph, listing: str) -> frozenset[str]:
    table = parsed.graph.edges_by_label | parsed.aliases
    chosen: set[str] = set()
    for token in listing.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in table:
            raise CommandError(
                f"unknown edge {token!r}; known edges: {', '.join(sorted(table))}"
            )
        chosen.update(table[token])
    return frozenset(chosen)


def _graded(parsed: ParsedGraph, choice: str, subset: frozenset[str]) -> GradedGraph:
    graph = parsed.graph
    if choice == "file" or (choice == "auto" and parsed.grading is not None):
        if parsed.grading is None:
            raise CommandError("the file carries no grading")
        grading = parsed.grading
    else:
        grading = covering.default_grading(graph, subset)
    check_grading(graph, grading)
    return GradedGraph(graph, grading)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}") from exc


def _write_output(text: str, path: str | None, lines: list[str]) -> None:
    if path:
        _write(path, text)
        lines.append(f"wrote {path}")
    else:
        lines.extend(text.rstrip("\n").split("\n"))


def cmd_validate(args, parsed: ParsedGraph) -> Outcome:
    problems = validate(parsed.graph)
    if problems:
        return Outcome(
            ["invalid:"] + ["  " + p for p in problems],
            {"valid": False, "violations": problems},
            1,
        )
    return Outcome(["valid"], {"valid": True, "violations": []})


def cmd_invariants(args, parsed: ParsedGraph) -> Outcome:
    inv = oz_invariants(parsed.graph)
    payload = {
        "edges": inv.edge_count,
        "circ_vertices": inv.circ_vertex_count,
        "cross_vertices": inv.cross_vertex_count,
        "faces": inv.face_count,
        "perimeters": None
        if inv.perimeter_multiset is None
        else list(inv.perimeter_multiset),
        "multiplicities": list(inv.multiplicity_multiset),
        "bipartite": inv.bipartite,
    }
    lines = [
        f"edges: {inv.edge_count}",
        f"circ vertices: {inv.circ_vertex_count}",
        f"cross vertices: {inv.cross_vertex_count}",
        f"faces: {inv.face_count if inv.face_count is not None else 'undefined (skew)'}",
        "perimeters: "
        + (
            " ".join(map(str, inv.perimeter_multiset))
            if inv.perimeter_multiset is not None
            else "undefined (skew)"
        ),
        "multiplicities: " + " ".join(map(str, inv.multiplicity_multiset)),
        f"bipartite: {str(inv.bipartite).lower()}",
    ]
    return Outcome(lines, payload)


def cmd_quiver(args, parsed: ParsedGraph) -> Outcome:
    q = quiver(parsed.graph)
    lines = render_quiver(q)
    payload = {
        "vertices": [render_vertex(v) for v in q.vertices],
        "arrows": len(q.arrows),
    }
    if args.dot:
        # Only the dot file lists relations, so only it meets the rule-(I) cap.
        _write(args.dot, to_dot(presentation(parsed.graph)))
        lines.append(f"wrote {args.dot}")
        payload["dot"] = args.dot
    return Outcome(lines, payload)


def cmd_relations(args, parsed: ParsedGraph) -> Outcome:
    p = presentation(parsed.graph)
    rendered = render_relations(p)
    return Outcome(rendered, {"relations": rendered})


def cmd_dim(args, parsed: ParsedGraph) -> Outcome:
    model = models.model_for(parsed.graph, parsed.grading)
    return Outcome([f"dim = {model.table.dim}"], {"dim": model.table.dim})


def cmd_cartan(args, parsed: ParsedGraph) -> Outcome:
    model = models.model_for(parsed.graph, parsed.grading)
    cartan = model.table.cartan()
    order = sorted(model.vertex_position, key=lambda v: model.vertex_position[v])
    labels = [render_vertex(v) for v in order]
    lines = ["vertices: " + " ".join(labels)]
    lines += [" ".join(str(x) for x in row) for row in cartan]
    return Outcome(lines, {"vertices": labels, "cartan": cartan})


def cmd_move(args, parsed: ParsedGraph) -> Outcome:
    subset = _subset_from_edges(parsed, args.edges)
    graded = _graded(parsed, args.grading, subset)
    moved = moves.move_set(graded, subset)
    text = emit(moved.graph, moved.grading, parsed.aliases or None)
    lines: list[str] = []
    _write_output(text, args.output, lines)
    return Outcome(lines, {"moved": text})


def cmd_cover(args, parsed: ParsedGraph) -> Outcome:
    graded = _graded(parsed, args.grading, frozenset())
    covered = covering.cover(graded)
    text = emit(covered.total)
    lines: list[str] = []
    _write_output(text, args.output, lines)
    return Outcome(lines, {"total": text, "sheets": covered.group_order})


def cmd_check_commute(args, parsed: ParsedGraph) -> Outcome:
    subset = _subset_from_edges(parsed, args.edges)
    graded = _graded(parsed, args.grading, subset)
    witness = covering.cover_commute_witness(graded, subset)
    if witness is None:
        return Outcome(["commutes: true"], {"commutes": True})
    lines = ["commutes: false", f"witness: {witness}"]
    return Outcome(lines, {"commutes": False, "witness": witness}, 1)


def cmd_mutate(args, parsed: ParsedGraph) -> Outcome:
    subset = _subset_from_edges(parsed, args.edges)
    model = models.model_for(parsed.graph, parsed.grading)
    if args.verify:
        report = homotopy.mutation_verification(model, subset)
        summands = report.summands
    else:
        summands = homotopy.mutation_object(model, subset)
    lines = []
    payload: dict = {"summands": []}
    for name, comp in summands:
        if not comp.deg_minus1:
            desc = "stalk"
        else:
            desc = f"cone with {len(comp.deg_0)} target component(s)"
        lines.append(f"edge {name}: {desc}")
        payload["summands"].append({"edge": name, "kind": desc})
    code = 0
    if args.verify:
        checks = [
            ("silting", report.silting),
            ("tilting", report.tilting),
            ("left-minimal", report.left_minimal),
        ]
        for label, flag in checks:
            lines.append(f"{label}: {'ok' if flag else 'FAIL'}")
        if report.tilting:
            end = report.dim_end
            match = "ok" if report.cartan_equal else "FAIL"
        else:
            end = "not computed (T is not tilting)"
            match = "not run (T is not tilting)"
        lines.append(f"dim End(T) = {end}")
        lines.append(f"dim moved algebra = {report.dim_moved}")
        lines.append(f"cartan match: {match}")
        payload["verify"] = {
            "silting": report.silting,
            "tilting": report.tilting,
            "left_minimal": report.left_minimal,
            "dim_end": report.dim_end,
            "dim_moved": report.dim_moved,
            "cartan_equal": report.cartan_equal,
        }
        if report.hom_witness is not None:
            source, target, shift, dim = report.hom_witness
            lines.append(
                f"hom witness: Hom(T_{source}, T_{target}[{shift}]) "
                f"has dimension {dim}"
            )
            payload["verify"]["hom_witness"] = {
                "source": source, "target": target, "shift": shift, "dim": dim
            }
        if report.cartan_witness is not None:
            row, col, end, moved = report.cartan_witness
            lines.append(
                f"cartan witness: entry ({row}, {col}) is {end} in End(T), "
                f"{moved} in the moved algebra"
            )
            payload["verify"]["cartan_witness"] = {
                "row": row, "column": col, "end": end, "moved": moved
            }
        code = 0 if report.ok else 1
    return Outcome(lines, payload, code)


def cmd_cut(args, parsed: ParsedGraph) -> Outcome:
    delta = frozenset(t.strip() for t in args.delta.split(",") if t.strip())
    p = admissible_cut(parsed.graph, delta)
    text = render_presentation(p)
    return Outcome(text.rstrip("\n").split("\n"), {"presentation": text})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauergraph",
        description="Brauer graphs, Kauer moves, coverings and algebra models.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="graph file")
        p.set_defaults(handler=fn)
        return p

    add("validate", cmd_validate, help="report violated invariants")
    add("invariants", cmd_invariants, help="derived invariants of the graph")
    p = add("quiver", cmd_quiver, help="quiver of the algebra")
    p.add_argument("--dot", help="also write a DOT file")
    add("relations", cmd_relations, help="generating relations")
    add("dim", cmd_dim, help="dimension of the algebra model")
    add("cartan", cmd_cartan, help="Cartan matrix of the algebra model")
    p = add("move", cmd_move, help="graded generalized Kauer move")
    p.add_argument("--edges", required=True, help="comma-separated edge names")
    p.add_argument("--grading", choices=["default", "file", "auto"], default="auto")
    p.add_argument("-o", "--output", help="write the moved graph here")
    p = add("cover", cmd_cover, help="covering graph")
    p.add_argument("--grading", choices=["default", "file", "auto"], default="auto")
    p.add_argument("-o", "--output", help="write the covering here")
    p = add("check-commute", cmd_check_commute, help="covering/move commutativity")
    p.add_argument("--edges", required=True)
    p.add_argument("--grading", choices=["default", "file", "auto"], default="auto")
    p = add("mutate", cmd_mutate, help="left mutation over the unmoved projectives")
    p.add_argument("--edges", required=True)
    p.add_argument("--verify", action="store_true", help="run the full checks")
    p = add("cut", cmd_cut, help="admissible cut presentation")
    p.add_argument("--delta", required=True, help="comma-separated half-edges")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parsed = _load(args.file)
        if args.command != "validate" and (problems := validate(parsed.graph)):
            raise CommandError("invalid graph: " + "; ".join(problems))
        outcome = args.handler(args, parsed)
    except (CommandError, ValueError, RuntimeError) as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(outcome.payload, sort_keys=True))
    else:
        for line in outcome.lines:
            print(line)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, known answers and verdict checks of the three workloads.

Every input is built from ``gen_random`` graphs and seeded choices.  The
known answer of each input is computed while setting up: dimensions by the
closed formula (ordinary) or the covering corner count (skew), neither of
which runs the checked pipeline; the theorem-level ``True`` for
commutation, sector-order independence and invariance of derived
invariants; and the relation count found at set-up.  A verdict is one
request for an answer plus the comparison of that answer with the known
one.

* ``mutate-ladder``: ``brauergraph --json mutate FILE --edges ... --verify``
  through ``cli.main``, one parser per request, on a fixed ladder of graphs
  with a seeded edge subset of fixed size, plus the paper examples.
* ``skew-presentations``: ``brauergraph --json relations FILE`` through
  ``cli.main``, then ``models.presentations_match`` on the covering, for the
  skew graphs of a fixed-seed ladder, each under seeded gradings.
* ``fuzz-moves``: library-level move and covering verdicts on about a
  thousand small to medium graphs; never builds an algebra table.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mutate-ladder", "skew-presentations", "fuzz-moves")

# (family, allow_skew, rung sizes, gen_random seeds per rung).  Ordinary
# verdicts cost about a tenth of skew ones, so the ordinary rungs carry more
# graphs; that keeps the slow skew inputs from being the whole tail.
MUTATE_LADDER = (
    ("ordinary", False, (8, 16, 24, 32), range(1, 11)),
    ("skew", True, (8, 16, 24, 32), range(1, 4)),
)
# The n_half=32 rung is left out: two of its graphs take 50 s and 117 s per
# check (ROADMAP item 3b), longer than a whole run; see README.md.
PRESENTATION_LADDER = ((8, 16, 24), range(1, 4))
PRESENTATION_GRADINGS = 4
FUZZ_SIZES = tuple(range(4, 25, 2))
FUZZ_COUNT = 1210
MAX_MULTIPLICITY = 3


@dataclass
class Item:
    """One workload input and its known answer."""

    name: str
    family: str
    n_half: int
    graph: object
    expected: dict
    argv: list[str] = field(default_factory=list)
    grading: object = None
    subset: frozenset = frozenset()

    def shape(self) -> tuple:
        return (self.name.rsplit("#", 1)[0], self.family, self.n_half)


@dataclass
class Inputs:
    items: list[Item]
    digest: str


def _ex1(pkg):
    names = ["1+", "1-", "2+", "2-", "3+", "3-", "4+", "4-"]
    perm = pkg.permutations.Permutation
    pairing = perm.from_cycles(names, [("1+", "1-"), ("2+", "2-"), ("3+", "3-"), ("4+", "4-")])
    orientation = perm.from_cycles(names, [("1-", "4-", "3-", "2-"), ("2+", "3+")])
    m = {h: 1 for h in names} | {"1+": 2, "2+": 2, "3+": 2}
    graph = pkg.core.BrauerGraph(frozenset(names), pairing, orientation, m)
    grading = pkg.core.Grading(2, {h: 0 for h in names} | {"1+": 1, "3+": 1})
    return graph, grading, "1,2"


def _ex2(pkg):
    names = ["1+", "1-", "2", "3", "4+", "4-", "5+", "5-"]
    perm = pkg.permutations.Permutation
    pairing = perm.from_cycles(names, [("1+", "1-"), ("4+", "4-"), ("5+", "5-")])
    orientation = perm.from_cycles(names, [("1-", "3", "2"), ("1+", "4+", "5+")])
    m = {h: 1 for h in names} | {"1-": 2, "2": 2, "3": 2, "4-": 3}
    graph = pkg.core.BrauerGraph(frozenset(names), pairing, orientation, m)
    return graph, None, "1,4"


def fresh(pkg, graph):
    """A copy of ``graph`` with none of its cached properties filled in."""
    return pkg.core.BrauerGraph(
        graph.half_edges, graph.pairing, graph.orientation, graph.multiplicity
    )


def _write(pkg, workdir: Path, name: str, graph, grading) -> str:
    path = workdir / f"{name.replace('#', '_')}.graph"
    path.write_text(pkg.graphfile.emit(graph, grading), encoding="utf-8")
    return str(path)


def _moved_dimension(pkg, graph, grading, subset) -> int:
    """Known dimension of the algebra of the moved graph."""
    core = pkg.core
    if grading is None:
        grading = (
            core.zero_grading(graph)
            if graph.is_skew
            else pkg.covering.default_grading(graph, subset)
        )
    moved = pkg.moves.move_set(core.GradedGraph(graph, grading), subset)
    if moved.graph.is_skew:
        covered = pkg.covering.cover(core.GradedGraph(moved.graph, moved.grading))
        return pkg.models.skew_dimension_oracle(covered)
    return pkg.algebra.bga_dimension_formula(moved.graph)


def _subset(pkg, graph, names: list[str]) -> frozenset:
    by_name = {pkg.presentation.edge_name(graph, e[0]): e for e in graph.edges}
    return frozenset(h for name in names for h in by_name[name])


def _mutate_item(pkg, rng, workdir, name, family, n_half, graph, grading, edges) -> Item:
    if edges is None:
        names = sorted(pkg.presentation.edge_name(graph, e[0]) for e in graph.edges)
        edges = ",".join(sorted(rng.sample(names, max(1, len(names) // 4))))
    subset = _subset(pkg, graph, edges.split(","))
    path = _write(pkg, workdir, name, graph, grading)
    return Item(
        name=name,
        family=family,
        n_half=n_half,
        graph=graph,
        grading=grading,
        subset=subset,
        argv=["--json", "mutate", path, "--edges", edges, "--verify"],
        expected={"dim": _moved_dimension(pkg, graph, grading, subset)},
    )


def mutate_ladder(pkg, seed: int, workdir: Path, ladder=MUTATE_LADDER) -> list[Item]:
    rng = random.Random(f"mutate-ladder:{seed}")
    items = []
    for family, allow_skew, sizes, seeds in ladder:
        for n_half in sizes:
            for s in seeds:
                graph = pkg.core.gen_random(
                    s, n_half=n_half, allow_skew=allow_skew, max_multiplicity=MAX_MULTIPLICITY
                )
                name = f"{family}-n{n_half}-g{s}"
                items.append(
                    _mutate_item(pkg, rng, workdir, name, family, n_half, graph, None, None)
                )
    for label, example in (("ex1", _ex1), ("ex2", _ex2)):
        graph, grading, edges = example(pkg)
        items.append(
            _mutate_item(pkg, rng, workdir, label, "paper", len(graph.half_edges),
                         graph, grading, edges)
        )
    return items


def skew_presentations(
    pkg, seed: int, workdir: Path, ladder=PRESENTATION_LADDER, gradings=PRESENTATION_GRADINGS
) -> list[Item]:
    rng = random.Random(f"skew-presentations:{seed}")
    core = pkg.core
    graphs = []
    sizes, seeds = ladder
    for n_half in sizes:
        for s in seeds:
            graph = core.gen_random(s, n_half=n_half, allow_skew=True,
                                    max_multiplicity=MAX_MULTIPLICITY)
            if graph.is_skew:
                graphs.append((f"skew-n{n_half}-g{s}", n_half, graph))
    ex2 = _ex2(pkg)[0]
    graphs.append(("ex2", len(ex2.half_edges), ex2))
    items = []
    for base, n_half, graph in graphs:
        relation_count = len(pkg.presentation.relations(graph))
        for k in range(gradings):
            grading = core.random_valid_grading(graph, rng, core.zero_grading(graph))
            name = f"{base}#{k}"
            covered = pkg.covering.cover(core.GradedGraph(graph, grading))
            items.append(
                Item(
                    name=name,
                    family="skew",
                    n_half=n_half,
                    graph=graph,
                    grading=grading,
                    argv=["--json", "relations", _write(pkg, workdir, name, graph, grading)],
                    expected={
                        "relations": relation_count,
                        "dim": pkg.models.skew_dimension_oracle(covered),
                    },
                )
            )
    return items


def fuzz_moves(pkg, seed: int, workdir: Path, count: int = FUZZ_COUNT) -> list[Item]:
    rng = random.Random(f"fuzz-moves:{seed}")
    core = pkg.core
    items = []
    for i in range(count):
        n_half = FUZZ_SIZES[i % len(FUZZ_SIZES)]
        allow_skew = (i // len(FUZZ_SIZES)) % 2 == 1
        graph = core.gen_random(rng.randrange(10**9), n_half=n_half, allow_skew=allow_skew,
                                max_multiplicity=MAX_MULTIPLICITY)
        family = "skew" if allow_skew else "ordinary"
        items.append(
            Item(
                name=f"{family}-n{n_half}#{i}",
                family=family,
                n_half=n_half,
                graph=graph,
                subset=core.random_ih_stable_subset(graph, rng),
                expected={
                    "valid": True,
                    "commutes": True,
                    "orders_agree": True,
                    "invariants_kept": True,
                },
            )
        )
    return items


BUILDERS = {
    "mutate-ladder": mutate_ladder,
    "skew-presentations": skew_presentations,
    "fuzz-moves": fuzz_moves,
}


def build(pkg, workload: str, seed: int, workdir: Path, **ladder) -> Inputs:
    items = BUILDERS[workload](pkg, seed, workdir, **ladder)
    return Inputs(items, digest(pkg, items))


def digest(pkg, items: list[Item]) -> str:
    """One hash over every input and its known answer."""
    h = hashlib.sha256()
    for item in items:
        record = {
            "name": item.name,
            "graph": pkg.graphfile.emit(item.graph, item.grading),
            "subset": sorted(item.subset),
            "expected": item.expected,
        }
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Verdicts: each returns None when the answer matches, else what went wrong.
# ---------------------------------------------------------------------------


def _cli(pkg, argv: list[str]) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    text = out.getvalue() if code == 0 else err.getvalue()
    return code, json.loads(text) if text.strip() else {}


def verdict_mutate(pkg, item: Item) -> str | None:
    code, payload = _cli(pkg, item.argv)
    if code != 0:
        return f"exit code {code}: {payload}"
    report = payload["verify"]
    for flag in ("silting", "tilting", "left_minimal", "cartan_equal"):
        if report[flag] is not True:
            return f"{flag} is {report[flag]}"
    want = item.expected["dim"]
    if not report["dim_end"] == report["dim_moved"] == want:
        return f"dim End(T) {report['dim_end']}, moved {report['dim_moved']}, known {want}"
    return None


def verdict_presentation(pkg, item: Item) -> str | None:
    code, payload = _cli(pkg, item.argv)
    if code != 0:
        return f"exit code {code}: {payload}"
    if len(payload["relations"]) != item.expected["relations"]:
        return f"{len(payload['relations'])} relations, known {item.expected['relations']}"
    graph = fresh(pkg, item.graph)
    covered = pkg.covering.cover(pkg.core.GradedGraph(graph, item.grading))
    report = pkg.models.presentations_match(graph, covered)
    if not report.ok:
        return "; ".join(report.problems[:2])
    if report.model_dim != item.expected["dim"]:
        return f"model dimension {report.model_dim}, known {item.expected['dim']}"
    return None


def verdict_moves(pkg, item: Item) -> str | None:
    core, covering, moves = pkg.core, pkg.covering, pkg.moves
    graph = fresh(pkg, item.graph)
    subset = item.subset
    want = item.expected
    problems = core.validate(graph)
    if (not problems) != want["valid"]:
        return f"validate: {problems}"
    grading = covering.default_grading(graph, subset)
    problems = core.grading_violations(graph, grading)
    if (not problems) != want["valid"]:
        return f"default grading: {problems}"
    graded = core.GradedGraph(graph, grading)
    if covering.check_cover_commutes(graded, subset) != want["commutes"]:
        return "covering does not commute with the move"
    found = sorted(moves.maximal_sectors(graph, subset))
    outcomes = set()
    for order in (found, found[::-1]):
        current = graded
        for sector in order:
            current = moves.move_sector(current, sector, subset)
        outcomes.add(
            (
                current.graph.orientation,
                frozenset(current.graph.multiplicity.items()),
                current.grading,
            )
        )
    if (len(outcomes) == 1) != want["orders_agree"]:
        return "the two maximal-sector orders disagree"
    if not graph.is_skew:
        moved = moves.move_set(graded, subset)
        kept = core.oz_invariants(graph) == core.oz_invariants(moved.graph)
        if kept != want["invariants_kept"]:
            return "derived invariants changed under the move"
    return None


VERDICTS = {
    "mutate-ladder": verdict_mutate,
    "skew-presentations": verdict_presentation,
    "fuzz-moves": verdict_moves,
}


def fingerprint(pkg, item: Item, count_relations: bool = True) -> dict:
    """Size, table dimension and relation count of one input."""
    graph = item.graph
    if "dim" in item.expected:
        dim = item.expected["dim"]
    elif graph.is_skew:
        covered = pkg.covering.cover(
            pkg.core.GradedGraph(graph, pkg.core.zero_grading(graph))
        )
        dim = pkg.models.skew_dimension_oracle(covered)
    else:
        dim = pkg.algebra.bga_dimension_formula(graph)
    relations = item.expected.get("relations")
    if relations is None and count_relations:
        relations = len(pkg.presentation.relations(graph))
    return {
        "name": item.name,
        "half_edges": len(graph.half_edges),
        "skew": graph.is_skew,
        "dim": dim,
        "relations": relations,
    }

"""Byte-for-byte golden outputs of the CLI and of the truncation presentations.

``tests/golden/*.bg`` are the input graphs; ``tests/golden/corpus.json``
holds, per case, the exact stdout, stderr and exit code of one CLI call in
human and ``--json`` mode, and the rendered truncation presentation of each
skew input.  Refactors must keep every byte.  After an intended output
change, rewrite the corpus with ``python tests/test_golden_cli.py`` and
review the diff.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from brauergraph.cli import main
from brauergraph.core import GradedGraph, zero_grading
from brauergraph.covering import cover
from brauergraph.graphfile import parse
from brauergraph.presentation import render_presentation, truncation_presentation

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.json"

# Input file and the edges moved by ``move``, ``check-commute`` and ``mutate``.
INPUTS = {
    "ex1": "1,2",
    "ex2": "1,4",
    "ordinary-1": "1,2",
    "ordinary-2": "1,2",
    "skew-1": "1,3",
    "skew-3": "1,3",
}
SKEW_INPUTS = ("ex2", "skew-1", "skew-3")


def _commands() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for name, edges in INPUTS.items():
        path = f"{name}.bg"
        for command in ("validate", "invariants", "quiver", "relations", "dim", "cartan", "cover"):
            out[f"{name} {command}"] = [command, path]
        out[f"{name} move"] = ["move", path, "--edges", edges]
        out[f"{name} check-commute"] = ["check-commute", path, "--edges", edges]
        out[f"{name} mutate"] = ["mutate", path, "--edges", edges, "--verify"]
    out["ex2-m1 cut"] = ["cut", "ex2-m1.bg", "--delta", "1-,1+,4-,5-"]
    return out


def _run_cli(argv: list[str]) -> dict:
    argv = [str(GOLDEN / a) if a.endswith(".bg") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _truncation_text(name: str) -> str:
    graph = parse((GOLDEN / f"{name}.bg").read_text(encoding="utf-8")).graph
    return render_presentation(truncation_presentation(cover(GradedGraph(graph, zero_grading(graph)))))


def _capture() -> dict:
    cases = {}
    for case, argv in _commands().items():
        cases[case] = _run_cli(argv)
        cases[case + " --json"] = _run_cli(["--json"] + argv)
    for name in SKEW_INPUTS:
        cases[f"{name} truncation-presentation"] = {"stdout": _truncation_text(name)}
    return cases


@functools.lru_cache(maxsize=None)
def _expected() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_golden_corpus_covers_every_case():
    assert len(_expected()) == 2 * len(_commands()) + len(SKEW_INPUTS)


@pytest.mark.parametrize("case", sorted(_commands()))
@pytest.mark.parametrize("mode", ["human", "json"])
def test_golden_cli(case, mode):
    argv = _commands()[case]
    key = case
    if mode == "json":
        argv = ["--json"] + argv
        key += " --json"
    assert _run_cli(argv) == _expected()[key]


@pytest.mark.parametrize("name", SKEW_INPUTS)
def test_golden_truncation_presentation(name):
    assert _truncation_text(name) == _expected()[f"{name} truncation-presentation"]["stdout"]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}")

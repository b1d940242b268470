from __future__ import annotations

import json
import re

import pytest

from brauergraph.cli import main
from brauergraph.core import gen_random, zero_grading
from brauergraph.covering import default_grading
from brauergraph.graphfile import GraphFileError, emit, parse

from conftest import swapping_sigma_images

EX1 = """\
# four edges around a central vertex
halfedges 1+ 1- 2+ 2- 3+ 3- 4+ 4-
pairing (1+ 1-)(2+ 2-)(3+ 3-)(4+ 4-)
orientation (1- 4- 3- 2-)(2+ 3+)
multiplicity 1+ = 2
multiplicity 2+ = 2
grading 1+ = 1
grading 3+ = 1
"""

EX2 = """\
halfedges 1+ 1- 2 3 4+ 4- 5+ 5-
pairing (1+ 1-)(4+ 4-)(5+ 5-)
orientation (1- 3 2)(1+ 4+ 5+)
multiplicity 4- = 3
multiplicity 1- = 2
"""


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.bg"
    path.write_text(EX1, encoding="utf-8")
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.bg"
    path.write_text(EX2, encoding="utf-8")
    return str(path)


def test_parse_ex1(ex1):
    parsed = parse(EX1)
    assert parsed.graph == ex1
    assert parsed.grading is not None
    assert parsed.grading("1+") == 1 and parsed.grading("2-") == 0


def test_parse_ex2_skew(ex2):
    parsed = parse(EX2)
    assert parsed.graph == ex2
    assert parsed.graph.cross_half_edges == frozenset(["2", "3"])
    assert parsed.grading is None


def test_parse_empty_graph():
    parsed = parse("halfedges\n")
    assert parsed.graph.half_edges == frozenset()


def test_parse_unknown_name():
    with pytest.raises(GraphFileError) as err:
        parse("halfedges a b\npairing (a c)\n")
    assert "line 2" in str(err.value)


def test_parse_non_disjoint_cycles():
    with pytest.raises(GraphFileError):
        parse("halfedges a b c\norientation (a b)(b c)\n")


def test_parse_bad_multiplicity():
    with pytest.raises(GraphFileError):
        parse("halfedges a b\npairing (a b)\nmultiplicity a = 0\n")
    with pytest.raises(GraphFileError):
        # conflicting values on one orientation orbit
        parse(
            "halfedges a b c d\npairing (a b)(c d)\norientation (a c)\n"
            "multiplicity a = 2\nmultiplicity c = 3\n"
        )


def test_parse_pairing_must_be_involution():
    with pytest.raises(GraphFileError):
        parse("halfedges a b c\npairing (a b c)\n")


HALFEDGES = "halfedges a b\n"

# One file for each ``GraphFileError`` raise that the tests above do not
# reach, with its exact text.
# A column is the character's own column in its line, counted from 1, also
# after extra spaces around the keyword and before a comment.
PARSE_ERRORS = {
    "nested-paren": (HALFEDGES + "pairing ((a b)\n", "line 2, column 10: nested '(' in cycle list"),
    "nested-paren-spaced": (
        HALFEDGES + "  pairing   ((a b)  # note\n",
        "line 2, column 14: nested '(' in cycle list",
    ),
    "stray-token": (HALFEDGES + "pairing a(a b)\n", "line 2, column 9: stray token 'a'"),
    "unmatched-paren": (HALFEDGES + "orientation (a b))\n", "line 2, column 18: unmatched ')'"),
    "empty-cycle": (HALFEDGES + "pairing ()\n", "line 2, column 10: empty cycle"),
    "token-outside": (
        HALFEDGES + "pairing a (a b)\n", "line 2, column 9: token 'a' outside any cycle"
    ),
    "unterminated": (HALFEDGES + "pairing (a b\n", "line 2, column 12: unterminated cycle"),
    "no-equals": (
        HALFEDGES + "multiplicity a 2\n",
        "line 2, column 1: multiplicity lines read 'name = value'",
    ),
    "duplicate-half-edge": ("halfedges a b a\n", "line 1, column 1: duplicate half-edge 'a'"),
    "unknown-multiplicity-name": (
        HALFEDGES + "multiplicity c = 2\n", "line 2, column 1: unknown half-edge name 'c'"
    ),
    "unknown-grading-name": (
        HALFEDGES + "grading c = 1\n", "line 2, column 1: unknown half-edge name 'c'"
    ),
    "unknown-edge-member": (
        HALFEDGES + "edge e = a c\n", "line 2, column 1: unknown half-edge name 'c'"
    ),
    "bad-multiplicity": (
        HALFEDGES + "multiplicity a = two\n", "line 2, column 1: bad multiplicity 'two'"
    ),
    "bad-degree": (HALFEDGES + "grading a = x\n", "line 2, column 1: bad degree 'x'"),
    "unknown-keyword": (
        HALFEDGES + "colour a = red\n", "line 2, column 1: unknown keyword 'colour'"
    ),
    "missing-halfedges": ("# no graph\n", "line 1, column 1: missing 'halfedges' section"),
    "duplicate-alias": (
        HALFEDGES + "pairing (a b)\nedge e = a b\nedge e = a b\n",
        "line 4, column 1: duplicate edge alias 'e'",
    ),
    "repeated-pairing": (
        "halfedges 1+ 1- 2+ 2-\npairing (1+ 1-)\npairing (2+ 2-)\n"
        "orientation (1+ 2+)(1- 2-)\n",
        "line 3, column 1: repeated 'pairing' line",
    ),
    "repeated-orientation": (
        HALFEDGES + "orientation (a b)\norientation (a b)\n",
        "line 3, column 1: repeated 'orientation' line",
    ),
    "conflicting-degree": (
        HALFEDGES + "grading a = 1\ngrading a = 0\n",
        "line 3, column 1: conflicting degrees for 'a'",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_name_their_line_and_column(case):
    text, message = PARSE_ERRORS[case]
    with pytest.raises(GraphFileError) as err:
        parse(text)
    assert str(err.value) == message
    line, column = (int(n) for n in re.match(r"line (\d+), column (\d+)", message).groups())
    assert (err.value.line, err.value.column) == (line, column)


def test_a_degree_may_repeat_modulo_the_modulus():
    # Both names are skew legs, so degrees live modulo 2.
    parsed = parse(HALFEDGES + "grading a = 1\ngrading a = 3\n")
    assert parsed.grading.degrees == {"a": 1, "b": 0}


def test_cli_reports_a_parse_error_as_json(tmp_path, capsys):
    text, message = PARSE_ERRORS["nested-paren"]
    path = tmp_path / "nested.bg"
    path.write_text(text, encoding="utf-8")
    assert main(["--json", "dim", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"{path}: {message}"}


def test_roundtrip_examples(ex1, ex2, ex1_grading):
    text1 = emit(ex1, ex1_grading)
    again = parse(text1)
    assert again.graph == ex1 and again.grading == ex1_grading
    text2 = emit(ex2)
    assert parse(text2).graph == ex2


def test_roundtrip_zero_grading(ex2):
    text = emit(ex2, zero_grading(ex2))
    again = parse(text)
    assert again.grading == zero_grading(ex2)


def test_roundtrip_fuzz():
    for seed in range(200):
        g = gen_random(seed, n_half=8, allow_skew=(seed % 2 == 0), max_multiplicity=3)
        d = default_grading(g)
        again = parse(emit(g, d))
        assert again.graph == g and again.grading == d, seed


def test_roundtrip_aliases(ex1, ex1_grading):
    aliases = {"left": ("1+", "1-")}
    text = emit(ex1, ex1_grading, aliases)
    assert parse(text).aliases == aliases


def test_alias_may_not_take_another_edges_label(tmp_path, capsys):
    text = EX1 + "edge 1 = 2+ 2-\n"
    message = "edge alias '1' is the label of edge (1+ 1-)"
    with pytest.raises(GraphFileError, match=re.escape(message)):
        parse(text)
    path = tmp_path / "shadow.bg"
    path.write_text(text, encoding="utf-8")
    for command in (["validate"], ["move", "--edges", "1"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("members", [("2+", "2-"), ("2-", "2+")])
def test_alias_may_name_its_own_edge(members):
    parsed = parse(EX1 + "edge 2 = " + " ".join(members) + "\n")
    assert parsed.aliases == {"2": members}


def test_cli_validate(ex1_file, capsys):
    assert main(["validate", ex1_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"


# Graphs whose edge labels collide; each is keyed by the shared label.
LABEL_COLLISIONS = {
    # the pair (a+ a-) and the edge (a z) are both labelled "a"
    "a": "halfedges a+ a- a z\npairing (a+ a-)(a z)\norientation (a+ a z)\n",
    # the skew leg 1 and the pair (1+ 1-) are both labelled "1"
    "1": "halfedges 1 1+ 1-\npairing (1+ 1-)\norientation (1 1+ 1-)\n",
}


@pytest.mark.parametrize("label", sorted(LABEL_COLLISIONS))
def test_cli_rejects_edge_label_collisions(label, tmp_path, capsys):
    path = tmp_path / "collide.bg"
    path.write_text(LABEL_COLLISIONS[label], encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert f"edge label {label} is shared by edges" in capsys.readouterr().out
    for command in ("dim", "cartan"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid graph: edge label {label} ")


def test_cli_reports_file_then_graph_then_command_errors(tmp_path, capsys):
    """An unreadable file is reported before anything else, and an invalid
    graph before the command's own errors, such as an unknown edge."""
    missing = tmp_path / "missing.bg"
    assert main(["move", str(missing), "--edges", "nope"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    path = tmp_path / "collide.bg"
    path.write_text(LABEL_COLLISIONS["a"], encoding="utf-8")
    assert main(["move", str(path), "--edges", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error: invalid graph: edge label a ")


def test_cli_invariants(ex2_file, capsys):
    assert main(["invariants", ex2_file]) == 0
    out = capsys.readouterr().out
    assert "edges: 5" in out and "cross vertices: 2" in out


def test_cli_move_prints_expected_orientation(ex1_file, capsys):
    assert main(["move", ex1_file, "--edges", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "orientation (1- 4+ 2-)(2+ 4- 3-)" in out


def test_cli_move_deterministic(ex1_file, capsys):
    main(["move", ex1_file, "--edges", "1,2"])
    first = capsys.readouterr().out
    main(["move", ex1_file, "--edges", "1,2"])
    assert capsys.readouterr().out == first


def test_cli_move_output_roundtrips(ex1_file, tmp_path, capsys):
    out_path = tmp_path / "moved.bg"
    assert main(["move", ex1_file, "--edges", "1,2", "-o", str(out_path)]) == 0
    capsys.readouterr()
    moved = parse(out_path.read_text(encoding="utf-8"))
    assert {h for h, v in moved.graph.multiplicity.items() if v == 2} == {"1+", "3+"}


def test_cli_move_unknown_edge(ex1_file, capsys):
    assert main(["move", ex1_file, "--edges", "9"]) == 2
    assert "unknown edge" in capsys.readouterr().err


def test_cli_cover(ex2_file, capsys):
    assert main(["cover", ex2_file]) == 0
    out = capsys.readouterr().out
    total = parse(out)
    assert len(total.graph.half_edges) == 16


def test_cli_check_commute(ex2_file, capsys):
    assert main(["check-commute", ex2_file, "--edges", "1,4"]) == 0
    assert capsys.readouterr().out.strip() == "commutes: true"
    assert main(["--json", "check-commute", ex2_file, "--edges", "1,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"commutes": True}


def test_cli_check_commute_names_its_witness(ex2_file, capsys, monkeypatch):
    """ex2's half-edges sort as 1+ 1- 2 3 ..., so on its two sheets the
    integer labels 3 and 4 are 1-_1 and 2_0."""
    swapping_sigma_images(monkeypatch, 3, 4)
    assert main(["check-commute", ex2_file, "--edges", "1,4"]) == 1
    assert capsys.readouterr().out == "commutes: false\nwitness: 1-_1\n"
    assert main(["--json", "check-commute", ex2_file, "--edges", "1,4"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"commutes": False, "witness": "1-_1"}


def test_cli_dim(ex1_file, ex2_file, capsys):
    assert main(["dim", ex1_file]) == 0
    assert capsys.readouterr().out.strip() == "dim = 27"
    assert main(["dim", ex2_file]) == 0
    assert capsys.readouterr().out.strip() == "dim = 63"


def test_cli_cartan(ex1_file, capsys):
    assert main(["cartan", ex1_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vertices: 1 2 3 4"
    assert out[1] == "3 1 1 1"


def test_cli_quiver_and_dot(ex1_file, tmp_path, capsys):
    dot_path = tmp_path / "q.dot"
    assert main(["quiver", ex1_file, "--dot", str(dot_path)]) == 0
    out = capsys.readouterr().out
    assert "vertices: 1 2 3 4" in out
    assert dot_path.read_text(encoding="utf-8").startswith("digraph")


def test_cli_quiver_renders_relations_only_for_dot(tmp_path, capsys, monkeypatch):
    """``quiver`` prints no relation, so it renders none; with ``--dot`` the
    dot file renders them once."""
    from pathlib import Path

    from brauergraph import cli, presentation

    calls = []
    render = presentation.render_relations

    def counting(p):
        calls.append(p)
        return render(p)

    monkeypatch.setattr(presentation, "render_relations", counting)
    monkeypatch.setattr(cli, "render_relations", counting)
    path = str(Path(__file__).parent / "golden" / "skew-3.bg")
    assert main(["quiver", path]) == 0
    out = capsys.readouterr().out
    assert calls == []
    assert out.startswith("vertices: ") and "relation" not in out
    dot_path = tmp_path / "q.dot"
    assert main(["quiver", path, "--dot", str(dot_path)]) == 0
    assert capsys.readouterr().out == out + f"wrote {dot_path}\n"
    assert len(calls) == 1
    assert dot_path.read_text(encoding="utf-8").count("   * ") == len(render(calls[0]))


def test_cli_relations(ex1_file, capsys):
    assert main(["relations", ex1_file]) == 0
    out = capsys.readouterr().out
    assert "a[1+] a[1+] - a[2-] a[3-] a[4-] a[1-]" in out


def test_cli_mutate_verify(ex1_file, capsys):
    assert main(["mutate", ex1_file, "--edges", "1,2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "silting: ok" in out
    assert "tilting: ok" in out
    assert "dim End(T) = 22" in out
    assert "dim moved algebra = 22" in out
    assert "cartan match: ok" in out
    assert "cartan witness" not in out


@pytest.mark.parametrize("as_json", [False, True])
def test_cli_mutate_without_verify_lists_the_summands(ex1_file, capsys, monkeypatch, as_json):
    from brauergraph import homotopy

    def unreachable(*args):
        raise AssertionError("mutate checked the object without --verify")

    monkeypatch.setattr(homotopy, "mutation_verification", unreachable)
    argv = ["mutate", ex1_file, "--edges", "1,2"]
    assert main(["--json", *argv] if as_json else argv) == 0
    out = capsys.readouterr().out
    kinds = [
        ("1", "cone with 1 target component(s)"),
        ("2", "cone with 2 target component(s)"),
        ("3", "stalk"),
        ("4", "stalk"),
    ]
    if as_json:
        assert json.loads(out) == {
            "summands": [{"edge": edge, "kind": kind} for edge, kind in kinds]
        }
    else:
        assert out == "".join(f"edge {edge}: {kind}\n" for edge, kind in kinds)


def test_cli_mutate_names_the_first_cartan_difference(
    ex1, ex1_grading, ex1_file, capsys, monkeypatch
):
    from brauergraph import homotopy
    from brauergraph.models import ordinary_model

    real = homotopy.graph_edge_cartan

    def perturbed(graph, grading):
        edges, cartan = real(graph, grading)
        cartan[1][2] += 5
        return edges, cartan

    monkeypatch.setattr(homotopy, "graph_edge_cartan", perturbed)
    model = ordinary_model(ex1)
    model.grading = ex1_grading
    report = homotopy.mutation_verification(
        model, frozenset(["1+", "1-", "2+", "2-"])
    )
    assert not report.cartan_equal and not report.ok
    row, col, end, moved = report.cartan_witness
    assert (row, col, moved) == ("2", "3", end + 5)

    assert main(["mutate", ex1_file, "--edges", "1,2", "--verify"]) == 1
    out = capsys.readouterr().out
    assert "cartan match: FAIL" in out
    assert (
        f"cartan witness: entry (2, 3) is {end} in End(T), "
        f"{end + 5} in the moved algebra"
    ) in out
    assert main(["--json", "mutate", ex1_file, "--edges", "1,2", "--verify"]) == 1
    verify = json.loads(capsys.readouterr().out)["verify"]
    assert verify["cartan_witness"] == {
        "row": "2", "column": "3", "end": end, "moved": end + 5
    }


def test_cli_mutate_names_the_first_nonvanishing_hom(
    ex1, ex1_grading, ex1_file, capsys, monkeypatch
):
    """With T replaced by the stalk P_1 and the shifted stalk P_2[1], the
    first nonzero shifted Hom is Hom(T_1, T_2[-1]) = Hom(P_1, P_2).  T is
    not tilting, so End(T) is not compared: the report says so, with null
    in the JSON fields ``dim_end`` and ``cartan_equal``."""
    from brauergraph import homotopy
    from brauergraph.models import ordinary_model

    model = ordinary_model(ex1)
    model.grading = ex1_grading
    shifted = homotopy.ProjPresentation((1,), (), ())

    def stalks(model, subset):
        return [("1", homotopy.stalk([0])), ("2", shifted)]

    monkeypatch.setattr(homotopy, "mutation_object", stalks)
    corner = model.table.cartan()[1][0]
    assert corner
    report = homotopy.mutation_verification(
        model, frozenset(["1+", "1-", "2+", "2-"])
    )
    assert not report.tilting and not report.ok
    assert report.hom_witness == ("1", "2", -1, corner)
    assert report.cartan_witness is None

    assert main(["mutate", ex1_file, "--edges", "1,2", "--verify"]) == 1
    out = capsys.readouterr().out
    assert "tilting: FAIL" in out
    assert "dim End(T) = not computed (T is not tilting)\n" in out
    assert "cartan match: not run (T is not tilting)\n" in out
    assert "cartan witness" not in out
    assert f"hom witness: Hom(T_1, T_2[-1]) has dimension {corner}" in out
    assert main(["--json", "mutate", ex1_file, "--edges", "1,2", "--verify"]) == 1
    verify = json.loads(capsys.readouterr().out)["verify"]
    assert verify["dim_end"] is None and verify["cartan_equal"] is None
    assert "cartan_witness" not in verify
    assert verify["hom_witness"] == {
        "source": "1", "target": "2", "shift": -1, "dim": corner
    }


def test_cli_mutate_prints_no_hom_witness_for_a_tilting_object(ex1_file, capsys):
    assert main(["--json", "mutate", ex1_file, "--edges", "1,2", "--verify"]) == 0
    assert "hom_witness" not in json.loads(capsys.readouterr().out)["verify"]


def test_cli_cut(tmp_path, capsys):
    path = tmp_path / "flat.bg"
    path.write_text(
        "halfedges 1+ 1- 2 3 4+ 4- 5+ 5-\n"
        "pairing (1+ 1-)(4+ 4-)(5+ 5-)\n"
        "orientation (1- 3 2)(1+ 4+ 5+)\n",
        encoding="utf-8",
    )
    assert main(["cut", str(path), "--delta", "1-,1+,4-,5-"]) == 0
    out = capsys.readouterr().out
    assert "vertices:" in out


def test_cli_json_success(ex2_file, capsys):
    assert main(["--json", "dim", ex2_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim": 63}


def test_cli_json_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.bg")
    assert main(["--json", "validate", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize(
    "command", [["dim"], ["cartan"], ["mutate", "--edges", "1,4", "--verify"]]
)
@pytest.mark.parametrize("as_json", [False, True])
def test_cli_rejects_an_invalid_skew_file_grading(tmp_path, capsys, command, as_json):
    path = tmp_path / "ex2-bad.bg"
    path.write_text(EX2 + "grading 2 = 1\n", encoding="utf-8")
    argv = [command[0], str(path), *command[1:]]
    assert main(["--json", *argv] if as_json else argv) == 2
    captured = capsys.readouterr()
    message = "invalid grading: vertex (1- 3 2) has degree sum 1, required 0"
    assert captured.out == ""
    if as_json:
        assert json.loads(captured.err) == {"error": message}
    else:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["dim"],
        ["cartan"],
        ["mutate", "--edges", "1,2"],
        ["mutate", "--edges", "1,2", "--verify"],
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_cli_rejects_an_invalid_ordinary_file_grading(
    tmp_path, capsys, command, as_json
):
    path = tmp_path / "ex1-bad.bg"
    path.write_text(EX1.replace("grading 3+ = 1\n", ""), encoding="utf-8")
    argv = [command[0], str(path), *command[1:]]
    assert main(["--json", *argv] if as_json else argv) == 2
    captured = capsys.readouterr()
    message = "invalid grading: vertex (2+ 3+) has degree sum 0, required 1"
    assert captured.out == ""
    if as_json:
        assert json.loads(captured.err) == {"error": message}
    else:
        assert captured.err == f"error: {message}\n"

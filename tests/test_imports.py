"""Every module-level import in the package is used by its module."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from brauergraph.algebra import bga_table
from brauergraph.core import gen_random
from brauergraph.moves import Sector
from brauergraph.permutations import Permutation
from brauergraph.presentation import Arrow

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauergraph"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os.path\nfrom .core import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["os", "c"]


# __init__.py imports only to re-export.
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_package_imports_the_standard_library_only():
    """README and ``pyproject.toml`` (``dependencies = []``) promise a
    package that needs nothing past the standard library: every import in
    it, at module level or not, is of the package itself or of a standard
    library module."""
    allowed = {*sys.stdlib_module_names, "brauergraph"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in allowed
            ]
    assert outside == []


def test_models_keep_the_generic_skew_group_route_out():
    """``models`` builds f(A#G)f on the orbit basis; the skew group table,
    the idempotent permutation and the generic truncation are test oracles,
    and the generic truncation lives in the tests alone."""
    tree = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "orbit_truncation" in used
    assert used.isdisjoint({"skew_group_table", "idempotent_permutation", "truncate"})
    algebra = ast.parse((PACKAGE / "algebra.py").read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in algebra.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined.isdisjoint({"truncate", "Truncation"})


def test_only_permutations_reads_the_permutation_map():
    """``Permutation._map`` is private to ``permutations``; other modules go
    through its methods."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "permutations.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_map"
            for node in ast.walk(tree)
        ):
            readers.append(path.name)
    assert readers == []


TABLE_INTERNALS = {"_memo", "_product_fn"}


def test_only_algebra_reads_the_table_internals():
    """The product memo and the product function of ``AlgebraTable`` are
    private to ``algebra``; other modules go through its methods and
    properties."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.Attribute) and node.attr in TABLE_INTERNALS
            for node in ast.walk(tree)
        ):
            readers.append(path.name)
    assert readers == []


MOVED_TO_THE_TESTS = {
    "homotopy.py": {"compose", "proj_hom", "hom_vanishing_report", "_chain_map_from_vector"},
    "algebra.py": {"cartan_determinant", "check_table", "dimension_by_rewriting"},
    "linalg.py": {"determinant"},
    "models.py": {"edge_cartan"},
    "core.py": {"euler_characteristics"},
}


# Definitions with no caller in the package whose job another name does;
# methods are named Class.method.
DELETED = {
    "homotopy.py": {"hom_space", "HomSpace", "ProjPresentation.matrix"},
    "algebra.py": {
        "AlgebraTable.corner_basis",
        "AlgebraTable.unit",
        "AlgebraTable.idempotent_element",
        "AlgebraTable._fill_corners",
        "bga_basis_keys",
    },
    "linalg.py": {"reciprocal"},
    "models.py": {"GraphAlgebraModel._orbit"},
    "core.py": {"BrauerGraph.edge_of", "BrauerGraph.__eq__", "Grading.__eq__"},
    "permutations.py": {"Permutation.identity"},
    "presentation.py": {"render_path"},
}


def _defined(module: str) -> set[str]:
    """The module's top-level functions and classes, and each class's
    methods as Class.method."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined |= {
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
    return defined


@pytest.mark.parametrize("module", sorted(MOVED_TO_THE_TESTS))
def test_oracles_live_in_the_tests(module):
    """Oracles that only the tests call are defined in the tests."""
    assert _defined(module).isdisjoint(MOVED_TO_THE_TESTS[module])


@pytest.mark.parametrize("module", sorted(DELETED))
def test_uncalled_duplicates_stay_deleted(module):
    """Definitions that no code in the package called, and whose job another
    name does, are not defined again."""
    assert _defined(module).isdisjoint(DELETED[module])


def _run_time_package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports from when it runs: its
    relative imports, less those under ``if TYPE_CHECKING:``."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    checking_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and id(node) not in checking_only
    }


def test_the_algebra_and_the_presentation_sit_on_the_graph_alone():
    """``algebra`` builds tables from ``core`` and ``linalg`` only, and
    ``presentation`` needs ``core`` alone when it runs: it names
    ``CoveredGraph`` only in an annotation."""
    assert _run_time_package_imports("algebra.py") == {"core", "linalg"}
    assert _run_time_package_imports("presentation.py") == {"core"}
    assert "induces_arrow" in _defined("core.py")
    assert "induces_arrow" not in _defined("presentation.py")


def test_only_core_works_out_the_grading_rules_and_the_edge_order():
    """The grading modulus and the required degree sum are worked out from
    ``m_bar`` in ``core`` alone, and ``edges_by_label`` comes in label
    order, so no other module reads ``m_bar`` or sorts the edges again."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "m_bar":
                readers.append(f"{path.name}: m_bar")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "sorted"
                and "edges_by_label" in ast.unparse(node)
            ):
                readers.append(f"{path.name}: {ast.unparse(node)}")
    assert readers == []


def test_permutations_hold_no_cache_and_corners_are_computed_once():
    """A permutation holds its map and domain only, all of it in its hash;
    the table's corners and its idempotent set are computed once, as cached
    properties."""
    assert Permutation.__slots__ == ("_map", "_domain")
    table = bga_table(gen_random(3, n_half=6))
    assert table.corners is table.corners
    assert table.corner_sizes is table.corner_sizes
    assert table.idempotent_indices is table.idempotent_indices
    assert table.idempotent_indices == frozenset(i for _, i in table.idempotents)


def test_exact_division_is_defined_once():
    """``linalg._quotient`` is the one exact division.  ``_defined`` names
    each method as Class.method, so the guard above sees deleted methods."""
    owners = [p.name for p in sorted(PACKAGE.glob("*.py")) if "_quotient" in _defined(p.name)]
    assert owners == ["linalg.py"]
    assert {"AlgebraTable", "AlgebraTable.mul"} <= _defined("algebra.py")


def test_homotopy_forms_images_in_one_generator():
    """Slot lists and the entry-by-entry differential are gone: the Hom
    sizes come from the corner sizes and every image from ``_images``."""
    defined = _defined("homotopy.py")
    assert "_images" in defined
    assert defined.isdisjoint({"_slots", "_with_differential"})


def test_homotopy_keeps_one_coordinate_pass():
    """End(T) and degree-0 Hom spaces come from ``_eliminated_hom_complex``
    alone: the Hom-complex object and the tilting-only End(T) builder are
    gone."""
    defined = _defined("homotopy.py")
    assert "_eliminated_hom_complex" in defined
    assert defined.isdisjoint({"_HomComplex", "_end_table_of_tilting"})


STATEFUL = {"BrauerGraph", "Grading", "Quiver", "Presentation", "GraphAlgebraModel"}
RECORDS = {
    "GroupActionTable", "OrbitTruncation", "Outcome", "GradedGraph", "Vertex",
    "OZInvariants", "CoveredGraph", "ParsedGraph", "ProjPresentation",
    "SideApproximation", "ApproximationData", "MutationReport",
    "MatchReport", "Sector", "Arrow", "Walk", "Relation", "PowerFamily",
}


def test_only_the_stateful_types_are_dataclasses():
    """Types with normalising constructors, cached properties or caches are
    dataclasses; the immutable value records are NamedTuples."""
    classes = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"brauergraph.{path.stem}")
        classes += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == STATEFUL
    assert {c.__name__ for c in classes if issubclass(c, tuple)} == RECORDS


def test_arrows_and_sectors_sort_and_hash_by_their_fields():
    fields = [("2+", ("2", None), ("1", None)), ("1-", ("1", 1), ("3", None)),
              ("1-", ("1", 0), ("4", None)), ("1+", ("1", 0), ("1", 1))]
    assert sorted(Arrow(*f) for f in fields) == [Arrow(*f) for f in sorted(fields)]
    assert hash(Arrow(*fields[0])) == hash(Arrow(*fields[0]))
    assert sorted([Sector("b", 0), Sector("a", 2), Sector("a", 1)]) == [
        Sector("a", 1), Sector("a", 2), Sector("b", 0)
    ]

"""The exact algebra kernel: coefficient types, corner index and truncation sweep."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from brauergraph import algebra
from brauergraph.algebra import (
    AlgebraTable,
    ONE,
    bga_table,
    bga_table_with_keys,
    extend_action_to_trivial_extension,
    skew_group_table,
    trivial_extension,
    trivial_extension_iso_report,
)
from brauergraph.core import GradedGraph, gen_random, zero_grading
from brauergraph.covering import cover, default_grading
from brauergraph.homotopy import end_table, mutation_object
from brauergraph.linalg import RationalSpan
from brauergraph.models import (
    ordinary_model,
    sheet_shift_action,
    skew_model,
    truncation_idempotents,
)

from conftest import truncate


def is_exact(value) -> bool:
    return type(value) in (int, Fraction)


def structure_constants(table: AlgebraTable):
    for i in range(table.dim):
        for j in range(table.dim):
            yield from table.pairwise(i, j).values()


@pytest.fixture
def coefficient_log(monkeypatch):
    """Every coefficient of a product that ``monomial_isomorphism_violations``
    reads from either table."""
    seen: list = []
    prove = algebra.monomial_isomorphism_violations

    def logged(source, target, images):
        for table in (source, target):
            product = table._product_fn

            def logged_product(i, j, product=product):
                out = product(i, j)
                seen.extend(out.values())
                return out

            table._product_fn = logged_product
        return prove(source, target, images)

    monkeypatch.setattr(algebra, "monomial_isomorphism_violations", logged)
    return seen


def test_bga_and_skew_model_constants_are_exact(ex1, ex2):
    tables = [bga_table(ex1), skew_model(ex2).table]
    for seed in (1, 3):
        tables.append(skew_model(gen_random(seed, n_half=8, allow_skew=True)).table)
    for table in tables:
        values = list(structure_constants(table))
        assert values and all(map(is_exact, values))
    # unit constants stay int; a Fraction only where a denominator appears
    assert all(type(c) is int for c in structure_constants(tables[0]))


def test_end_table_constants_are_exact(ex1, ex1_subset):
    model = ordinary_model(ex1)
    end = end_table(model.table, mutation_object(model, ex1_subset))
    values = list(structure_constants(end))
    assert values and all(map(is_exact, values))


def test_trivial_extension_action_and_iso_are_exact(loop_graph, coefficient_log):
    covered = cover(GradedGraph(loop_graph, default_grading(loop_graph)))
    bd, keys, index_of = bga_table_with_keys(covered.total)
    action = sheet_shift_action(covered, keys, index_of)
    extended = extend_action_to_trivial_extension(bd, action)
    skew_triv = skew_group_table(trivial_extension(bd), extended)
    assert all(map(is_exact, structure_constants(skew_triv)))
    coefficient_log.clear()
    ok, why = trivial_extension_iso_report(bd, action)
    assert ok, why
    assert coefficient_log and all(map(is_exact, coefficient_log))


# ---------------------------------------------------------------------------
# Kernel oracles: the corner index and the truncation sweep
# ---------------------------------------------------------------------------


def random_tables():
    """Ordinary BGA tables and skew group tables of covers, with idempotent sets."""
    rng = random.Random(4242)
    out = []
    for seed in range(1, 7):
        graph = gen_random(seed, n_half=6, allow_skew=False, max_multiplicity=2)
        table = bga_table(graph)
        idem = [(label, {index: ONE}) for label, index in table.idempotents]
        rng.shuffle(idem)
        chosen = idem[: rng.randint(1, len(idem))]
        if len(chosen) >= 2:
            # a sum of two orthogonal idempotents has two sources
            (la, xa), (lb, xb) = chosen[:2]
            chosen = [(la + "+" + lb, xa | xb)] + chosen[2:]
        out.append((table, chosen))
    seed = 0
    while len(out) < 10:
        seed += 1
        graph = gen_random(seed, n_half=6, allow_skew=True, max_multiplicity=2)
        if not graph.is_skew:
            continue
        covered = cover(GradedGraph(graph, zero_grading(graph)))
        bd, keys, index_of = bga_table_with_keys(covered.total)
        skew = skew_group_table(bd, sheet_shift_action(covered, keys, index_of))
        chosen = [(str(v), elem) for v, elem in truncation_idempotents(covered, bd)]
        out.append((skew, chosen))
    return out


def full_sweep(table: AlgebraTable, chosen):
    """Corner algebra f A f from every product f_p * b * f_q, none skipped."""
    spans: dict[tuple[int, int], RationalSpan] = {}
    offsets: dict[tuple[int, int], list[int]] = {}
    vectors, labels, src, tgt = [], [], [], []

    def admit(corner, vec, label):
        if spans.setdefault(corner, RationalSpan()).add(vec) is None:
            return
        offsets.setdefault(corner, []).append(len(vectors))
        vectors.append(vec)
        labels.append(label)
        tgt.append(corner[0])
        src.append(corner[1])

    idempotents = []
    for p, (label, x) in enumerate(chosen):
        idempotents.append((label, len(vectors)))
        admit((p, p), x, label)
    for b in range(table.dim):
        for p, (_, fp) in enumerate(chosen):
            left = table.mul(fp, {b: ONE})
            for q, (_, fq) in enumerate(chosen):
                vec = table.mul(left, fq)
                if vec:
                    admit((p, q), vec, f"t{len(vectors)}[{p}.{q}]")

    def product(i, j):
        raw = table.mul(vectors[i], vectors[j])
        if not raw:
            return {}
        corner = (tgt[i], src[j])
        coords = spans[corner].express(raw)
        return {offsets[corner][local]: c for local, c in coords.items() if c}

    return labels, src, tgt, idempotents, product


def test_corner_basis_matches_linear_scan():
    for table, _ in random_tables():
        n = len(table.idempotents)
        for target in range(n):
            for source in range(n):
                scan = [
                    b
                    for b in range(table.dim)
                    if table.tgt[b] == target and table.src[b] == source
                ]
                assert table.corners[target][source] == tuple(scan)
        # the corners are frozen, so no caller can change them
        assert isinstance(table.corners, tuple)
        assert all(isinstance(row, tuple) for row in table.corners)


def test_truncate_matches_the_full_sweep():
    for table, chosen in random_tables():
        got = truncate(table, chosen).table
        labels, src, tgt, idempotents, product = full_sweep(table, chosen)
        assert got.labels == tuple(labels)
        assert got.src == tuple(src)
        assert got.tgt == tuple(tgt)
        assert got.idempotents == tuple(idempotents)
        for i in range(got.dim):
            for j in range(got.dim):
                assert got.pairwise(i, j) == product(i, j), (i, j)

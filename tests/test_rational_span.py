"""``RationalSpan`` and ``rank`` against a dense Gauss-Jordan reference.

The reference keeps the added vectors that raised the rank as dense
``Fraction`` columns and solves each query afresh, so it shares no code and
no pivot rule with the span.  Every system is also replayed with each
vector's keys inserted in a shuffled order: the pivot of a new row is its
first key, so this changes the pivots, and it must change no answer.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from brauergraph import linalg
from brauergraph.linalg import RationalSpan, _quotient, rank


def _solve(columns: list[list[Fraction]], target: list[Fraction]) -> dict | None:
    """The unique x with sum x_i columns[i] == target, or None if none exists
    (the columns are independent)."""
    n_rows, n_cols = len(target), len(columns)
    rows = [[columns[c][r] for c in range(n_cols)] + [target[r]] for r in range(n_rows)]
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        found = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        head = rows[r][c]
        rows[r] = [x / head for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    if any(row[n_cols] for row in rows[r:]):
        return None
    assert len(pivot_cols) == n_cols, "reference columns must be independent"
    return {c: rows[i][n_cols] for i, c in enumerate(pivot_cols) if rows[i][n_cols]}


class _Reference:
    def __init__(self, keys: list) -> None:
        self.keys = keys
        self.columns: list[list[Fraction]] = []

    def dense(self, vec: dict) -> list[Fraction]:
        return [Fraction(vec.get(k, 0)) for k in self.keys]

    def express(self, vec: dict) -> dict | None:
        return _solve(self.columns, self.dense(vec))

    def add(self, vec: dict) -> int | None:
        if self.express(vec) is not None:
            return None
        self.columns.append(self.dense(vec))
        return len(self.columns) - 1


def _coefficient(rng: random.Random):
    if rng.random() < 0.6:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 7]))


def _system(seed: int) -> tuple[list, list[dict]]:
    """Sparse vectors over mixed keys: fresh random ones, the zero vector,
    repeats, scaled repeats and combinations of earlier vectors."""
    rng = random.Random(seed)
    keys = [0, 1, "a", "b", ("w", "1+", 2), ("z", "3"), 7, "c", ("m1", 0, 1, 5)]
    keys = keys[: rng.randint(2, len(keys))]
    rng.shuffle(keys)
    vectors: list[dict] = []
    for _ in range(rng.randint(1, 14)):
        roll = rng.random()
        if roll < 0.08 or not vectors and roll < 0.2:
            vec = {}
        elif roll < 0.2 and vectors:
            vec = dict(rng.choice(vectors))
        elif roll < 0.3 and vectors:
            scale = _coefficient(rng)
            vec = {k: scale * c for k, c in rng.choice(vectors).items()}
        elif roll < 0.5 and len(vectors) >= 2:
            vec = {}
            for other in rng.sample(vectors, 2):
                scale = _coefficient(rng)
                for k, c in other.items():
                    vec[k] = vec.get(k, 0) + scale * c
            vec = {k: c for k, c in vec.items() if c}
        else:
            support = rng.sample(keys, rng.randint(1, min(3, len(keys))))
            vec = {k: _coefficient(rng) for k in support}
        vectors.append(vec)
    return keys, vectors


def _shuffled(vec: dict, rng: random.Random) -> dict:
    items = list(vec.items())
    rng.shuffle(items)
    return dict(items)


def _replay(vectors: list[dict], ops: list[str]) -> list:
    span = RationalSpan()
    out = []
    for vec, op in zip(vectors, ops):
        out.append(getattr(span, op)(vec))
        out.append(span.rank)
    return out


SEEDS = range(240)


@pytest.mark.parametrize("block", range(4))
def test_span_matches_the_dense_reference(block):
    seen = {"add": 0, "express": 0, "add_or_express": 0, "dependent": 0, "zero": 0}
    for seed in SEEDS[block::4]:
        keys, vectors = _system(seed)
        rng = random.Random(10_000 + seed)
        ops = [rng.choice(["add", "express", "add_or_express"]) for _ in vectors]
        span = RationalSpan()
        ref = _Reference(keys)
        results = []
        for vec, op in zip(vectors, ops):
            want = ref.express(vec)
            seen[op] += 1
            seen["zero"] += not vec
            seen["dependent"] += want is not None
            if op == "add":
                got = span.add(vec)
                assert got == ref.add(vec), (seed, vec)
            elif op == "express":
                got = span.express(vec)
                assert got == want, (seed, vec)
            else:
                got = span.add_or_express(vec)
                if want is None:
                    assert got == (ref.add(vec), {}), (seed, vec)
                else:
                    assert got == (None, want), (seed, vec)
            assert span.rank == len(ref.columns)
            results += [got, span.rank]
        # Shuffling each vector's key order moves the pivots, not the answers.
        for trial in range(3):
            order = random.Random(20_000 + 7 * seed + trial)
            assert _replay([_shuffled(v, order) for v in vectors], ops) == results, seed
    assert all(seen.values()), seen


@pytest.mark.parametrize("block", range(2))
def test_rank_matches_the_dense_reference(block):
    capped = 0
    for seed in SEEDS[block::2]:
        keys, vectors = _system(seed)
        ref = _Reference(keys)
        ranks = []  # the reference rank after each prefix of the vectors
        for vec in vectors:
            ref.add(vec)
            ranks.append(len(ref.columns))
        full = ranks[-1]
        assert rank(vectors) == full, seed
        assert rank(iter(vectors)) == full, seed
        assert rank(vectors, cap=len(keys)) == full, seed
        order = random.Random(30_000 + seed)
        assert rank([_shuffled(v, order) for v in vectors]) == full, seed
        # With a cap, no vector is drawn once the rank reaches it.
        for cap in range(full + 1):
            drawn = []

            def draw():
                for vec in vectors:
                    drawn.append(vec)
                    yield vec

            assert rank(draw(), cap) == cap, (seed, cap)
            assert len(drawn) == (ranks.index(cap) + 1 if cap else 0), (seed, cap)
            capped += len(drawn) < len(vectors)
    assert capped


def test_rank_skips_zero_vectors(monkeypatch):
    """A zero vector reaches no elimination, and the ranks stay those of the
    dense reference, with the systems' zero vectors and with more of them
    spread among the others."""
    true_clear = linalg._clear
    cleared = []

    def nonempty_clear(residual, rows):
        assert residual, "rank handed _clear an empty residual"
        cleared.append(len(residual))
        return true_clear(residual, rows)

    monkeypatch.setattr(linalg, "_clear", nonempty_clear)
    zeros = 0
    for seed in SEEDS:
        keys, vectors = _system(seed)
        ref = _Reference(keys)
        for vec in vectors:
            ref.add(vec)
        padded = [v for vec in vectors for v in ({}, vec)] + [{}]
        for system in (vectors, padded):
            assert rank(system) == len(ref.columns), seed
            assert rank(iter(system), cap=len(keys)) == len(ref.columns), seed
        zeros += sum(not vec for vec in vectors)
    assert zeros and cleared


def test_express_outside_the_span_and_of_the_basis():
    span = RationalSpan()
    assert span.add({"x": 2, "y": Fraction(1, 3)}) == 0
    assert span.add({"y": 1}) == 1
    assert span.add({"x": 1}) is None
    assert span.express({"z": 1}) is None
    assert span.express({"x": 2, "y": Fraction(1, 3)}) == {0: 1}
    assert span.express({"y": 5}) == {1: 5}
    assert span.express({}) == {}
    assert span.add_or_express({"x": 1, "y": 1}) == (None, {0: Fraction(1, 2), 1: Fraction(5, 6)})
    assert span.add_or_express({"z": -1}) == (2, {})
    assert span.rank == 3


def test_reciprocal_keeps_units_integral():
    """1 / c by ``_quotient``, the package's one exact division."""
    for c, want in ((1, 1), (Fraction(-1), -1), (Fraction(1, 3), 3), (-1, -1)):
        assert _quotient(1, c) == want and type(_quotient(1, c)) is int
    assert _quotient(1, -2) == Fraction(-1, 2)
    assert _quotient(6, 3) == 2 and type(_quotient(6, 3)) is int
    assert _quotient(Fraction(3, 2), Fraction(1, 2)) == 3

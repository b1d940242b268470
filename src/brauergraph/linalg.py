"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys to nonzero coefficients that are
``int`` or ``Fraction``, never ``float``; integer input stays ``int`` until a
division by a pivot brings in a denominator.  ``RationalSpan`` is the one
solver: it keeps a forward-eliminated pivot table, so that adding a vector
and writing one over the basis stay cheap on the small systems this package
solves, and kernels are read from the coordinates of dependent vectors.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping

Vector = dict[Hashable, int | Fraction]


def vec_add(u: Mapping, v: Mapping, scale: int | Fraction = 1) -> Vector:
    out: Vector = dict(u)
    for k, c in v.items():
        new = out.get(k, 0) + scale * c
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


def vec_scale(u: Mapping, scale: int | Fraction) -> Vector:
    if not scale:
        return {}
    return {k: scale * c for k, c in u.items()}


def reciprocal(c: int | Fraction) -> int | Fraction:
    """Exact 1 / c: an ``int`` when c is +-1, else a ``Fraction``."""
    inv = Fraction(1) / c
    return inv.numerator if inv.denominator == 1 else inv


class RationalSpan:
    """Incremental span of sparse vectors with coordinate tracking.

    Basis vectors are the added vectors that increased the rank, numbered in
    insertion order; ``express`` writes any vector of the span in terms of
    them.
    """

    def __init__(self) -> None:
        self._pivots: dict[Hashable, tuple[int, Vector, Vector]] = {}
        self._order: list[Hashable] = []
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    def _reduce(self, vec: Mapping) -> tuple[Vector, Vector]:
        residual: Vector = dict(vec)
        combo: Vector = {}
        while True:
            hit = None
            for key in self._order:
                if key in residual:
                    hit = key
                    break
            if hit is None:
                return residual, combo
            _, row, row_combo = self._pivots[hit]
            coeff = residual[hit]
            residual = vec_add(residual, row, -coeff)
            for idx, c in row_combo.items():
                new = combo.get(idx, 0) + coeff * c
                if new:
                    combo[idx] = new
                else:
                    combo.pop(idx, None)

    def add(self, vec: Mapping) -> int | None:
        """Add a vector; return its basis index if independent, else None."""
        residual, combo = self._reduce(vec)
        if not residual:
            return None
        pivot = min(residual, key=repr)
        inv = reciprocal(residual[pivot])
        row = vec_scale(residual, inv)
        index = self._rank
        # row = inv * (vec - combo . basis), so express row over the basis:
        row_combo = {i: -inv * c for i, c in combo.items()}
        row_combo[index] = inv
        self._pivots[pivot] = (index, row, row_combo)
        self._order.append(pivot)
        self._rank += 1
        return index

    def express(self, vec: Mapping) -> Vector | None:
        """Coordinates of ``vec`` over the basis, or None if outside the span."""
        residual, combo = self._reduce(vec)
        if residual:
            return None
        return combo


def determinant(matrix: list[list[int]]) -> Fraction:
    """Determinant of a square integer matrix by fraction-free-ish elimination."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det

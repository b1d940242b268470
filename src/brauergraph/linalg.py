"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys to nonzero coefficients that are
``int`` or ``Fraction``, never ``float``; integer input stays ``int`` until a
division by a pivot brings in a denominator.  ``RationalSpan`` is the one
solver: it keeps a forward-eliminated pivot table, so that adding a vector
and writing one over the basis stay cheap on the small systems this package
solves, and kernels are read from the coordinates of dependent vectors.

The pivot of a new row is the first key of its residual, in the dict's
insertion order.  No output depends on that choice: ranks, the indices
``add`` hands out and the coordinates ``express`` returns are all taken over
the basis of added vectors, and coordinates over a basis are unique.
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
    if c == 1 or c == -1:
        return int(c)
    inv = Fraction(1) / c
    return inv.numerator if inv.denominator == 1 else inv


class RationalSpan:
    """Incremental span of sparse vectors with coordinate tracking.

    Basis vectors are the added vectors that increased the rank, numbered in
    insertion order; ``express`` writes any vector of the span in terms of
    them.  Row k of the pivot table is scaled to 1 at its pivot and holds no
    pivot of an earlier row (it was reduced by them before it was kept), so
    one forward pass over the rows in insertion order clears every pivot from
    a vector: subtracting row k can bring in pivots of later rows only.
    """

    def __init__(self) -> None:
        # (pivot key, row, row over the basis), in insertion order
        self._rows: list[tuple[Hashable, Vector, Vector]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Mapping) -> tuple[Vector, Vector]:
        """(residual, combo) with vec = residual + combo . basis."""
        residual: Vector = dict(vec)
        combo: Vector = {}
        get = residual.get
        for pivot, row, row_combo in self._rows:
            coeff = get(pivot)
            if coeff is None:
                continue
            for k, c in row.items():
                new = get(k, 0) - coeff * c
                if new:
                    residual[k] = new
                else:
                    del residual[k]
            for idx, c in row_combo.items():
                new = combo.get(idx, 0) + coeff * c
                if new:
                    combo[idx] = new
                else:
                    del combo[idx]
        return residual, combo

    def _keep(self, residual: Vector, combo: Vector) -> int:
        """Keep a nonzero residual as a new row; return its basis index."""
        pivot = next(iter(residual))
        inv = reciprocal(residual[pivot])
        index = len(self._rows)
        row = residual if inv == 1 else {k: inv * c for k, c in residual.items()}
        # row = inv * (vec - combo . basis), so express row over the basis:
        row_combo = {i: -inv * c for i, c in combo.items()}
        row_combo[index] = inv
        self._rows.append((pivot, row, row_combo))
        return index

    def add(self, vec: Mapping) -> int | None:
        """Add a vector; return its basis index if independent, else None."""
        residual, combo = self._reduce(vec)
        if not residual:
            return None
        return self._keep(residual, combo)

    def express(self, vec: Mapping) -> Vector | None:
        """Coordinates of ``vec`` over the basis, or None if outside the span."""
        residual, combo = self._reduce(vec)
        if residual:
            return None
        return combo

    def add_or_express(self, vec: Mapping) -> tuple[int | None, Vector]:
        """Add ``vec`` or write it over the basis, with one reduction.

        (index, {}) when ``vec`` was independent and became basis vector
        ``index``; (None, coordinates) when it already lay in the span.
        """
        residual, combo = self._reduce(vec)
        if not residual:
            return None, combo
        return self._keep(residual, combo), {}


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

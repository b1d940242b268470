"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys to nonzero coefficients that are
``int`` or ``Fraction``, never ``float``; integer input stays ``int`` until a
division by a pivot brings in a denominator.  ``_quotient`` is the package's
one exact division, also for ``algebra`` and ``models``: a whole quotient is
an ``int``, so a unit pivot keeps its row integral.  One forward elimination
(``_clear``) serves two solvers.  ``RationalSpan`` keeps its pivot table with
each row written over the basis, so that adding a vector and writing one
over the basis stay cheap on the small systems this package solves, and
kernels are read from the coordinates of dependent vectors.  ``rank`` keeps
the pivot rows alone, for callers that need a dimension and no coordinates.

The pivot of a new row is the first key of its residual, in the dict's
insertion order.  No output depends on that choice: ranks, the indices
``add`` hands out and the coordinates ``express`` returns are all taken over
the basis of added vectors, and coordinates over a basis are unique.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

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


def _quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """Exact a / b: an ``int`` when b divides a, else a ``Fraction``."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _clear(
    residual: Vector, rows: list[tuple[Hashable, Vector]]
) -> list[tuple[int, int | Fraction]]:
    """Clear every row's pivot from ``residual``, in place.

    Row k is scaled to 1 at its pivot and holds no pivot of an earlier row,
    so one forward pass over the rows in order clears them all: subtracting
    row k can bring in pivots of later rows only.  Returns the (row number,
    multiple) pairs subtracted, in order.
    """
    get = residual.get
    used = []
    for index, (pivot, row) in enumerate(rows):
        coeff = get(pivot)
        if coeff is None:
            continue
        for k, c in row.items():
            new = get(k, 0) - coeff * c
            if new:
                residual[k] = new
            else:
                del residual[k]
        used.append((index, coeff))
    return used


def _pivot_row(residual: Vector) -> tuple[Hashable, int | Fraction, Vector]:
    """(pivot, inv, row): a nonzero residual scaled by inv to 1 at its pivot."""
    pivot = next(iter(residual))
    inv = _quotient(1, residual[pivot])
    row = residual if inv == 1 else {k: inv * c for k, c in residual.items()}
    return pivot, inv, row


def rank(vectors: Iterable[Mapping], cap: int | None = None) -> int:
    """Rank of ``vectors``, with no coordinates kept.

    The vectors are drawn one at a time, and none is drawn once the rank
    reaches ``cap``, a bound the caller knows the rank cannot pass (the
    dimension of the space the vectors lie in, or their number): vectors
    drawn from a generator past that point are never formed.  A zero vector
    is skipped before it is copied or reduced.
    """
    if cap == 0:
        return 0
    rows: list[tuple[Hashable, Vector]] = []
    for vec in vectors:
        if not vec:
            continue
        residual = dict(vec)
        _clear(residual, rows)
        if residual:
            pivot, _, row = _pivot_row(residual)
            rows.append((pivot, row))
            if len(rows) == cap:
                break
    return len(rows)


class RationalSpan:
    """Incremental span of sparse vectors with coordinate tracking.

    Basis vectors are the added vectors that increased the rank, numbered in
    insertion order; ``express`` writes any vector of the span in terms of
    them.  The pivot rows are reduced as ``rank`` reduces them (``_clear``);
    each row is also kept written over the basis.
    """

    def __init__(self) -> None:
        # (pivot key, row) in insertion order, and each row over the basis
        self._rows: list[tuple[Hashable, Vector]] = []
        self._combos: list[Vector] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Mapping) -> tuple[Vector, Vector]:
        """(residual, combo) with vec = residual + combo . basis."""
        residual: Vector = dict(vec)
        combo: Vector = {}
        for index, coeff in _clear(residual, self._rows):
            for idx, c in self._combos[index].items():
                new = combo.get(idx, 0) + coeff * c
                if new:
                    combo[idx] = new
                else:
                    del combo[idx]
        return residual, combo

    def _keep(self, residual: Vector, combo: Vector) -> int:
        """Keep a nonzero residual as a new row; return its basis index."""
        pivot, inv, row = _pivot_row(residual)
        index = len(self._rows)
        # row = inv * (vec - combo . basis), so express row over the basis:
        row_combo = {i: -inv * c for i, c in combo.items()}
        row_combo[index] = inv
        self._rows.append((pivot, row))
        self._combos.append(row_combo)
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

"""Finite permutations of symbolic tokens.

Permutations act on an explicit finite domain of string names and compose
right to left: ``(p * q)(x) == p(q(x))``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


class Permutation:
    __slots__ = ("_map", "_domain")

    def __init__(self, mapping: Mapping[str, str]):
        mapping = dict(mapping)
        domain = frozenset(mapping)
        # Checked before any slot is set: the repr of a half-built object
        # would otherwise walk a non-bijection's "cycles" forever.
        if frozenset(mapping.values()) != domain:
            raise ValueError("mapping is not a bijection of its domain")
        self._map = mapping
        self._domain = domain

    @classmethod
    def from_cycles(
        cls, domain: Iterable[str], cycles: Sequence[Sequence[str]]
    ) -> "Permutation":
        """Build a permutation from disjoint cycles; unlisted names are fixed."""
        mapping = {x: x for x in domain}
        seen: set[str] = set()
        for cycle in cycles:
            for name in cycle:
                if name not in mapping:
                    raise ValueError(f"unknown name {name!r} in cycle")
                if name in seen:
                    raise ValueError(f"cycles are not disjoint at {name!r}")
                seen.add(name)
            for i, name in enumerate(cycle):
                mapping[name] = cycle[(i + 1) % len(cycle)]
        return cls(mapping)

    @property
    def domain(self) -> frozenset[str]:
        return self._domain

    def __call__(self, x: str) -> str:
        return self._map[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other._domain != self._domain:
            raise ValueError("cannot compose permutations on different domains")
        return Permutation({x: self._map[y] for x, y in other._map.items()})

    def mapping(self) -> dict[str, str]:
        """A fresh dict of the images; editing it leaves the permutation as is."""
        return dict(self._map)

    def image(self, names: Iterable[str]) -> frozenset[str]:
        """The set of images of ``names``."""
        return frozenset(map(self._map.__getitem__, names))

    def inverse(self) -> "Permutation":
        return Permutation({y: x for x, y in self._map.items()})

    def power(self, k: int, x: str) -> str:
        """Image of ``x`` under the k-th power (k may be negative)."""
        cycle = self.orbit(x)
        return cycle[k % len(cycle)]

    def orbit(self, x: str) -> tuple[str, ...]:
        """The cycle through ``x``, starting at ``x``."""
        out = [x]
        y = self._map[x]
        while y != x:
            out.append(y)
            y = self._map[y]
        return tuple(out)

    def orbits(self) -> list[tuple[str, ...]]:
        """All cycles, each rotated to start at its minimal name, sorted."""
        seen: set[str] = set()
        out = []
        for x in sorted(self._domain):
            if x in seen:
                continue
            orb = self.orbit(x)
            seen.update(orb)
            out.append(orb)
        return out

    def cycles(self) -> list[tuple[str, ...]]:
        """Non-trivial cycles only (fixed points omitted)."""
        return [orb for orb in self.orbits() if len(orb) > 1]

    def fixed_points(self) -> frozenset[str]:
        return frozenset(x for x in self._domain if self._map[x] == x)

    def is_involution(self) -> bool:
        return all(self._map[self._map[x]] == x for x in self._domain)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._domain))

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)})"


def cycle_string(perm: Permutation) -> str:
    """Canonical disjoint-cycle notation; identity renders as ``()``."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(c) + ")" for c in cycles)

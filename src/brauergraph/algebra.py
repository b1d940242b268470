"""Finite dimensional algebra models with exact rational structure constants.

Tables multiply like paths: in ``x * y`` the right factor acts first, so a
product of basis elements b_i * b_j is nonzero only when the source
idempotent of b_i matches the target idempotent of b_j.

An ``Element`` maps basis indices to nonzero coefficients that are ``int``
or ``Fraction``, never ``float``: unit constants stay ``int``, and a
``Fraction`` appears only where a denominator does.  The tables built here
have ``int`` structure constants, the skew model's included: its orbit basis
is scaled so that the 1/2 of a skew leg's idempotents (e +- e g) / 2 cancels
(``orbit_truncation``).  Denominators remain in elements of A#G, in
compressions of elements that do not lie in the corner, and in the pivots
of a span.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .core import BrauerGraph, induces_arrow
from .linalg import _quotient, vec_add

Element = dict[int, int | Fraction]

ONE = 1


class RenderedLabels(Sequence[str]):
    """Basis labels rendered on demand: ``labels[b]`` is ``render(b)``, formed
    only when something reads it.  A table's labels name basis elements in
    witnesses and renderings, which a passing verdict never reads."""

    def __init__(self, size: int, render: Callable[[int], str]):
        self._size = size
        self._render = render

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, b: int) -> str:
        if not -self._size <= b < self._size:
            raise IndexError("label index out of range")
        return self._render(b % self._size)

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return tuple(self) == tuple(other)
        return NotImplemented


class AlgebraTable:
    """Basis, corner data and structure constants of a finite dimensional algebra.

    ``labels`` is kept as given when it is ``RenderedLabels``, which the
    Brauer graph and orbit-basis builders pass so that no label is formed
    unless read; any other sequence is stored as a tuple.

    ``generators`` lists basis indices that, with the idempotents, generate
    the algebra (the arrows of a path basis); a builder that knows them sets
    it after construction.  Empty means every basis element that is not an
    idempotent.  ``monomial_isomorphism_violations`` proves that it spans
    before relying on it.
    """

    def __init__(
        self,
        labels: Sequence[str],
        src: Sequence[int],
        tgt: Sequence[int],
        idempotents: Sequence[tuple[str, int]],
        product_fn: Callable[[int, int], Element],
    ):
        self.labels = labels if isinstance(labels, RenderedLabels) else tuple(labels)
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.idempotents = tuple(idempotents)
        self.generators: tuple[int, ...] = ()
        self._product_fn = product_fn
        self._memo: dict[tuple[int, int], Element] = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def pairwise(self, i: int, j: int) -> Element:
        """Structure constants of b_i * b_j (right factor first)."""
        if self.src[i] != self.tgt[j]:
            return {}
        key = (i, j)
        out = self._memo.get(key)
        if out is None:
            out = self._product_fn(i, j)
            self._memo[key] = out
        return out

    def mul(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for i, ci in x.items():
            for j, cj in y.items():
                if self.src[i] != self.tgt[j]:
                    continue
                c = ci * cj
                for k, ck in self.pairwise(i, j).items():
                    new = out.get(k, 0) + c * ck
                    if new:
                        out[k] = new
                    else:
                        del out[k]
        return out

    @cached_property
    def idempotent_indices(self) -> frozenset[int]:
        """The basis indices of the idempotents."""
        return frozenset(index for _, index in self.idempotents)

    def generator_indices(self) -> tuple[int, ...]:
        """``generators``, or every basis element that is not an idempotent."""
        if self.generators:
            return self.generators
        return tuple(b for b in range(self.dim) if b not in self.idempotent_indices)

    def render(self, x: Element) -> str:
        """``x`` as coefficient*label terms in basis order; "0" when zero."""
        if not x:
            return "0"
        return " + ".join(f"{c}*{self.labels[k]}" for k, c in sorted(x.items()))

    @cached_property
    def corners(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """corners[t][s]: the basis indices b with tgt[b] == t and src[b] == s,
        ascending."""
        n = len(self.idempotents)
        corners: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
        for b, (t, s) in enumerate(zip(self.tgt, self.src)):
            corners[t][s].append(b)
        return tuple(tuple(map(tuple, row)) for row in corners)

    @cached_property
    def corner_sizes(self) -> tuple[tuple[int, ...], ...]:
        """corner_sizes[t][s] = dim e_t A e_s."""
        return tuple(tuple(map(len, row)) for row in self.corners)

    def cartan(self) -> list[list[int]]:
        return [list(row) for row in self.corner_sizes]

    def corner(self, x: Element, target: int, source: int) -> Element:
        """The part of x in the corner e_target A e_source."""
        return {
            k: c
            for k, c in x.items()
            if self.tgt[k] == target and self.src[k] == source
        }

    def radical_coefficient_free(self, x: Element) -> bool:
        """True when x has no component on any idempotent basis element."""
        return self.idempotent_indices.isdisjoint(x)


# ---------------------------------------------------------------------------
# Brauer graph algebra tables
# ---------------------------------------------------------------------------

BasisKey = tuple  # ("e", edge) | ("w", half_edge, length) | ("z", edge)


def bga_table_with_keys(
    graph: BrauerGraph,
) -> tuple[AlgebraTable, list[BasisKey], dict[BasisKey, int]]:
    """The table on the normal form basis: idempotents ("e", edge), proper
    prefixes ("w", h, t) of the special cycle at each half-edge h that
    induces an arrow, and socles ("z", edge).

    One pass over the keys fills the endpoints and the generators, the
    ("w", h, 1); the labels e[edge], w[h:t] and z[edge] are rendered from
    the keys on demand (``RenderedLabels``)."""
    if graph.is_skew:
        raise ValueError("Brauer graph algebra tables require an ordinary graph")
    edge_names = list(graph.edges_by_label)
    edge_pos = {name: p for p, name in enumerate(edge_names)}
    # One walk per sigma-orbit gives every half-edge its cycle and position
    # there; the walk key ("w", h, t) ends at sigma^t(h), which the products
    # read from ``ends``.
    cycle_at: dict[str, tuple[tuple[str, ...], int]] = {}
    for cycle in graph.sigma_orbits:
        for position, h in enumerate(cycle):
            cycle_at[h] = (cycle, position)
    socle_len = {
        h: len(cycle_at[h][0]) * graph.multiplicity[h]
        for h in graph.half_edges
        if induces_arrow(graph, h)
    }
    edge_labels = graph.edge_labels
    edge_of = {h: edge_pos[name] for h, name in edge_labels.items()}
    # One loop emits the keys with their endpoints: an idempotent or socle
    # sits in its edge's own corner, and w[h:t] runs from the edge of h to
    # the edge of its end sigma^t(h).  An arrow's socle length is at least 2,
    # so ("w", h, 1) is a key.
    keys: list[BasisKey] = [("e", name) for name in edge_names]
    ends: list[str | None] = [None] * len(keys)
    src = list(range(len(edge_names)))
    tgt = list(src)
    generators = []
    for h in sorted(socle_len):
        cycle, position = cycle_at[h]
        start = edge_of[h]
        generators.append(len(keys))
        for t in range(1, socle_len[h]):
            end = cycle[(position + t) % len(cycle)]
            keys.append(("w", h, t))
            ends.append(end)
            src.append(start)
            tgt.append(edge_of[end])
    keys.extend(("z", name) for name in edge_names)
    ends.extend([None] * len(edge_names))
    src.extend(range(len(edge_names)))
    tgt.extend(range(len(edge_names)))
    index_of = {k: i for i, k in enumerate(keys)}
    socle_of = {h: index_of["z", edge_labels[h]] for h in socle_len}

    def product(i: int, j: int) -> Element:
        left, right = keys[i], keys[j]
        if left[0] == "e":
            return {j: ONE}
        if right[0] == "e":
            return {i: ONE}
        if left[0] == "z" or right[0] == "z":
            return {}
        _, lh, lt = left
        _, rh, rt = right
        if lh != ends[j]:
            return {}
        total = lt + rt
        if total < socle_len[rh]:
            # the keys ("w", rh, t) are consecutive in t, so ("w", rh, total)
            # sits lt places after ("w", rh, rt)
            return {j + lt: ONE}
        if total == socle_len[rh]:
            return {socle_of[rh]: ONE}
        return {}

    def label_of(b: int) -> str:
        key = keys[b]
        if key[0] == "w":
            return f"w[{key[1]}:{key[2]}]"
        return f"{key[0]}[{key[1]}]"

    idempotents = tuple((name, p) for p, name in enumerate(edge_names))
    table = AlgebraTable(RenderedLabels(len(keys), label_of), src, tgt, idempotents, product)
    table.generators = tuple(generators)
    return table, keys, index_of


def bga_table(graph: BrauerGraph) -> AlgebraTable:
    return bga_table_with_keys(graph)[0]


def bga_dimension_formula(graph: BrauerGraph) -> int:
    """Closed count: sum over circ vertices of multiplicity times valency squared."""
    return sum(
        graph.multiplicity[orbit[0]] * len(orbit) ** 2
        for orbit in graph.sigma_orbits
    )


# ---------------------------------------------------------------------------
# Group actions and skew group algebras
# ---------------------------------------------------------------------------


class GroupActionTable(NamedTuple):
    """A cyclic group generator g acting on a table's basis by a permutation:
    g . b is the basis element images[b]."""

    order: int
    images: tuple[int, ...]

    def apply(self, power: int, index: int) -> int:
        """The index of g^power . b for b = ``index``."""
        for _ in range(power % self.order):
            index = self.images[index]
        return index


def _not_multiplicative(source: AlgebraTable, a: int, b: int) -> str:
    return f"map is not multiplicative on ({source.labels[a]}, {source.labels[b]})"


def monomial_isomorphism_violations(
    source: AlgebraTable,
    target: AlgebraTable,
    images: Sequence[int],
) -> str | None:
    """Why b -> images[b] is not an algebra isomorphism from ``source`` onto
    ``target``; None when it is.

    Precondition: both tables are associative and obey the unit law (the
    test suite's ``check_table`` tests both).  The map must send the source
    basis bijectively onto the target basis, and each idempotent to an
    idempotent; pi is the permutation it makes of the idempotent positions.
    An answer of None is then a proof:

    (a) src(phi b) = pi(src b) and tgt(phi b) = pi(tgt b) for every basis
        element b, so a product that is zero because its corners do not
        match stays zero under phi;
    (b) a search from the idempotents along single-term products a b, with
        a a generator (``source.generators``), reaches every basis element,
        else "generators do not span";
    (c) phi(a b) = phi(a) phi(b) for every generator a and every basis
        element b with tgt b = src a, checked as the search reaches b:
        phi permutes the basis, so phi(a b) is a b with each term moved
        from k to images[k], and it must equal phi(a) phi(b).

    By (b) every basis element is a multiple of a_k ... a_1 e with
    generators a_i and an idempotent e; phi(e y) = phi(e) phi(y) by (a) and
    the unit law, and by (c), associativity and induction on k,
    phi(x y) = phi(x) phi(y) for all x, y.  The cost is one product in each
    table per composable generator-basis pair; each is read once, so the
    products bypass the tables' memos, which would keep them for the
    tables' lifetime.
    """
    if len(images) != source.dim or sorted(images) != list(range(target.dim)):
        return "map images do not permute the basis"
    position_of = {index: q for q, (_, index) in enumerate(target.idempotents)}
    if len(source.idempotents) != len(position_of):
        return "map does not permute the idempotents"
    pi = []
    for label, index in source.idempotents:
        if images[index] not in position_of:
            return f"map sends idempotent {label} to no idempotent"
        pi.append(position_of[images[index]])
    src, tgt = source.src, source.tgt
    for b, image in enumerate(images):
        if (target.src[image], target.tgt[image]) != (pi[src[b]], pi[tgt[b]]):
            return f"map does not move the corner of {source.labels[b]} by pi"
    # (a, phi a) for each generator a, by the corner of its source
    by_source: dict[int, list[tuple[int, int]]] = {}
    for a in source.generator_indices():
        by_source.setdefault(src[a], []).append((a, images[a]))
    product, image_product = source._product_fn, target._product_fn
    reached = set(source.idempotent_indices)
    frontier = sorted(reached)
    while frontier:
        b = frontier.pop()
        phi_b = images[b]
        for a, phi_a in by_source.get(tgt[b], ()):
            ab = product(a, b)
            # (c)
            if {images[k]: c for k, c in ab.items()} != image_product(phi_a, phi_b):
                return _not_multiplicative(source, a, b)
            if len(ab) == 1:
                (c,) = ab
                if c not in reached:
                    reached.add(c)
                    frontier.append(c)
    if len(reached) != source.dim:
        return "generators do not span"
    return None


def action_violations(table: AlgebraTable, act: GroupActionTable) -> list[str]:
    """Why g is no automorphism of ``table`` with g^order = 1; empty when it is.

    That g is an automorphism is ``monomial_isomorphism_violations`` with
    ``table`` as source and target.  g^order = 1 is read off the cycles of
    the image permutation in one pass: g^order fixes a cycle of length L
    when L divides the order, and moves every element of it otherwise.  A
    failure names the least basis element of the least failing cycle, which
    is the least b with g^order . b != b.
    """
    why = monomial_isomorphism_violations(table, table, act.images)
    if why is not None:
        return [why]
    seen = [False] * table.dim
    for b in range(table.dim):
        if seen[b]:
            continue
        length, x = 0, b
        while not seen[x]:
            seen[x] = True
            x = act.images[x]
            length += 1
        if act.order % length:
            return [f"action order is not {act.order} at {table.labels[b]}"]
    return []


def idempotent_permutation(table: AlgebraTable, act: GroupActionTable) -> list[int]:
    position_of = {index: p for p, (_, index) in enumerate(table.idempotents)}
    return [position_of[act.images[index]] for _, index in table.idempotents]


def skew_group_table(table: AlgebraTable, act: GroupActionTable) -> AlgebraTable:
    """The skew group algebra: basis b (x) g^k, product twisting by the action."""
    problems = action_violations(table, act)
    if problems:
        raise ValueError("; ".join(problems))
    n = act.order
    dim = table.dim
    pi = idempotent_permutation(table, act)
    pi_inv = [0] * len(pi)
    for p, q in enumerate(pi):
        pi_inv[q] = p

    def pi_inv_power(power: int, p: int) -> int:
        for _ in range(power % n):
            p = pi_inv[p]
        return p

    labels = []
    src = []
    tgt = []
    for k in range(n):
        for b in range(dim):
            labels.append(f"{table.labels[b]}|g{k}")
            src.append(pi_inv_power(k, table.src[b]))
            tgt.append(table.tgt[b])

    def product(i: int, j: int) -> Element:
        k, b = divmod(i, dim)
        l, c = divmod(j, dim)
        sheet = (k + l) % n * dim
        bc = table.pairwise(b, act.apply(k, c))
        return {sheet + d: coeff for d, coeff in bc.items()}

    skew = AlgebraTable(labels, src, tgt, table.idempotents, product)
    # A's generators on sheet 0 and e (x) g at each idempotent e: the search
    # of ``monomial_isomorphism_violations`` reaches e' (x) g^k from e (x) 1
    # through the e (x) g, then b (x) g^k through A's generators.
    if n > 1:
        skew.generators = (*table.generator_indices(), *(dim + e for _, e in table.idempotents))
    return skew


# ---------------------------------------------------------------------------
# The orbit basis of f (A#G) f
# ---------------------------------------------------------------------------


def integral_form(x: Element) -> tuple[Element, int]:
    """(d * x, d), with ``int`` coefficients, for the least d > 0 that clears
    the denominators of x."""
    d = math.lcm(*(c.denominator for c in x.values()))
    return {k: int(c * d) for k, c in x.items()}, d


class OrbitTruncation(NamedTuple):
    """The corner algebra f (A#G) f built by ``orbit_truncation``.

    ``compress(x)`` gives the coordinates of f x f for any element x of A#G,
    and raises ``ValueError`` when f x f is no combination of the basis.
    ``vector(k)`` is basis element k as an element of A#G.
    ``compressions(x)`` lists the nonzero F_p x F_q by corner (p, q)
    ascending, F = d f being the integer form of a chosen idempotent f:
    {e: 1} for e (x) 1 (d = 1), {e: 1, dim + e: +-1} for a half (d = 2).
    The table's idempotents are the chosen ones, in order, with their labels.
    """

    table: AlgebraTable
    compress: Callable[[Element], Element]
    vector: Callable[[int], Element]
    compressions: Callable[[Element], list[tuple[tuple[int, int], Element]]]


def orbit_truncation(
    table: AlgebraTable,
    act: GroupActionTable,
    chosen: Sequence[tuple[str, int, int | None]],
) -> OrbitTruncation:
    """f (A#G) f on the orbit basis, without building the skew group table.

    ``table`` is A, ``act`` an action of G = <g> permuting its basis, and
    index k * table.dim + b of A#G is b (x) g^k as in ``skew_group_table``.
    Products in A#G are taken from ``table`` and ``act`` directly.
    ``chosen`` names the idempotents with sum f as triples (label, e, copy),
    e the basis index of an idempotent of A: copy None is e (x) 1, and copy
    0 or 1 the half (e +- e (x) g) / 2 with sign (-1)^copy.  Their integer
    forms F = d f are {e: 1} with d = 1 and {e: 1, dim + e: +-1} with d = 2.
    Three entry checks raise ``ValueError`` naming the label: e is an
    idempotent of A; a halved e is fixed by g, and g has order 2; and no e
    is chosen twice, except as its two different halves.

    Multiplying by g on either side moves basis keys of A#G to basis keys.
    So f_p (b (x) g^k) f_q lies on the G x G-orbit of (b, k) under those
    moves, and for the sheet-zero idempotents of a covering the keys of one
    orbit give multiples (some zero) of one element.  The (p, q) corner's basis is one nonzero such element per
    orbit, admitted in the order of the generic corner sweep (the
    idempotents, then by ambient index; the test suite's ``truncate`` is
    that sweep); its elements have disjoint supports, so an element of
    the corner is written in the basis by reading its coefficient at one
    key of each.  Every reading is checked in place: each other key of that
    basis element must carry the same multiple of it, and the terms so
    checked must be all the terms of the element read.  With disjoint
    supports this is the test that the combination rebuilt from the
    readings equals the element, without building it.  So a basis that
    does not span, a product that leaves the truncation and two orbit
    elements that overlap in a corner raise ``ValueError``.

    A compression takes no product in A.  Every chosen F is a combination
    of keys e (x) g^i with e an idempotent, so

        F_p (c (x) g^l) F_q = sum a b (g^i c) (x) g^(i+l+j)

    over the terms a (e (x) g^i) of F_p and b (e' (x) g^j) of F_q with
    tgt(g^i c) = e and src(g^i c) = tgt(g^(i+l) e'); ``compress`` sums
    this over the keys of x.  It rests on the unit law:
    e b = b when tgt b = e, and b e = b when src b = e, for every basis
    element b and each idempotent e of A sitting in its own corner.  That
    is checked at entry with one product per side of each basis element
    (else ``ValueError``); that g sends idempotents to idempotents is part
    of the action proof.

    The chosen elements are orthogonal idempotents, each in sheet 0 or
    g-stable, by the entry checks, the unit law and the action proof, so no
    product in A#G checks them.  A term e (x) g^i of F_p times a term
    e' (x) g^j of F_q is e (g^i e') (x) g^(i+j), and g^i e' is an
    idempotent.  Distinct idempotents of A sit in distinct corners, so this
    is zero unless g^i e' = e, which forces e' = e: i = 0 unless F_p is a
    half, whose e is fixed by g.  So F_p F_q = 0 when their e differ.  With
    g e = e and g^2 = 1, (e (x) g)^2 = e (x) 1, so the two halves of e are
    orthogonal idempotents, and

        (e +- e (x) g)(1 (x) g) = +-(e +- e (x) g) = (1 (x) g)(e +- e (x) g).

    So each F lies in sheet 0 or F (1 (x) g) = +-F = (1 (x) g) F, and the
    idempotents carrying a g-stable F are {e}, which no sheet-0 F carries.

    The sweep compresses a key only when no earlier compression has it in
    its support.  Lemma: let y be a key in the support of F_p x F_q for an
    earlier key x.  Then every nonzero F_p' y F_q' is +-F_p' x F_q', which
    x's turn already admitted or found in the span, so skipping y changes
    nothing.  Proof: F_p and F_q move a key only by the powers of 1 (x) g
    that are sheets of their keys, so y = (1 (x) g)^i x (1 (x) g)^j with
    i = 0 when F_p lies in sheet 0 and j = 0 when F_q does.  Left side: if
    F_p' is g-stable, F_p' (1 (x) g)^i = +-F_p'.  If F_p' lies in sheet 0
    and i != 0, then F_p is g-stable and the target of y is an idempotent
    carrying F_p, which no sheet-0 F carries, so F_p' y = 0.  The right
    side is the same, the source of y being carried by F_q up to g.  So
    each G x G-orbit of keys is compressed about once.

    Basis element k of corner (p, q) is U / d_p, where U = F_p (b (x) g^k) F_q
    is its integer form, F_p = d_p f_p, and the chosen idempotents
    themselves are F_p / d_p = f_p.  Sweeps and checks stay in ``int``
    arithmetic on the forms U.  If U_i U_j = sum a_k U_k for
    basis elements i in (p, q) and j in (q, r), then b_i b_j = sum (a_k / d_q)
    b_k, and f_p x f_q = sum (a_k / d_q) b_k when F_p x F_q = sum a_k U_k.
    Since F_q F_q = d_q F_q, U_i U_j = d_q F_p (x F_q y) F_r for the keys of
    U_i = F_p x F_q and U_j = F_q y F_r: d_q times an integer combination of
    key compressions.  A key compression is +-U_k (the lemma), so every
    structure constant a_k / d_q is an integer; the test suite pins them to
    +-1 on its covers.  The scale d_p d_q, that of f_p (b (x) g^k) f_q,
    would leave the products through a skew leg's idempotent at +-1/2.
    """
    problems = action_violations(table, act)
    if problems:
        raise ValueError("; ".join(problems))
    n, dim = act.order, table.dim
    src, tgt = table.src, table.tgt
    # The unit law the compressions read from the corners alone.  Like the
    # action proof, it reads each product once and bypasses the memo.
    at = [index for _, index in table.idempotents]
    for p, e in enumerate(at):
        if src[e] != p or tgt[e] != p:
            raise ValueError(f"idempotent {p} does not lie in its own corner")
    product_fn = table._product_fn
    for b in range(dim):
        if product_fn(at[tgt[b]], b) != {b: ONE} or product_fn(b, at[src[b]]) != {b: ONE}:
            raise ValueError(f"unit law fails on {table.labels[b]}")
    # moved[k][c] = g^k . c
    moved = [list(range(dim))]
    for _ in range(1, n):
        moved.append([act.images[c] for c in moved[-1]])

    def mul(x: Element, y: Element) -> Element:
        """(b (x) g^k)(c (x) g^l) = b (g^k . c) (x) g^(k+l)."""
        out: Element = {}
        right = [(*divmod(j, dim), cj) for j, cj in y.items()]
        memo = table._memo
        for i, ci in x.items():
            k, b = divmod(i, dim)
            moved_k, src_b = moved[k], src[b]
            for l, c, cj in right:
                c = moved_k[c]
                if tgt[c] != src_b:
                    continue
                sheet = (k + l) % n * dim
                coeff = ci * cj
                bc = memo.get((b, c))
                if bc is None:
                    bc = table.pairwise(b, c)
                for d, cd in bc.items():
                    key = sheet + d
                    new = out.get(key, 0) + coeff * cd
                    if new:
                        out[key] = new
                    else:
                        del out[key]
        return out

    # The integer forms F = d f of the chosen idempotents, after the entry
    # checks that make them orthogonal idempotents (see the docstring).
    forms: list[Element] = []
    scale: list[int] = []
    copies: dict[int, set[int | None]] = {}
    for label, e, copy in chosen:
        if e not in table.idempotent_indices:
            raise ValueError(f"chosen idempotent {label!r} is no idempotent of the table")
        taken = copies.setdefault(e, set())
        if taken and (copy is None or None in taken or copy in taken):
            raise ValueError(f"chosen idempotent {label!r} overlaps an earlier one")
        taken.add(copy)
        if copy is not None and (act.images[e] != e or n != 2):
            raise ValueError(f"halved idempotent {label!r} needs g to fix it and have order 2")
        forms.append({e: ONE} if copy is None else {e: ONE, dim + e: (-1) ** copy})
        scale.append(1 if copy is None else 2)

    # Term u = a (e (x) g^i) of F_p is filed under lefts[i][src e]: with a
    # key c (x) g^l on its right it is nonzero only if tgt(g^i c) = src e.
    Terms = list[list[list[tuple[int, int, int]]]]
    lefts: Terms = [[[] for _ in at] for _ in range(n)]
    for p, form in enumerate(forms):
        for u, (key, a) in enumerate(form.items()):
            i, e = divmod(key, dim)
            lefts[i][src[e]].append((p, u, a))

    # Term b (e' (x) g^j) of F_q is filed under rights[m][tgt(g^m e')] for
    # every m, as (q, (m + j) mod n times dim, b): with c (x) g^m on its left
    # it is nonzero only if src c = tgt(g^m e'), and the product's key is
    # c (x) g^(m+j).
    rights: Terms = [[[] for _ in at] for _ in range(n)]
    for q, form in enumerate(forms):
        for key, b in form.items():
            j, e = divmod(key, dim)
            for m in range(n):
                rights[m][tgt[moved[m][e]]].append((q, (m + j) % n * dim, b))

    # The terms of the F_p that meet c (x) g^l on their right, for each basis
    # element c of A: (p, u, a, i, g^i c, src g^i c), ascending in (p, u).
    left_hits: list[list[tuple]] = [[] for _ in range(dim)]
    for i, (lefts_i, moved_i) in enumerate(zip(lefts, moved)):
        for c, c_i in enumerate(moved_i):
            for p, u, a in lefts_i[tgt[c_i]]:
                left_hits[c].append((p, u, a, i, c_i, src[c_i]))
    for hits in left_hits:
        hits.sort()

    def key_compressions(key: int) -> list[tuple[tuple[int, int], Element]]:
        """The nonzero integer forms F_p (c (x) g^l) F_q, by corner (p, q)
        ascending, for the key c (x) g^l: the docstring's formula, summed in
        the order of ``mul(mul(F_p, key), F_q)``."""
        l, c = divmod(key, dim)
        out: dict[tuple[int, int], Element] = {}
        for p, _, a, i, c_i, v in left_hits[c]:
            m = (i + l) % n
            for q, sheet, b in rights[m][v]:
                y = sheet + c_i
                form = out.get((p, q))
                if form is None:
                    out[p, q] = {y: a * b}
                    continue
                new = form.get(y, 0) + a * b
                if new:
                    form[y] = new
                else:
                    del form[y]
        return [(corner, out[corner]) for corner in sorted(out) if out[corner]]

    def compressions(x: Element) -> list[tuple[tuple[int, int], Element]]:
        """The nonzero integer forms F_p x F_q, by corner (p, q) ascending:
        the sums of the key compressions of x."""
        sums: dict[tuple[int, int], Element] = {}
        for key, c in x.items():
            for corner, form in key_compressions(key):
                sums[corner] = vec_add(sums.get(corner, {}), form, c)
        return [(corner, sums[corner]) for corner in sorted(sums) if sums[corner]]

    basis: list[Element] = []
    reps: list[int] = []
    owners: dict[tuple[int, int], dict[int, int]] = {}

    def read(corner: tuple[int, int], form: Element) -> Element | None:
        """Coordinates of ``form`` over the corner's integer forms; None when
        ``form`` is no combination of them, checked in place as the
        docstring of ``orbit_truncation`` says."""
        owner = owners.get(corner, {})
        get = form.get
        coords: Element = {}
        terms = 0
        for key in form:
            k = owner.get(key)
            if k is None:
                return None
            if k in coords:
                continue
            u, rep = basis[k], reps[k]
            c = get(rep)
            if c is None:
                return None
            a = _quotient(c, u[rep])
            for key_u, c_u in u.items():
                if get(key_u) != a * c_u:
                    return None
            coords[k] = a
            terms += len(u)
        return coords if terms == len(form) else None

    # The key whose compression admitted each basis element, -1 for the
    # chosen idempotents; the labels are rendered from it on demand.
    origins: list[int] = []
    sources: list[int] = []
    targets: list[int] = []

    def admit(corner: tuple[int, int], form: Element, origin: int) -> None:
        owner = owners.setdefault(corner, {})
        if not owner.keys().isdisjoint(form):
            if read(corner, form) is None:
                raise ValueError(f"orbit elements of corner {corner} overlap")
            return
        owner.update(dict.fromkeys(form, len(basis)))
        basis.append(form)
        reps.append(min(form))
        origins.append(origin)
        targets.append(corner[0])
        sources.append(corner[1])

    for p, form in enumerate(forms):
        admit((p, p), form, -1)
    covered: set[int] = set()
    for key in range(n * dim):
        if key in covered or not left_hits[key % dim]:
            continue
        for (p, q), form in key_compressions(key):
            covered.update(form)
            admit((p, q), form, key)

    def product(i: int, j: int) -> Element:
        form = mul(basis[i], basis[j])
        if not form:
            return {}
        coords = read((targets[i], sources[j]), form)
        if coords is None:
            raise ValueError("truncation is not multiplicatively closed")
        d = scale[sources[i]]
        return {k: _quotient(a, d) for k, a in coords.items()}

    def vector(k: int) -> Element:
        d = scale[targets[k]]
        return {key: _quotient(u, d) for key, u in basis[k].items()}

    def compress(x: Element) -> Element:
        coords: Element = {}
        for (p, q), form in compressions(x):
            read_coords = read((p, q), form)
            if read_coords is None:
                raise ValueError("element does not lie in the truncation")
            for k, a in read_coords.items():
                coords[k] = _quotient(a, scale[q])
        return coords

    def label_of(k: int) -> str:
        p, q = targets[k], sources[k]
        if origins[k] < 0:
            return chosen[p][0]
        sheet, b = divmod(origins[k], dim)
        return f"{table.labels[b]}|g{sheet}[{p}.{q}]"

    idempotents = [(label, p) for p, (label, _, _) in enumerate(chosen)]
    corner_table = AlgebraTable(
        RenderedLabels(len(origins), label_of), sources, targets, idempotents, product
    )
    return OrbitTruncation(corner_table, compress, vector, compressions)


# ---------------------------------------------------------------------------
# Trivial extensions
# ---------------------------------------------------------------------------


def trivial_extension(table: AlgebraTable) -> AlgebraTable:
    """The symmetric algebra A (+) D(A) with square-zero dual part."""
    dim = table.dim
    labels = list(table.labels) + [f"D({lbl})" for lbl in table.labels]
    src = list(table.src) + list(table.tgt)
    tgt = list(table.tgt) + list(table.src)

    # x * dual(b) = sum_c coeff_b(c * x) dual(c);  dual(b) * y = sum_c coeff_b(y * c) dual(c)
    # Only the composable pairs give a product: c * x needs tgt x = src c,
    # and x * c needs src x = tgt c.
    corners = table.corners
    right_by_dual: dict[tuple[int, int], Element] = {}
    left_by_dual: dict[tuple[int, int], Element] = {}
    for c in range(dim):
        for row in corners[table.src[c]]:
            for x in row:
                for b, coeff in table.pairwise(c, x).items():
                    entry = right_by_dual.setdefault((x, b), {})
                    entry[dim + c] = entry.get(dim + c, 0) + coeff
        for row in corners:
            for x in row[table.tgt[c]]:
                for b, coeff in table.pairwise(x, c).items():
                    entry = left_by_dual.setdefault((x, b), {})
                    entry[dim + c] = entry.get(dim + c, 0) + coeff

    def product(i: int, j: int) -> Element:
        if i < dim and j < dim:
            return dict(table.pairwise(i, j))
        if i < dim:
            return dict(right_by_dual.get((i, j - dim), {}))
        if j < dim:
            return dict(left_by_dual.get((j, i - dim), {}))
        return {}

    triv = AlgebraTable(labels, src, tgt, table.idempotents, product)
    # Generated by A's generators and some duals.  The search of
    # ``monomial_isomorphism_violations`` steps from D(b) to D(c) when
    # a . D(b) = lambda D(c) for a generator a; a dual that no step reaches
    # from the duals chosen so far is chosen, from the highest index down,
    # so few are chosen where longer basis elements come later.
    generators = table.generator_indices()
    reached: set[int] = set()
    duals = []
    for root in reversed(range(dim)):
        frontier = [] if root in reached else [root]
        duals += [dim + b for b in frontier]
        while frontier:
            reached.add(b := frontier.pop())
            for a in generators:
                image = right_by_dual.get((a, b), ())
                if len(image) == 1 and (c := next(iter(image)) - dim) not in reached:
                    frontier.append(c)
    triv.generators = (*generators, *duals)
    return triv


def extend_action_to_trivial_extension(
    table: AlgebraTable, act: GroupActionTable
) -> GroupActionTable:
    """g . dual(b) = dual(g . b)."""
    dim = table.dim
    return GroupActionTable(act.order, (*act.images, *(dim + b for b in act.images)))


def trivial_extension_iso_report(
    table: AlgebraTable, act: GroupActionTable
) -> tuple[bool, str | None]:
    """Verify Triv(A G) ~ Triv(A) G via the explicit basis-wise map

        b (x) g^k -> b (x) g^k,  dual(b (x) g^k) -> dual(g^-k . b) (x) g^-k

    by ``monomial_isomorphism_violations``.
    """
    lhs = trivial_extension(skew_group_table(table, act))
    rhs = skew_group_table(
        trivial_extension(table), extend_action_to_trivial_extension(table, act)
    )
    n, dim = act.order, table.dim
    images = [k * 2 * dim + b for k in range(n) for b in range(dim)]
    for k in range(n):
        for b in range(dim):
            images.append((-k) % n * 2 * dim + dim + act.apply(-k, b))
    why = monomial_isomorphism_violations(lhs, rhs, images)
    return why is None, why

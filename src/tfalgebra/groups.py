"""Finite groups stored extensionally by multiplication table.

Elements are the indices 0..n-1.  Construction checks the full group axioms
(associativity over all triples, two-sided identity, inverses), so a
:class:`FiniteGroup` that exists is honest.  The order cap
``DEFAULT_ORDER_CAP`` keeps the O(n^3) associativity sweep cheap.
"""

from __future__ import annotations

import itertools

from .errors import NotAGroup, TooLarge

DEFAULT_ORDER_CAP = 64


class FiniteGroup:
    """Group on 0..n-1 given by table[a][b] = a*b.

    >>> G = cyclic_group(3)
    >>> G.mul(1, 2), G.inv(2), G.identity
    (0, 1, 0)
    """

    __slots__ = ("table", "order", "identity", "inverse", "_abelian")

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise NotAGroup("empty multiplication table")
        if n > DEFAULT_ORDER_CAP:
            raise TooLarge(f"group order {n} exceeds cap {DEFAULT_ORDER_CAP}")
        for a, row in enumerate(table):
            if len(row) != n:
                raise NotAGroup(f"row {a} has length {len(row)} != {n}", witness=(a,))
            for b, v in enumerate(row):
                if not (isinstance(v, int) and 0 <= v < n):
                    raise NotAGroup(f"entry table[{a}][{b}] = {v!r} out of range", witness=(a, b))
        self.table = table
        self.order = n

        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise NotAGroup("no two-sided identity element")
        self.identity = ident

        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == ident and table[b][a] == ident:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise NotAGroup(f"element {a} has no inverse", witness=(a,))
        self.inverse = tuple(inverse)

        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise NotAGroup(
                            f"associativity fails at ({a}, {b}, {c})", witness=(a, b, c)
                        )
        self._abelian = all(
            table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n)
        )

    # -- operations -----------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, b: int, a: int) -> int:
        """b * a * b^-1."""
        return self.mul(self.mul(b, a), self.inverse[b])

    def elements(self) -> range:
        return range(self.order)

    def tuples(self, n: int):
        return itertools.product(range(self.order), repeat=n)

    @property
    def is_abelian(self) -> bool:
        return self._abelian

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and other.table == self.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def group_from_table(table) -> FiniteGroup:
    """Validate a square index table as a group; raises NotAGroup with a witness."""
    return FiniteGroup(table)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on the lexicographically ordered permutation tuples (n <= 4)."""
    if n > 4:
        raise TooLarge(f"S{n}: symmetric groups beyond S4 exceed the table cap")
    if n < 1:
        raise NotAGroup(f"S{n}: a symmetric group needs n >= 1")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # (p * q)(x) = p(q(x))
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(table)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with element (a, b) encoded as a * |H| + b."""
    nH = H.order
    table = tuple(
        tuple(
            G.table[a1][a2] * nH + H.table[b1][b2]
            for a2 in G.elements()
            for b2 in H.elements()
        )
        for a1 in G.elements()
        for b1 in H.elements()
    )
    return FiniteGroup(table)

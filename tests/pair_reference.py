"""Reference pair check: every condition walked out in full.

The library decides a scalar pair in ``algebra._read_pair``.  It reads the
character only on the generators of A and at the values of kappa, and it
decides the compatibility condition one element a at a time over flat g1
rows, as g1(b, c) g1(a, bc) = chi(kappa(a, b, c)) g1(a, b) g1(ab, c) with no
inverse taken.  :func:`witness_by_walk` is the route it replaced: the
character on every element of A, and the compatibility quotient
g1(b, c) g1(ab, c)^-1 g1(a, bc) g1(a, b)^-1 against chi(kappa(a, b, c)) at
every triple, with kappa listed by ``Cochain.entries()`` and g1 read through
a table of inverses.  The tests compare the first failed condition of both.
"""

from __future__ import annotations

from tfalgebra.algebra import KappaPair


def witness_by_walk(context, pair):
    """The first failed pair condition, every condition walked out in full; None for a pair."""
    G, A, F = context.group, context.module, context.field
    add, zero = F.add, F.zero
    pair = KappaPair({k: add(zero, v) for k, v in pair.g1.items()}, tuple(add(zero, x) for x in pair.g2))
    e, table, g1 = G.identity, G.table, pair.g1
    if len(pair.g2) != A.rank:
        return ("g2-shape", len(pair.g2))
    for i, (gi, m) in enumerate(zip(pair.g2, A.moduli)):
        if F.is_zero(gi):
            return ("g2-zero", i)
        if F.power(gi, m) != F.one:
            return ("g2-order", i)
    chi = {x: pair.g2_value(F, x) for x in A.elements()}
    for a in G.elements():
        for x, value in chi.items():
            if chi[A.act(a, x)] != value:
                return ("g2-invariance", a, x)
    for a, b in G.tuples(2):
        v = g1.get((a, b))
        if v is None or F.is_zero(v):
            return ("g1-zero", a, b)
    for a in G.elements():
        if g1[(a, e)] != F.one or g1[(e, a)] != F.one:
            return ("g1-normalization", a)
    inv = {ab: F.inv(g1[ab]) for ab in G.tuples(2)}
    for (a, b, c), kv in zip(G.tuples(3), context.kappa.entries()):
        ab, bc = table[a][b], table[b][c]
        d2 = F.mul(F.mul(g1[(b, c)], inv[(ab, c)]), F.mul(g1[(a, bc)], inv[(a, b)]))
        if d2 != chi[kv]:
            return ("compatibility", a, b, c)
    return None

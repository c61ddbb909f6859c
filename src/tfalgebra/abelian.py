"""Finite abelian groups held as explicit lists of residue tuples.

The brute-force oracles of :mod:`cohomology` and :mod:`pairs` list a group
of residue vectors modulo ``moduli`` in full, together with a subgroup, and
read the structure of the quotient off by counting alone.  This module is
their shared engine.  It deliberately uses no normal forms and nothing of
:mod:`intmat`, so an oracle built on it stays independent of the route it
checks.  :func:`canonical_generators` is the one rule for representatives:
:func:`intmat.quotient` applies it to the listed class group, keyed by
coset minima, so both routes pick the same generators.  That group is
listed in digits whose sums carry, so both functions take an optional
``canon`` that brings every sum and multiple back to its listed form; the
oracles pass none.
"""

from __future__ import annotations

from math import prod

from .errors import NotAGroup
from .fields import factorize


class _FactorGroup:
    """``order`` and ``describe`` of a class group read off its ``invariant_factors``."""

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def describe(self) -> str:
        return " x ".join(f"Z/{d}" for d in self.invariant_factors) or "trivial"


def _add(u, v, moduli, canon=None):
    w = tuple((a + b) % m for a, b, m in zip(u, v, moduli))
    return w if canon is None else canon(w)


def factors_by_counting(elements, subgroup, moduli, canon=None) -> list[int]:
    """Invariant factors of (elements)/(subgroup) from annihilator counts alone.

    For each prime p the numbers a_i = log_p #{q : p^i q = 0} determine the
    multiplicity of every cyclic p-power factor; factors are then aligned
    largest-with-largest across primes.  Raises :class:`NotAGroup` when the
    counts are impossible, which happens when ``subgroup`` is not a subgroup
    of ``elements``.  ``canon``, when given, is applied after every multiple,
    for groups whose elements are not plain residues (see
    :func:`canonical_generators`).
    """
    norm = canon or (lambda w: w)
    sub = set(subgroup)
    q_order, rest = divmod(len(elements), len(sub))
    if rest:
        raise NotAGroup(f"{len(sub)} subgroup elements do not divide {len(elements)}")
    if q_order == 1:
        return []
    ranks: dict[int, list[int]] = {}
    for p, e_top in factorize(q_order).items():
        counts = [0]  # counts[i] = log_p #{q in quotient : p^i q = 0}
        while True:
            d = p ** len(counts)
            killed = sum(
                1 for z in elements if norm(tuple((d * x) % m for x, m in zip(z, moduli))) in sub
            )
            a_i, rest = divmod(killed, len(sub))
            if rest:
                raise NotAGroup(f"{killed} elements killed by {d} is not a union of cosets")
            e = 0
            while p**e < a_i:
                e += 1
            if p**e != a_i:
                raise NotAGroup(f"annihilator count {a_i} is not a power of {p}")
            counts.append(e)
            if e == counts[-2] or len(counts) > e_top + 1:
                break
        # r_i = number of cyclic p-factors of order >= p^i
        ranks[p] = [counts[i] - counts[i - 1] for i in range(1, len(counts))]
    # the j-th largest invariant factor has p-exponent #{i : r_i > j} for each p
    descending = [
        prod(p ** sum(r > j for r in rs) for p, rs in ranks.items())
        for j in range(max(rs[0] for rs in ranks.values()))
    ]
    if prod(descending) != q_order:
        raise NotAGroup(f"factors {descending} do not multiply to the quotient order {q_order}")
    return sorted(descending)


def canonical_generators(elements, subgroup, moduli, factors, key=None, canon=None) -> list[tuple]:
    """Canonical generators of (elements)/(subgroup), one per invariant factor.

    The largest factor d is served first: its generator is the smallest
    element by ``key`` whose order is exactly d both modulo the current
    subgroup and modulo ``subgroup`` itself, and the current subgroup is then
    closed under it.  The second condition makes the generators a direct-sum
    basis of the quotient, each of exactly its factor's order; such an
    element always exists, because a cyclic subgroup of the largest order
    is a direct summand.  Orders are the same on a whole coset, so each
    generator is the minimum by ``key`` of its coset of ``subgroup``.
    Returned in increasing factor order.

    ``canon``, when given, is applied after every sum: it brings a sum of
    residues back to the one form the group's elements are listed in, as
    for digit vectors whose sums carry.
    """
    base = set(subgroup)
    sub = base
    ordered = sorted(elements, key=key)
    reps = []
    for d in sorted(factors, reverse=True):
        for z in ordered:
            if z in sub:
                continue
            # order of z in the current quotient must be exactly d
            t, w = 1, z
            while w not in sub:
                w = _add(w, z, moduli, canon)
                t += 1
            if t == d and w in base:
                break
        else:
            raise NotAGroup(f"no element of order {d} modulo the subgroup")
        reps.append(z)
        # close the subgroup under z: the union of its cosets by multiples of z
        closed = set(sub)
        shift = z
        while shift not in sub:
            closed.update(_add(s, shift, moduli, canon) for s in sub)
            shift = _add(shift, z, moduli, canon)
        sub = closed
    reps.reverse()
    return reps

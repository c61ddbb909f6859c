"""Scalar pairs compatible with the twisting cocycle, and their classification.

A pair consists of a normalized scalar table g1 on G x G and a G-invariant
character g2 of the coefficient group, tied together by: the coboundary of
g1 equals g2 composed with the twisting cocycle.  Pairs form an abelian
group H under pointwise multiplication; the pairs (d1(psi), 1) built from
pointed scalar maps psi on G form the coboundary subgroup.  The quotient
classifies the simple algebras up to isomorphism, jointly with one free
scalar rescaling parameter.  The defining predicate ``is_kappa_pair`` and
``require_kappa_pair`` sit beside ``KappaPair`` in :mod:`algebra`; this
module re-exports all three.

Two enumeration routes over a prime field (where the unit group is cyclic of
order p-1):

* ``normal-form``: transport everything along discrete logs, cut the pair
  group out of Z^N as the kernel of one integer system mod p-1 and span the
  coboundary pairs, both by modular Hermite elimination.  A table is
  normalized, so N counts the character's exponents and the table's values
  at the pairs without the unit only.  The quotient has the shape of H^2
  of the trivial rank-1 module: tables x, with the character's exponents y
  as extra columns, modulo the image of d1.  So both lattices come from
  the one builder of :mod:`cohomology`, given the rows that make y a
  G-invariant character.  The tables x with d2(x) = y(kappa) are the
  sparse kernel of the rows of d2 at the triples led by a generating set,
  with -y(kappa) in the y columns, over every pair without the unit: once
  y(kappa) is a normalized 3-cocycle, those rows give d2(x) = y(kappa) at
  every triple, as for cocycles.  The coboundary pairs are spanned by the
  columns of the normalized d1.  The quotient comes off the two Hermite
  bases with :func:`intmat.quotient`, which orders residues by their field
  values and so picks the oracle's representatives.  The ``KappaPair``
  tuples of ``PairEnumeration.pairs`` and ``.coboundary_pairs`` are listed
  when they are first read, and ``classify_simple`` never reads them;
* ``brute-force``: enumerate characters and normalized tables outright and
  filter pointwise -- the oracle for the first route.  Its pairs go to
  discrete-log vectors and :mod:`abelian` counts the quotient and picks the
  generators on them.

:func:`pairs_equivalent` solves for the pointed map psi exactly, on the same
normalized d1, after checking that the ratio is 1 at every pair with the
unit: modulo p - 1 on discrete logs over F_p.  Over Q the solution is
unique and has a closed form: b -> ab permutes G, so the product of
ratio(a, b) over b is psi(a)^|G|, and |psi(a)| is its exact |G|-th root,
taken on the numerator and the denominator by Newton's method on integers.
The signs solve mod 2 on d1.  The result is kept only when d1(psi) equals
the ratio at every pair, so no step relies on the ratio being a cocycle.
"""

from __future__ import annotations

import itertools
from math import prod

from . import abelian, cohomology, intmat
from ._record import _FrozenRecord
from .algebra import AlgebraContext, KappaPair, is_kappa_pair, require_kappa_pair
from .errors import (
    InvalidPair,
    NonCyclicUnits,
    NoSolution,
    NotPointed,
    TooLarge,
)
from .fields import PrimeField
from .gmodule import DEFAULT_ENUM_CAP, cyclic_module


class PairClassGroup(_FrozenRecord, abelian._FactorGroup):
    """The quotient of the pair group by its coboundary subgroup."""

    def __init__(
        self,
        invariant_factors: tuple[int, ...],
        representatives: tuple[KappaPair, ...],
        pair_group_order: int,
        coboundary_order: int,
    ):
        self._set(invariant_factors, representatives, pair_group_order, coboundary_order)


class PairEnumeration:
    """Everything an enumeration pass learns about the pair group.

    ``pairs`` and ``coboundary_pairs`` list the pair group and its coboundary
    subgroup in ``KappaPair.key`` order, or are None when the pair group
    exceeds the enumeration cap.  Either may be given as a function that
    builds the listing; it is called when the listing is first read, and
    ``classify_simple`` never reads one.
    """

    def __init__(self, class_group: PairClassGroup, pairs=None, coboundary_pairs=None):
        self.class_group = class_group
        self._listings = [pairs, coboundary_pairs]

    def _listing(self, i: int) -> tuple[KappaPair, ...] | None:
        if callable(self._listings[i]):
            self._listings[i] = self._listings[i]()
        return self._listings[i]

    @property
    def pairs(self) -> tuple[KappaPair, ...] | None:
        return self._listing(0)

    @property
    def coboundary_pairs(self) -> tuple[KappaPair, ...] | None:
        return self._listing(1)


# ---------------------------------------------------------------------------
# group structure on pairs
# ---------------------------------------------------------------------------


def trivial_pair(context: AlgebraContext) -> KappaPair:
    G, F = context.group, context.field
    g1 = {(a, b): F.one for a in G.elements() for b in G.elements()}
    return KappaPair(g1, tuple(F.one for _ in range(context.module.rank)))


def pair_mul(context: AlgebraContext, p: KappaPair, q: KappaPair) -> KappaPair:
    F = context.field
    g1 = {k: F.mul(v, q.g1[k]) for k, v in p.g1.items()}
    g2 = tuple(F.mul(a, b) for a, b in zip(p.g2, q.g2))
    return KappaPair(g1, g2)


def coboundary_pair(context: AlgebraContext, psi: dict[int, object]) -> KappaPair:
    """(d1(psi), trivial character) for a pointed scalar map psi on G."""
    G, F = context.group, context.field
    e = G.identity
    if e not in psi or not F.is_zero(F.sub(psi[e], F.one)):
        raise NotPointed("psi must send the group unit to 1")
    for a in G.elements():
        if a not in psi or F.is_zero(psi[a]):
            raise NotPointed(f"psi must assign a nonzero scalar to element {a}")
    g1 = {}
    for a in G.elements():
        for b in G.elements():
            g1[(a, b)] = F.mul(F.mul(psi[b], F.inv(psi[G.mul(a, b)])), psi[a])
    return KappaPair(g1, tuple(F.one for _ in range(context.module.rank)))


# ---------------------------------------------------------------------------
# enumeration: discrete-log normal-form route
# ---------------------------------------------------------------------------


def _require_prime_field(context: AlgebraContext) -> PrimeField:
    F = context.field
    if not isinstance(F, PrimeField):
        raise NonCyclicUnits("pair enumeration needs a finite cyclic unit group (prime field)")
    return F


def _pairs_from_vectors(
    context: AlgebraContext, vectors, sort: bool = False
) -> tuple[KappaPair, ...]:
    """Pairs of reduced dlog vectors [g2 | g1 on the pairs without the unit].

    The table is 1 on the pairs with the unit.  One exponent table serves
    every coordinate.  With ``sort`` the pairs come in ``KappaPair.key``
    order, since the left-out values are the same in every pair.
    """
    G, k, one = context.group, context.module.rank, context.field.one
    keys = list(cohomology._normalized_tuples(G, 2))
    rows = list(map(_value_key(context.field), vectors))
    if sort:
        rows.sort()
    out = []
    for row in rows:
        g1 = dict.fromkeys(G.tuples(2), one)
        g1.update(zip(keys, row[k:]))
        out.append(KappaPair(g1, row[:k]))
    return tuple(out)


def _pair_lattices(context: AlgebraContext) -> tuple[dict, dict]:
    """Hermite bases of the pair group H and its coboundary subgroup B, mod p-1, by filled slots.

    Coordinates are [y | x]: the character's exponents, then the table on the
    pairs without the unit, in lexicographic order.  A table is normalized,
    so it is 1 on the other pairs, and so is d1 of a pointed map.  Both come
    from :func:`cohomology._lattices` for the trivial rank-1 module, with the
    rows below on y: H holds the G-invariant characters y and the tables x
    with d2(x) = y(kappa), and B the pairs (d1(psi), 1).
    """
    G, A = context.group, context.module
    # character is killed by each factor modulus
    rows = [[(i, mi)] for i, mi in enumerate(A.moduli)]
    # character is invariant under the group action
    for a in G.elements():
        for i, gen in enumerate(A.generators()):
            row = list(A.act(a, gen))
            row[i] -= 1
            if any(row):
                rows.append([(j, c) for j, c in enumerate(row) if c])
    module = cyclic_module(G, context.field.unit_order)
    return cohomology._lattices(module, 2, context.kappa, rows)


def _unit_values(F: PrimeField) -> list:
    """The field value of every discrete log: one exponent table."""
    return [F.unit_exp(i) for i in range(F.unit_order)]


def _value_key(F: PrimeField):
    """Dlog vectors to their field values, through one exponent table.

    The value tuples also serve as a sort key: they order pairs like
    ``KappaPair.key``, since every g2 has the same length.
    """
    values = _unit_values(F)
    return lambda vec: tuple(map(values.__getitem__, vec))


def enumerate_pairs(
    context: AlgebraContext, method: str = "normal-form", cap: int = DEFAULT_ENUM_CAP
) -> PairEnumeration:
    """Solve for the pair group, its coboundary subgroup, and the quotient."""
    if method == "brute-force":
        return _enumerate_brute(context, cap)
    if method != "normal-form":
        raise ValueError(f"unknown enumeration method {method!r}")
    F = _require_prime_field(context)
    H, B = _pair_lattices(context)
    moduli = [F.unit_order] * (context.module.rank + (context.group.order - 1) ** 2)
    # canonical generators: lexicographically minimal in (g2, g1) value
    # order, exactly as the brute-force route picks them
    factors, reps, h_order, b_order = intmat.quotient(H, B, moduli, _unit_values(F))
    rep_pairs = _pairs_from_vectors(context, reps)
    for pair in rep_pairs:
        require_kappa_pair(context, pair)
    cg = PairClassGroup(tuple(factors), rep_pairs, h_order, b_order)

    def listing(lattice):
        if h_order > cap:
            return None
        return _pairs_from_vectors(context, intmat.lattice_residues(lattice, moduli, cap), sort=True)

    return PairEnumeration(cg, lambda: listing(H), lambda: listing(B))


# ---------------------------------------------------------------------------
# enumeration: brute force (the oracle)
# ---------------------------------------------------------------------------


def _enumerate_brute(context: AlgebraContext, cap: int) -> PairEnumeration:
    F = _require_prime_field(context)
    G, A = context.group, context.module
    e = G.identity
    n = G.order

    # candidate characters: unit values of order dividing each factor modulus
    per_gen = []
    for mi in A.moduli:
        per_gen.append([u for u in F.units() if F.power(u, mi) == F.one])
    characters = []
    for combo in itertools.product(*per_gen) if A.rank else [()]:
        cand = KappaPair({}, tuple(combo))
        if all(
            cand.g2_value(F, A.act(a, x)) == cand.g2_value(F, x)
            for a in G.elements()
            for x in A.elements()
        ):
            characters.append(tuple(combo))

    free_keys = [(a, b) for a in G.elements() if a != e for b in G.elements() if b != e]
    table_count = (F.p - 1) ** len(free_keys)
    if table_count * max(len(characters), 1) > cap:
        raise TooLarge(
            f"{table_count * len(characters)} candidate pairs exceed the cap {cap}"
        )

    pairs = []
    for g2 in characters:
        for values in itertools.product(F.units(), repeat=len(free_keys)):
            g1 = {(a, b): F.one for a in G.elements() for b in G.elements()}
            for key, v in zip(free_keys, values):
                g1[key] = v
            cand = KappaPair(g1, g2)
            ok, _ = is_kappa_pair(context, cand)
            if ok:
                pairs.append(cand)

    # the quotient, on discrete-log vectors (dlog: F_p* -> Z/(p-1) is exact)
    def dlogs(pair):
        flat = (pair.g1[(a, b)] for a in G.elements() for b in G.elements())
        return tuple(map(F.dlog, itertools.chain(pair.g2, flat)))

    pair_by_vec = {dlogs(p): p for p in pairs}
    cob_by_vec = {}
    rest = [a for a in G.elements() if a != e]
    for values in itertools.product(F.units(), repeat=n - 1):
        bp = coboundary_pair(context, {e: F.one, **dict(zip(rest, values))})
        cob_by_vec.setdefault(dlogs(bp), bp)
    if not cob_by_vec.keys() <= pair_by_vec.keys():
        raise InvalidPair("coboundary pairs must be pairs")
    elems = list(pair_by_vec)
    moduli = [F.unit_order] * (A.rank + n * n)
    factors = abelian.factors_by_counting(elems, cob_by_vec.keys(), moduli)
    reps = abelian.canonical_generators(elems, cob_by_vec.keys(), moduli, factors, _value_key(F))
    cg = PairClassGroup(
        tuple(factors), tuple(pair_by_vec[v] for v in reps), len(pairs), len(cob_by_vec)
    )
    ordered = tuple(sorted(pairs, key=lambda p: p.key(G)))
    cob_ordered = tuple(sorted(cob_by_vec.values(), key=lambda p: p.key(G)))
    return PairEnumeration(cg, ordered, cob_ordered)


# ---------------------------------------------------------------------------
# coset test and classification
# ---------------------------------------------------------------------------


def pairs_equivalent(
    context: AlgebraContext, p: KappaPair, q: KappaPair
) -> dict[int, object] | None:
    """A pointed psi with p = q * (d1 psi, 1), or None when no such psi exists.

    Both pairs are compared as the residues that ``require_kappa_pair`` reads.
    """
    F = context.field
    p, q = require_kappa_pair(context, p), require_kappa_pair(context, q)
    if p.g2 != q.g2:
        return None
    ratio = {k: F.div(p.g1[k], q.g1[k]) for k in p.g1}
    psi = _solve_pointed_coboundary(context, ratio)
    if psi is None:
        return None
    check = coboundary_pair(context, psi)
    if any(F.mul(q.g1[k], check.g1[k]) != p.g1[k] for k in p.g1):
        raise NoSolution("the solved psi does not carry q to p")
    return psi


def _solve_pointed_coboundary(context: AlgebraContext, ratio) -> dict[int, object] | None:
    """Solve d1(psi) == ratio for pointed psi, exactly, over F_p or Q.

    d1 of a pointed map is 1 at every pair with the unit, so a ratio that is
    not 1 there has no solution; at the other pairs the system is the
    normalized d1, whose unknowns are the values of psi off the unit.
    """
    G, F = context.group, context.field
    e = G.identity
    if any(ratio[k] != F.one for k in G.tuples(2) if e in k):
        return None
    unknowns = [a for a in G.elements() if a != e]
    # the trivial action is the 1 x 1 identity, so any modulus above 1 gives
    # the same integer d1 and one matrix serves both F_p and Q
    rows = cohomology.coboundary_matrix(cyclic_module(G, 2), 1)
    keys = list(cohomology._normalized_tuples(G, 2))

    if isinstance(F, PrimeField):
        m = F.unit_order
        sol = _solve_mod(rows, [F.dlog(ratio[k]) for k in keys], m, len(unknowns))
        if sol is None:
            return None
        return {e: F.one, **{a: F.unit_exp(x % m) for a, x in zip(unknowns, sol)}}

    # rationals: |psi(a)| is the exact |G|-th root of the product of
    # ratio(a, b) over b, and the signs solve mod 2
    from fractions import Fraction

    signs = _solve_mod(rows, [0 if ratio[k] > 0 else 1 for k in keys], 2, len(unknowns))
    if signs is None:
        return None
    psi = {e: F.one}
    for a, sign in zip(unknowns, signs):
        power = abs(Fraction(prod(ratio[(a, b)] for b in G.elements())))
        num, den = _exact_root(power.numerator, G.order), _exact_root(power.denominator, G.order)
        if num is None or den is None:
            return None
        psi[a] = Fraction(-num if sign % 2 else num, den)
    if any(coboundary_pair(context, psi).g1[k] != ratio[k] for k in G.tuples(2)):
        return None
    return psi


def _exact_root(x: int, n: int) -> int | None:
    """The positive integer r with r**n == x, or None; Newton's method on ints."""
    if x < 1:
        return None
    r = 1 << -(-x.bit_length() // n)
    while True:
        # r stays above the floor of the root until the step stops shrinking it
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r if r**n == x else None
        r = s


def _solve_mod(
    rows: list[list[tuple[int, int]]], rhs: list[int], m: int, ncols: int
) -> list[int] | None:
    """One x in Z^ncols with rows . x == rhs mod m, or None; the rows are sparse.

    The solutions are the kernel of [-rhs | rows] mod m with first coordinate
    1; one exists iff the first Hermite pivot of that kernel is 1, and then x
    is the rest of that row.  An empty first slot stands for the row
    ``m * unit``, whose pivot is 1 only over F_2, where m = 1.
    """
    aug = [[(0, -b)] + [(c + 1, v) for c, v in row] for row, b in zip(rows, rhs)]
    top = intmat.kernel_mod(aug, [m] * len(aug), ncols + 1, m).get(0, {0: m})
    return [top.get(c, 0) for c in range(1, ncols + 1)] if top[0] == 1 else None


class Classification(_FrozenRecord):
    """One built representative per quotient class, plus the free rescaling note."""

    def __init__(
        self,
        class_group: PairClassGroup,
        class_pairs: tuple[KappaPair, ...],
        algebras: tuple,
        rescaling_count: int,
    ):
        self._set(class_group, class_pairs, algebras, rescaling_count)

    @property
    def isomorphism_class_count(self) -> int:
        return self.class_group.order * self.rescaling_count


def classify_simple(context: AlgebraContext) -> Classification:
    """One algebra per class; total classes = |quotient| x |units|."""
    from .constructions import build_simple

    F = _require_prime_field(context)
    enum = enumerate_pairs(context)
    cg = enum.class_group
    # all products of representative powers, one per quotient element
    class_pairs = [trivial_pair(context)]
    for d, rep in zip(cg.invariant_factors, cg.representatives):
        powers = [trivial_pair(context)]
        for _ in range(d - 1):
            powers.append(pair_mul(context, powers[-1], rep))
        class_pairs = [pair_mul(context, base, extra) for base in class_pairs for extra in powers]
    if len(class_pairs) != cg.order:
        raise InvalidPair(
            f"{len(cg.representatives)} representatives for the factors {cg.invariant_factors}"
        )
    algebras = tuple(build_simple(context, p) for p in class_pairs)
    return Classification(cg, tuple(class_pairs), algebras, F.unit_order)

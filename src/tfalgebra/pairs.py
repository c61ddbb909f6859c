"""Scalar pairs compatible with the twisting cocycle, and their classification.

A pair consists of a normalized scalar table g1 on G x G and a G-invariant
character g2 of the coefficient group, tied together by: the coboundary of
g1 equals g2 composed with the twisting cocycle.  Pairs form an abelian
group H under pointwise multiplication; the pairs (d1(psi), 1) built from
pointed scalar maps psi on G form the coboundary subgroup.  The quotient
classifies the simple algebras up to isomorphism, jointly with one free
scalar rescaling parameter.

Two enumeration routes over a prime field (where the unit group is cyclic of
order p-1):

* ``normal-form``: transport everything along discrete logs, cut the pair
  group out of Z^N as the kernel of one integer system mod p-1 and span the
  coboundary pairs, both by modular Hermite elimination, then read off the
  quotient from a small Smith form;
* ``brute-force``: enumerate characters and normalized tables outright and
  filter pointwise -- the oracle for the first route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from . import intmat
from .algebra import AlgebraContext
from .errors import (
    InvalidPair,
    NonCyclicUnits,
    NoSolution,
    NotPointed,
    TooLarge,
)
from .fields import PrimeField

DEFAULT_ENUM_CAP = 1 << 16
DEFAULT_COSET_CAP = 1 << 12


@dataclass
class KappaPair:
    """g1: table on pairs of group indices; g2: values on the cyclic generators."""

    g1: dict[tuple[int, int], object]
    g2: tuple

    def g2_value(self, field, element: tuple):
        """Evaluate the character on an exponent tuple."""
        out = field.one
        for gi, e in zip(self.g2, element):
            if e:
                out = field.mul(out, field.power(gi, e))
        return out

    def key(self, group) -> tuple:
        """Deterministic sort key: the g2 tuple first, then the flat g1 table."""
        flat = tuple(
            self.g1[(a, b)] for a in group.elements() for b in group.elements()
        )
        return (self.g2, flat)

    def __eq__(self, other):
        return (
            isinstance(other, KappaPair)
            and other.g2 == self.g2
            and other.g1 == self.g1
        )

    def __repr__(self):
        support = sum(1 for v in self.g1.values() if v != 1)
        return f"KappaPair(g2={self.g2}, nontrivial_g1_entries={support})"


@dataclass(frozen=True)
class PairClassGroup:
    """The quotient of the pair group by its coboundary subgroup."""

    invariant_factors: tuple[int, ...]
    representatives: tuple[KappaPair, ...]
    pair_group_order: int
    coboundary_order: int

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class PairEnumeration:
    """Everything an enumeration pass learns about the pair group."""

    class_group: PairClassGroup
    pairs: tuple[KappaPair, ...] | None = None
    coboundary_pairs: tuple[KappaPair, ...] | None = None


# ---------------------------------------------------------------------------
# the defining predicate
# ---------------------------------------------------------------------------


def is_kappa_pair(context: AlgebraContext, pair: KappaPair) -> tuple[bool, tuple | None]:
    """Check the four defining conditions; returns (ok, witness)."""
    G, A, F = context.group, context.module, context.field
    e = G.identity
    if len(pair.g2) != A.rank:
        return False, ("g2-shape", len(pair.g2))
    for i, (gi, m) in enumerate(zip(pair.g2, A.moduli)):
        if F.is_zero(gi):
            return False, ("g2-zero", i)
        if F.power(gi, m) != F.one:
            return False, ("g2-order", i)
    for a in G.elements():
        for x in A.elements():
            if pair.g2_value(F, A.act(a, x)) != pair.g2_value(F, x):
                return False, ("g2-invariance", a, x)
    for a in G.elements():
        for b in G.elements():
            v = pair.g1.get((a, b))
            if v is None or F.is_zero(v):
                return False, ("g1-zero", a, b)
    for a in G.elements():
        if pair.g1[(a, e)] != F.one or pair.g1[(e, a)] != F.one:
            return False, ("g1-normalization", a)
    for a in G.elements():
        for b in G.elements():
            ab = G.mul(a, b)
            for c in G.elements():
                d2 = F.mul(
                    F.mul(pair.g1[(b, c)], F.inv(pair.g1[(ab, c)])),
                    F.mul(pair.g1[(a, G.mul(b, c))], F.inv(pair.g1[(a, b)])),
                )
                if d2 != pair.g2_value(F, context.kappa_value(a, b, c)):
                    return False, ("compatibility", a, b, c)
    return True, None


def require_kappa_pair(context: AlgebraContext, pair: KappaPair) -> None:
    ok, witness = is_kappa_pair(context, pair)
    if not ok:
        raise InvalidPair(f"not a valid pair: {witness}", witness=witness)


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


def pair_inv(context: AlgebraContext, p: KappaPair) -> KappaPair:
    F = context.field
    return KappaPair({k: F.inv(v) for k, v in p.g1.items()}, tuple(F.inv(v) for v in p.g2))


def pair_power(context: AlgebraContext, p: KappaPair, n: int) -> KappaPair:
    out = trivial_pair(context)
    for _ in range(n):
        out = pair_mul(context, out, p)
    return out


def coboundary_pair(context: AlgebraContext, psi: dict[int, object]) -> KappaPair:
    """(d1(psi), trivial character) for a pointed scalar map psi on G."""
    G, F = context.group, context.field
    e = G.identity
    if psi.get(e) != F.one:
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


def _pair_from_vector(context: AlgebraContext, vec) -> KappaPair:
    """Coordinates are [g2 dlogs | g1 dlogs in lexicographic pair order]."""
    G = context.group
    F: PrimeField = context.field  # type: ignore[assignment]
    k = context.module.rank
    n = G.order
    g2 = tuple(F.unit_exp(vec[i]) for i in range(k))
    g1 = {}
    for a in G.elements():
        for b in G.elements():
            g1[(a, b)] = F.unit_exp(vec[k + a * n + b])
    return KappaPair(g1, g2)


def _constraint_matrix(context: AlgebraContext) -> list[list[int]]:
    """Linear conditions mod p-1 cutting out the pair group, over [y | x]."""
    G, A = context.group, context.module
    k, n = A.rank, G.order
    e = G.identity
    N = k + n * n

    def xcol(a, b):
        return k + a * n + b

    rows = []
    # character is killed by each factor modulus
    for i in range(k):
        row = [0] * N
        row[i] = A.moduli[i]
        rows.append(row)
    # character is invariant under the group action
    for a in G.elements():
        for i, gen in enumerate(A.generators()):
            moved = A.act(a, gen)
            row = [0] * N
            for j, c in enumerate(moved):
                row[j] += c
            row[i] -= 1
            if any(row):
                rows.append(row)
    # normalization of the table
    for a in G.elements():
        for key in ((a, e), (e, a)):
            row = [0] * N
            row[xcol(*key)] = 1
            rows.append(row)
    # coboundary of the table equals the character of the twisting value
    for a in G.elements():
        for b in G.elements():
            ab = G.mul(a, b)
            for c in G.elements():
                row = [0] * N
                row[xcol(b, c)] += 1
                row[xcol(ab, c)] -= 1
                row[xcol(a, G.mul(b, c))] += 1
                row[xcol(a, b)] -= 1
                for i, ki in enumerate(context.kappa_value(a, b, c)):
                    row[i] -= ki
                if any(row):
                    rows.append(row)
    return rows


def _coboundary_lattice(context: AlgebraContext, m: int) -> list[list[int]]:
    """Hermite basis of the coboundary pairs plus m * Z^N."""
    G = context.group
    k = context.module.rank
    n = G.order
    e = G.identity
    N = k + n * n
    gens = []
    for s in G.elements():
        if s == e:
            continue
        row = [0] * N
        for a in G.elements():
            for b in G.elements():
                col = k + a * n + b
                if b == s:
                    row[col] += 1
                if G.mul(a, b) == s:
                    row[col] -= 1
                if a == s:
                    row[col] += 1
        gens.append(row)
    return intmat.hermite_mod(gens, N, m)


def _lex_min_pair_vector(vec, subgroup, m):
    v = tuple(x % m for x in vec)
    return min(tuple((a + b) % m for a, b in zip(v, s)) for s in subgroup)


def enumerate_pairs(
    context: AlgebraContext,
    method: str = "normal-form",
    cap: int = DEFAULT_ENUM_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> PairEnumeration:
    """Solve for the pair group, its coboundary subgroup, and the quotient."""
    if method == "brute-force":
        return _enumerate_brute(context, cap, coset_cap)
    if method != "normal-form":
        raise ValueError(f"unknown enumeration method {method!r}")
    F = _require_prime_field(context)
    G = context.group
    m = F.unit_order
    k = context.module.rank
    N = k + G.order**2
    if m == 1:
        # F_2: the unit group is trivial, so only the trivial pair can exist
        triv = trivial_pair(context)
        require_kappa_pair(context, triv)
        cg = PairClassGroup((), (), 1, 1)
        return PairEnumeration(cg, (triv,), (triv,))

    rows = _constraint_matrix(context)
    H = intmat.kernel_mod(rows, [m] * len(rows), N)
    h_order = (m**N) // intmat.lattice_index(H, N)
    B = _coboundary_lattice(context, m)
    b_order = (m**N) // intmat.lattice_index(B, N)
    factors, reps = intmat.quotient_structure(H, B, N)
    moduli = [m] * N

    explicit = None
    cob_explicit = None
    if h_order <= cap:
        elems = intmat.lattice_residues(H, moduli, cap)
        explicit = tuple(
            sorted(
                (_pair_from_vector(context, v) for v in elems),
                key=lambda p: p.key(G),
            )
        )
        cob = intmat.lattice_residues(B, moduli, cap)
        cob_explicit = tuple(
            sorted(
                (_pair_from_vector(context, v) for v in cob),
                key=lambda p: p.key(G),
            )
        )

    if explicit is not None:
        # canonical generators: lexicographically minimal in (g2, g1) value
        # order, exactly as the brute-force route picks them
        cob_keys = frozenset(p.key(G) for p in cob_explicit)
        rep_pairs = _pick_pair_generators(
            context, list(explicit), list(cob_explicit), cob_keys, factors, coset_cap
        )
    else:
        subgroup = intmat.lattice_residues(B, moduli, coset_cap)
        rep_pairs = []
        for rep in reps:
            vec = (
                _lex_min_pair_vector(rep, subgroup, m)
                if subgroup is not None
                else tuple(x % m for x in rep)
            )
            rep_pairs.append(_pair_from_vector(context, vec))
    for pair in rep_pairs:
        require_kappa_pair(context, pair)
    cg = PairClassGroup(tuple(factors), tuple(rep_pairs), h_order, b_order)
    return PairEnumeration(cg, explicit, cob_explicit)


# ---------------------------------------------------------------------------
# enumeration: brute force (the oracle)
# ---------------------------------------------------------------------------


def _enumerate_brute(context: AlgebraContext, cap: int, coset_cap: int) -> PairEnumeration:
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

    cob = []
    seen = set()
    for values in itertools.product(F.units(), repeat=n - 1):
        psi = {e: F.one}
        rest = [a for a in G.elements() if a != e]
        for a, v in zip(rest, values):
            psi[a] = v
        bp = coboundary_pair(context, psi)
        key = bp.key(G)
        if key not in seen:
            seen.add(key)
            cob.append(bp)

    pair_by_key = {p.key(G): p for p in pairs}
    cob_keys = frozenset(p.key(G) for p in cob)
    assert cob_keys <= set(pair_by_key), "coboundary pairs must be pairs"

    q_order = len(pairs) // len(cob)
    factors = _pair_factors_by_counting(context, pairs, cob_keys, q_order)
    reps = _pick_pair_generators(context, pairs, cob, cob_keys, factors, coset_cap)
    cg = PairClassGroup(
        tuple(factors), tuple(reps), len(pairs), len(cob)
    )
    ordered = tuple(sorted(pairs, key=lambda p: p.key(G)))
    cob_ordered = tuple(sorted(cob, key=lambda p: p.key(G)))
    return PairEnumeration(cg, ordered, cob_ordered)


def _pair_factors_by_counting(context, pairs, cob_keys, q_order):
    from .fields import factorize

    G = context.group
    if q_order == 1:
        return []
    by_prime = {}
    for p, e_top in factorize(q_order).items():
        counts = [0]
        while True:
            d = p ** len(counts)
            killed = sum(
                1 for h in pairs if pair_power(context, h, d).key(G) in cob_keys
            )
            assert killed % len(cob_keys) == 0
            a_i = killed // len(cob_keys)
            ex = 0
            while p**ex < a_i:
                ex += 1
            assert p**ex == a_i
            counts.append(ex)
            if ex == counts[-2] or len(counts) > e_top + 1:
                break
        rs = [counts[i] - counts[i - 1] for i in range(1, len(counts))]
        exps = []
        for i, r in enumerate(rs, start=1):
            nxt = rs[i] if i < len(rs) else 0
            exps.extend([i] * (r - nxt))
        by_prime[p] = sorted(exps, reverse=True)
    width = max(len(v) for v in by_prime.values())
    descending = []
    for i in range(width):
        d = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        descending.append(d)
    return sorted(descending)


def _pick_pair_generators(context, pairs, cob, cob_keys, factors, coset_cap):
    G = context.group
    if not factors:
        return []
    ordered = sorted(pairs, key=lambda p: p.key(G))
    sub = set(cob_keys)
    sub_pairs = list(cob)
    reps = []
    for d in sorted(factors, reverse=True):
        chosen = None
        for z in ordered:
            if z.key(G) in sub:
                continue
            t, w = 1, z
            while w.key(G) not in sub:
                w = pair_mul(context, w, z)
                t += 1
            if t == d:
                chosen = z
                break
        assert chosen is not None, "no generator of the required order"
        reps.append(chosen)
        # close the subgroup under the new generator: union of its cosets
        base_keys = frozenset(sub)
        base_pairs = list(sub_pairs)
        shift = chosen
        while shift.key(G) not in base_keys:
            for s in base_pairs:
                q = pair_mul(context, s, shift)
                kq = q.key(G)
                if kq not in sub:
                    sub.add(kq)
                    sub_pairs.append(q)
            shift = pair_mul(context, shift, chosen)
    reps.reverse()
    if len(cob) <= coset_cap:
        canon = []
        for r in reps:
            best = min(
                (pair_mul(context, r, s) for s in cob), key=lambda p: p.key(G)
            )
            canon.append(best)
        reps = canon
    return reps


# ---------------------------------------------------------------------------
# coset test and classification
# ---------------------------------------------------------------------------


def pairs_equivalent(
    context: AlgebraContext, p: KappaPair, q: KappaPair
) -> dict[int, object] | None:
    """A pointed psi with p = q * (d1 psi, 1), or None when no such psi exists."""
    G, F = context.group, context.field
    e = G.identity
    require_kappa_pair(context, p)
    require_kappa_pair(context, q)
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
    """Solve d1(psi) == ratio for pointed psi, exactly, over F_p or Q."""
    G, F = context.group, context.field
    e = G.identity
    unknowns = [a for a in G.elements() if a != e]
    col = {a: i for i, a in enumerate(unknowns)}
    rows = []
    keys = []
    for a in G.elements():
        for b in G.elements():
            row = [0] * len(unknowns)
            if b != e:
                row[col[b]] += 1
            ab = G.mul(a, b)
            if ab != e:
                row[col[ab]] -= 1
            if a != e:
                row[col[a]] += 1
            rows.append(row)
            keys.append((a, b))

    if isinstance(F, PrimeField):
        m = F.unit_order
        sol = _solve_mod(rows, [F.dlog(ratio[k]) for k in keys], m)
        if sol is None:
            return None
        psi = {e: F.one}
        for a in unknowns:
            psi[a] = F.unit_exp(sol[col[a]] % m)
        return psi

    # rationals: split multiplicatively into sign and prime exponents
    from fractions import Fraction

    from .fields import factorize

    primes = set()
    for k in keys:
        v = Fraction(ratio[k])
        primes |= set(factorize(v.numerator if v > 0 else -v.numerator))
        primes |= set(factorize(v.denominator))
    primes.discard(1)
    exps = {a: {} for a in unknowns}
    for prime in sorted(primes):
        rhs = []
        for k in keys:
            v = Fraction(ratio[k])
            num = abs(v.numerator)
            den = v.denominator
            ep = factorize(num).get(prime, 0) - factorize(den).get(prime, 0)
            rhs.append(ep)
        sol = intmat.solve_integer(rows, rhs)
        if sol is None:
            return None
        for a in unknowns:
            exps[a][prime] = sol[col[a]]
    # signs mod 2
    sol = _solve_mod(rows, [0 if Fraction(ratio[k]) > 0 else 1 for k in keys], 2)
    if sol is None:
        return None
    psi = {e: F.one}
    for a in unknowns:
        val = Fraction(1)
        for prime, ep in exps[a].items():
            val *= Fraction(prime) ** ep
        if sol[col[a]] % 2 == 1:
            val = -val
        psi[a] = val
    return psi


def _solve_mod(rows: list[list[int]], rhs: list[int], m: int) -> list[int] | None:
    """One x with rows . x == rhs mod m, or None.

    The solutions are the kernel of [-rhs | rows] mod m with first coordinate
    1; one exists iff the first Hermite pivot of that kernel is 1, and then x
    is the rest of that row.
    """
    aug = [[-b] + row for row, b in zip(rows, rhs)]
    top = intmat.kernel_mod(aug, [m] * len(aug), len(aug[0]))[0]
    return top[1:] if top[0] == 1 else None


@dataclass(frozen=True)
class Classification:
    """One built representative per quotient class, plus the free rescaling note."""

    class_group: PairClassGroup
    class_pairs: tuple[KappaPair, ...]
    algebras: tuple
    rescaling_count: int

    @property
    def isomorphism_class_count(self) -> int:
        return self.class_group.order * self.rescaling_count


def classify_simple(
    context: AlgebraContext, method: str = "normal-form", cap: int = DEFAULT_ENUM_CAP
) -> Classification:
    """One algebra per class; total classes = |quotient| x |units|."""
    from .constructions import build_simple

    F = _require_prime_field(context)
    enum = enumerate_pairs(context, method=method, cap=cap)
    cg = enum.class_group
    # all products of representative powers, one per quotient element
    class_pairs = [trivial_pair(context)]
    for d, rep in zip(cg.invariant_factors, cg.representatives):
        powers = []
        for t in range(1, d):
            powers.append(pair_power(context, rep, t))
        class_pairs = [
            pair_mul(context, base, extra)
            for base in class_pairs
            for extra in [trivial_pair(context)] + powers
        ]
    assert len(class_pairs) == cg.order
    algebras = tuple(build_simple(context, p) for p in class_pairs)
    return Classification(cg, tuple(class_pairs), algebras, F.unit_order)

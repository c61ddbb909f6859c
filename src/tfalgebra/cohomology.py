"""Low-degree group cohomology of a finite group with finite coefficients.

Two independent computations of H^n = ker(d^n) / im(d^{n-1}) for n <= 3:

* :func:`cohomology_group` works on the normalized cochain complex, the
  cochains that vanish at every tuple with the unit in some slot, which has
  the same cohomology (Brown, *Cohomology of Groups*, III.1).  Cochains
  become integer exponent vectors on the unit-free tuples.  The coboundaries
  are the image of d^(n-1) (sparse rows, :func:`coboundary_matrix`) plus
  the moduli relations.  The cocycles are the kernel of the rows of d^n at
  the tuples led by a generating set S: df(s, -) = 0 for s in S gives
  df = 0, by dd f(s, h, -) = 0 and induction on word length.  One builder
  gives both Hermite bases, here and for the pair group of :mod:`pairs`,
  and :func:`intmat.quotient` reads the quotient off them.
  The representatives are zero-padded and checked by
  :func:`cochains.coboundary_values` at every tuple of the full complex,
  and the orders are those of the full complex.

* :func:`brute_force_cohomology` enumerates every cochain below a size cap,
  filters the cocycles and lists the coboundaries by walking its own
  :func:`face_plan`, which gathers every face at every target tuple where
  the library's coboundary scatters from the source, and hands the
  explicit lists to :mod:`abelian`, which reads off the group structure by
  counting and picks generators.  It exists to validate the
  normal-form path and shares none of its linear algebra: it counts on the
  full complex, picks the representatives among the tables that vanish at
  the tuples with the unit, and :func:`coboundary_matrix` computes its
  faces itself, never from the plan.

Both return invariant factors in increasing divisibility order together with
representative cocycles, one per factor: the canonical generators of
:func:`abelian.canonical_generators` on the normalized cocycles modulo the
normalized coboundaries, a quotient that is H^n again.  Each has exactly its
factor's order and is the lexicographically smallest normalized table in
its class.  Dropping constant-zero coordinates keeps the lexicographic
order, so the normal-form route applies this rule in normalized
coordinates.  The smallest table of the whole class need not be normalized
(the group of order 3 with its unit labelled 2, coefficients Z/3, degree 2),
so the rule names normalized tables.  With the unit e labelled 0 the two
agree up to degree 2: every 1-cocycle vanishes at e, and in degree 2 the
first value of z * d(c), at (e, e), is c(e) for normalized z, and d(c) is
normalized once c(e) is trivial.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import mul

from . import abelian, intmat
from ._record import _FrozenRecord
from .cochains import Cochain, _tuple_index, _violation
from .errors import DegreeOutOfRange, NotACocycle, TooLarge
from .gmodule import DEFAULT_ENUM_CAP, GModule


class CohomologyGroup(_FrozenRecord, abelian._FactorGroup):
    """Invariant factors (d1 | d2 | ...) and representative cocycles.

    ``==`` and ``hash`` read only the module, the degree and the factors.
    """

    def __init__(
        self,
        module: GModule,
        degree: int,
        invariant_factors: tuple[int, ...],
        representatives: tuple[Cochain, ...],
        cocycle_order: int = 0,
        coboundary_order: int = 0,
    ):
        self._set(
            module, degree, invariant_factors, representatives, cocycle_order, coboundary_order
        )

    def _key(self) -> tuple:
        return (self.module, self.degree, self.invariant_factors)


def _normalized_tuples(group, degree: int):
    """The ``degree``-tuples with no unit entry, in ``G.tuples(degree)`` order."""
    rest = [g for g in group.elements() if g != group.identity]
    return itertools.product(rest, repeat=degree)


def coboundary_matrix(module: GModule, degree: int) -> list[list[tuple[int, int]]]:
    """Sparse rows of d^degree on the normalized cochains.

    A normalized cochain vanishes on every tuple with the unit in some slot
    (Brown, *Cohomology of Groups*, III.1), so its coordinates run over
    (tuple, factor) for the tuples of :func:`_normalized_tuples` only; likewise
    the target.  Row (t, i) lists the (column, coefficient) pairs of target
    coordinate i at tuple t, at most ``k + degree + 1`` of them: the leading
    face acts on the tail, and an inner face that merges two slots into the
    unit reads a vanishing value and is left out.  Multiplicative inverses
    become -1 coefficients.
    """
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"coboundary matrix defined for degrees 0..3 (got {degree})")
    rows_at = _rows_at(module, degree)
    return [row for t in _normalized_tuples(module.group, degree + 1) for row in rows_at(t)]


def _rows_at(module: GModule, degree: int):
    """The function taking a unit-free target tuple t to the k rows (t, i) of d^degree."""
    G, k = module.group, module.rank
    n = degree
    # the first column of each unit-free source tuple
    src_index = {t: i * k for i, t in enumerate(_normalized_tuples(G, n))}

    def rows(t):
        M = module.action[t[0]]
        lead = src_index[t[1:]]
        # inner faces merge adjacent slots with alternating signs; the
        # trailing face drops the last slot
        faces = []
        for pos in range(1, n + 1):
            merged = t[: pos - 1] + (G.mul(t[pos - 1], t[pos]),) + t[pos + 1 :]
            if merged in src_index:
                faces.append((src_index[merged], -1 if pos % 2 == 1 else 1))
        faces.append((src_index[t[:-1]], -1 if (n + 1) % 2 == 1 else 1))
        out = []
        for i in range(k):
            row = {lead + j: a for j, a in enumerate(M[i]) if a}
            for S, sign in faces:
                row[S + i] = row.get(S + i, 0) + sign
            out.append(sorted((c, v) for c, v in row.items() if v))
        return out

    return rows


def _normalized_moduli(module: GModule, degree: int) -> list[int]:
    return list(module.moduli) * (module.group.order - 1) ** degree


def _span(group, gens) -> list[int]:
    """The subgroup generated by ``gens``, in breadth-first order from the unit."""
    seen = [group.identity]
    for a in seen:
        seen += [b for b in (group.mul(s, a) for s in gens) if b not in seen]
    return seen


def _generating_set(group) -> list[int]:
    """S: greedily in element order, or the first generating pair if that takes three or more."""
    S, reached = [], [group.identity]
    for g in group.elements():
        if g not in reached:
            S.append(g)
            reached = _span(group, S)
    if len(S) > 2:
        for pair in itertools.combinations(group.elements(), 2):
            if len(_span(group, pair)) == group.order:
                return list(pair)
    return S


def _lattices(module: GModule, degree: int, kappa=None, head=()):
    """Hermite bases (Z, B) of the normalized f with df = y(kappa) and of im(d^(degree-1)).

    Coordinates: the exponents y of a character of kappa's module (none
    without kappa, when f is a cocycle; rank-1 ``module`` only), then the
    normalized cochain; both lattices hold the moduli relations, and both
    are held by their filled slots for the exponent e.  The y are held to
    the sparse rows ``head`` modulo e.  Z is the :func:`intmat.kernel_mod`
    of ``head`` and the rows of d^degree at the unit-free tuples t led by a
    generating set S, with -y(kappa(t)) in the y columns.  That is the
    whole kernel: once y is a G-invariant character, df - y(kappa) is a
    normalized cocycle, and it vanishes when it does at the tuples led by
    S.  B is spanned by the relations ``[(i, m_i)]`` and the columns of
    d^(degree-1), sparse like the rows, placed after the y columns.  The
    columns enter :func:`intmat.hermite_mod` last first: the basis is
    canonical, and this order reaches it several times faster.
    """
    G, moduli = module.group, module.moduli
    e = lcm(*moduli)
    width = kappa.module.rank if kappa else 0
    mvec = [e] * width + _normalized_moduli(module, degree)
    N = len(mvec)
    S = _generating_set(G)
    rows_at = _rows_at(module, degree)
    rows, row_moduli = list(head), [e] * len(head)
    for t in _normalized_tuples(G, degree + 1):
        if t[0] in S:
            at = rows_at(t)
            if kappa:
                y = [(j, -c) for j, c in enumerate(kappa.value(*t)) if c]
                at = [y + [(width + c, v) for c, v in row] for row in at]
            rows += at
            row_moduli += moduli
    Z = intmat.kernel_mod(rows, row_moduli, N, e)
    relations = [[(i, m)] for i, m in enumerate(mvec) if m != e]
    columns = []
    if degree >= 1:
        columns = [[] for _ in _normalized_moduli(module, degree - 1)]
        for r, row in enumerate(coboundary_matrix(module, degree - 1)):
            for c, v in row:
                columns[c].append((width + r, v))
    return Z, intmat.hermite_mod(relations + columns[::-1], e)


def _degenerate_order(module: GModule, degree: int) -> int:
    """|Z^n(Q)| for n = ``degree``: full-complex orders over normalized ones.

    The normalized cochains C_N are a subcomplex of the full complex C, and
    the quotient Q = C / C_N, the values at the tuples with a unit slot, is
    acyclic.  Restriction to Q maps Z^n onto Z^n(Q) with kernel Z_N^n, and
    B^n onto B^n(Q) = Z^n(Q) with kernel B_N^n, so |Z^n| = |Z_N^n| |Z^n(Q)|
    and |B^n| = |B_N^n| |Z^n(Q)|.  This is the full complex's recursion
    |B^0| = 1, |B^n| = |C^(n-1)| / |Z^(n-1)| with the normalized part
    divided out: |Z^n(Q)| = |Q^(n-1)| / |Z^(n-1)(Q)|, and Q^0 = 0.
    """
    order = module.group.order
    out = 1
    for j in range(degree):
        out = module.size ** (order**j - (order - 1) ** j) // out
    return out


def cohomology_group(module: GModule, degree: int) -> CohomologyGroup:
    """H^degree via integer normal forms on the normalized complex; degree <= 3.

    The representatives are lifted to the full layout of :class:`Cochain`
    by zero-padding, and the cocycle and coboundary orders are those of the
    full complex.
    """
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"cohomology implemented for degrees 0..3 (got {degree})")
    mvec = _normalized_moduli(module, degree)
    degenerate = _degenerate_order(module, degree)
    if not mvec:
        # no normalized coordinates: every group vanishes
        return CohomologyGroup(module, degree, (), (), degenerate, degenerate)
    Z, B = _lattices(module, degree)
    factors, reps, z_order, b_order = intmat.quotient(Z, B, mvec)
    k, q = module.rank, module.group.order
    # the full-layout position of each unit-free tuple's first coordinate
    starts = [_tuple_index(q, degree, t) * k for t in _normalized_tuples(module.group, degree)]
    cochains = []
    for vec in reps:
        values = [0] * (k * q**degree)
        for start, s in zip(starts, range(0, len(vec), k)):
            values[start : start + k] = vec[s : s + k]
        c = Cochain.from_vector(module, degree, values)
        witness = _violation(module, degree, c.values)
        if witness is not None:
            raise NotACocycle(f"representative is not a cocycle (violated at {witness})", witness)
        cochains.append(c)
    return CohomologyGroup(
        module, degree, tuple(factors), tuple(cochains), z_order * degenerate, b_order * degenerate
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _moduli_vector(module: GModule, degree: int) -> list[int]:
    return list(module.moduli) * module.group.order**degree


def face_plan(group, degree: int):
    """The faces of d^degree, one entry per target tuple in tuple order.

    An entry is (t, tail, faces): the target tuple t, the source index of its
    tail t[1:] (the face acted on by t[0]), and the (source index, sign) of
    every other face, in digits of the target's own index T: the tail is
    T mod |G|^n and the last face T // |G|.  Entries are made one at a time,
    so a single walk holds none of them; a caller that walks the plan
    repeatedly lists it.
    """
    n, q, table = degree, group.order, group.table
    # per inner face i: the place value q^(n-i) of the merged slot in the
    # source, and q^(n-i+2), which leaves the target's slots before i-1
    inner = [(pos, q ** (n - pos), q ** (n - pos + 2), (-1) ** pos) for pos in range(1, n + 1)]
    last_sign, top = (-1) ** (n + 1), q**n
    for T, t in enumerate(group.tuples(n + 1)):
        faces = [
            ((T // high * q + table[t[pos - 1]][t[pos]]) * low + T % low, sign)
            for pos, low, high, sign in inner
        ]
        faces.append((T // q, last_sign))
        yield t, T % top, faces


def coboundary_coordinates(module: GModule, plan, vec):
    """The flat exponent vector of d(vec), reduced, one coordinate at a time."""
    k, moduli, act = module.rank, module.moduli, module.action
    for t, tail, faces in plan:
        M, lead = act[t[0]], vec[tail * k : tail * k + k]
        for i in range(k):
            acc = sum(map(mul, M[i], lead))
            for src, sign in faces:
                acc += sign * vec[src * k + i]
            yield acc % moduli[i]


def brute_force_cohomology(
    module: GModule, degree: int, cap: int = DEFAULT_ENUM_CAP
) -> CohomologyGroup:
    """H^degree by full enumeration; the oracle for :func:`cohomology_group`."""
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"cohomology implemented for degrees 0..3 (got {degree})")
    G, A = module.group, module
    n_tuples = G.order**degree
    total = A.size**n_tuples
    if total > cap:
        raise TooLarge(f"{total} cochains exceed the enumeration cap {cap}")
    k = A.rank
    if k == 0:
        return CohomologyGroup(module, degree, (), (), 1, 1)
    mvec = _moduli_vector(module, degree)
    plan = list(face_plan(G, degree))
    cocycles = [
        vec
        for vec in itertools.product(*(range(m) for m in mvec))
        if not any(coboundary_coordinates(A, plan, vec))
    ]

    if degree == 0:
        bset = {tuple(0 for _ in mvec)}
    else:
        prev_mvec = _moduli_vector(module, degree - 1)
        prev_total = A.size ** (G.order ** (degree - 1))
        if prev_total > cap:
            raise TooLarge(f"{prev_total} source cochains exceed the cap {cap}")
        prev_plan = list(face_plan(G, degree - 1))
        bset = {
            tuple(coboundary_coordinates(A, prev_plan, vec))
            for vec in itertools.product(*(range(m) for m in prev_mvec))
        }

    factors = abelian.factors_by_counting(cocycles, bset, mvec)
    # the representatives come from the normalized tables
    units = [
        T * k + i for T, t in enumerate(G.tuples(degree)) if G.identity in t for i in range(k)
    ]
    normalized = [z for z in cocycles if not any(z[i] for i in units)]
    normalized_b = {b for b in bset if not any(b[i] for i in units)}
    reps = abelian.canonical_generators(normalized, normalized_b, mvec, factors)
    cochains = tuple(Cochain.from_vector(module, degree, r) for r in reps)
    return CohomologyGroup(
        module, degree, tuple(factors), cochains, len(cocycles), len(bset)
    )

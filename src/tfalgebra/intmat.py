"""Exact integer lattices by modular Hermite elimination.

These are the workhorses behind finite abelian quotients: cohomology groups
and the classification group of scalar pairs both reduce to computing
``lattice / sublattice`` for full-rank integer lattices.  Everything here is
arithmetic over Python ints.

Every lattice the library meets contains ``e * Z^n`` for the exponent ``e``
of its coefficients, so the one integer engine is modular Hermite
elimination on sparse rows, every entry kept reduced modulo ``e`` (Domich,
Kannan and Trotter 1987; Storjohann and Mulders 1998).  :func:`hermite_mod`
returns the canonical basis of such a lattice, and :func:`kernel_mod` cuts
out ``{x : A x == 0 mod m}`` as the same elimination on an augmented
lattice.
:func:`lattice_residues` lists a lattice's residues in mixed radix.
:func:`quotient` is the one quotient routine of the fast routes: it reads
the quotient off the two Hermite bases, as digits in the columns where
their pivots differ, and returns the invariant factors, the two lattice
orders, and the canonical generators of
:func:`abelian.canonical_generators`, each the :func:`coset_minimum` of its
coset against the subgroup's Hermite basis.  The brute-force oracles count
and pick generators on explicit element lists in :mod:`abelian`, which uses
nothing from here.

Conventions: lattices are given by sparse generator rows, lists of
(column, value) pairs, eliminated as ``{column: value}`` maps and normalized
to a row-style Hermite basis (row echelon, positive pivots, entries above a
pivot reduced into ``[0, pivot)``), one row per column.  A basis is held by
its filled slots, a dict from pivot column to sparse row in increasing pivot
order.  Each row is the ``{column: value}`` map of its nonzero entries, none
left of its pivot, and is never written out dense; a column with no slot
stands for the row ``e * unit``, which is never built.  Only vectors are
dense: residues, coset minima and the lifts of quotient classes.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from itertools import chain
from math import lcm, prod

from . import abelian
from .errors import NoSolution, ShapeMismatch


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _echelon(gens, e: int) -> dict[int, dict[int, int]]:
    """The filled slots of an echelon basis of ``span(gens) + e * Z^n``, as sparse rows.

    Elimination works modulo ``e`` on sparse rows.  A vector entering an
    empty slot leaves ``y * vector`` with pivot ``g = gcd(vector[j], e)``
    there, and ``(e / g) * vector``, which vanishes in column ``j``, goes on
    to be reduced.  A vector meeting a filled slot is merged by an xgcd step
    whose residual likewise vanishes in column ``j``.  The residuals keep the
    rows below each pivot a basis of the part of the lattice they cover, so
    the rows span the lattice itself and not just its image modulo ``e``.
    """
    slots: dict[int, dict[int, int]] = {}
    for gen in gens:
        vec = {c: x for c, v in gen if (x := v % e)}
        # the columns vec has held, as a heap: a popped column no longer in
        # vec has cancelled
        heap = sorted(vec)
        while vec:
            j = heappop(heap)
            b = vec.get(j)
            if b is None:
                continue
            row = slots.get(j)
            if row is None:
                _, y, g = xgcd(e, b)
                slots[j] = {c: w for c, x in vec.items() if (w := y * x % e)}
                s = e // g
                vec = {c: w for c, x in vec.items() if (w := s * x % e)} if g > 1 else {}
            elif b % row[j] == 0:
                q = b // row[j]
                get = vec.get
                for c, y in row.items():
                    x = get(c)
                    if x is None:
                        if w := -q * y % e:
                            vec[c] = w
                            heappush(heap, c)
                    elif w := (x - q * y) % e:
                        vec[c] = w
                    else:
                        del vec[c]
            else:
                x, y, g = xgcd(row[j], b)
                s, t = row[j] // g, b // g
                pair = [(c, row.get(c, 0), vec.get(c, 0)) for c in row.keys() | vec.keys()]
                slots[j] = {c: w for c, r, v in pair if (w := (x * r + y * v) % e)}
                vec = {c: w for c, r, v in pair if (w := (s * v - t * r) % e)}
                heap = sorted(vec)
    return slots


def _canonical(slots: dict[int, dict[int, int]], e: int) -> dict[int, dict[int, int]]:
    """The filled slots normalized among themselves, in increasing pivot order.

    Keeping every entry modulo ``e`` adds multiples of the rows ``e * unit``,
    which is the whole reduction by the empty slots: no pivot row touches a
    column left of its pivot, so an entry in an empty column, once reduced
    modulo ``e``, is final.  A row stores no zero.
    """
    basis = dict(sorted(slots.items()))
    rows = list(basis.values())
    for i, (p, row) in enumerate(basis.items()):
        a = row[p]
        for above in rows[:i]:
            if q := above.get(p, 0) // a:
                for c, y in row.items():
                    if w := (above.get(c, 0) - q * y) % e:
                        above[c] = w
                    else:
                        above.pop(c, None)
    return basis


def hermite_mod(gens: list[list[tuple[int, int]]], e: int) -> dict[int, dict[int, int]]:
    """Canonical Hermite basis of ``span(gens) + e * Z^n``, by its filled slots.

    Each generator is sparse, a list of (column, value) pairs with each
    column at most once.  The basis is upper triangular with one row per
    column and every pivot divides ``e``.  It is eliminated and normalized
    on sparse rows (:func:`_echelon`, :func:`_canonical`), and each filled
    row is returned as its ``{column: value}`` map.
    """
    return _canonical(_echelon(gens, e), e)


def kernel_mod(
    rows: list[list[tuple[int, int]]], moduli: list[int], ncols: int, e: int
) -> dict[int, dict[int, int]]:
    """Canonical Hermite basis of ``{x : rows[r] . x == 0 mod moduli[r]}``, by its filled slots.

    Each row is sparse, a list of (column, coefficient) pairs with each
    column at most once.  ``e``, a multiple of every modulus, is the
    exponent whose rows ``e * unit`` the empty slots stand for, also when
    there are no rows.  With ``R = len(rows)``, the kernel is the part of the
    augmented lattice in ``Z^(R + ncols)`` spanned by the rows ``(m_r e_r,
    0)`` and ``(column_i(A), e_i)`` and ``e * Z^(R + ncols)`` that vanishes
    on the first ``R`` columns (Cohen, *A Course in Computational Algebraic
    Number Theory*, ch. 2): in its echelon basis, the rows with pivot at
    ``R`` or later, shifted left by ``R``.  Each column's generator holds
    its coefficients in the constraint columns and a 1 in its tag column
    ``R + i``.  The rows ``(m_r e_r, 0)`` for the moduli below ``e`` enter
    first, then the columns, last first, which is the faster order.
    """
    R = len(rows)
    columns = [[(R + i, 1)] for i in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row:
            columns[c].append((r, v))
    relations = ([(r, m)] for r, m in enumerate(moduli) if m != e)
    # last column first, each freed once it has entered
    tail = {}
    for p, row in _echelon(chain(relations, (columns.pop() for _ in range(ncols))), e).items():
        if p >= R:
            tail[p - R] = {c - R: v for c, v in row.items()}
    return _canonical(tail, e)


def _radix(basis: dict[int, dict[int, int]], moduli: list[int]) -> list[int]:
    """``m_j / pivot_j`` for every column, an empty slot's pivot being ``e = lcm(moduli)``.

    Raises ShapeMismatch when a pivot does not divide its modulus, that is,
    when the lattice does not contain ``diag(moduli) * Z^n``.
    """
    e = lcm(*moduli)
    out = []
    for j, m in enumerate(moduli):
        p = basis[j][j] if j in basis else e
        if m % p:
            raise ShapeMismatch(f"pivot {p} in column {j} does not divide the modulus {m}")
        out.append(m // p)
    return out


def _axpy(vec, c: int, row: dict[int, int], moduli: list[int]):
    """Add ``c * row`` to ``vec`` in place over the sparse row's entries, modulo the moduli."""
    for col, y in row.items():
        vec[col] = (vec[col] + c * y) % moduli[col]
    return vec


def lattice_residues(
    basis: dict[int, dict[int, int]], moduli: list[int], cap: int
) -> list[tuple[int, ...]] | None:
    """Every residue of a lattice modulo ``diag(moduli)``, or None beyond ``cap``.

    ``basis`` holds the filled slots of the Hermite basis of a lattice
    containing ``diag(moduli) * Z^n``, so each pivot divides its modulus and
    the residues are exactly the sums ``sum(c_j * basis_j)`` with ``c_j`` in
    ``range(moduli[j] // pivot_j)``, listed here in mixed radix.  An empty
    slot's row ``e * unit`` takes one value, zero.
    """
    radix = _radix(basis, moduli)
    if prod(radix) > cap:
        return None
    out = [tuple(0 for _ in moduli)]
    for j, row in basis.items():
        if radix[j] > 1:
            out = [tuple(_axpy(list(v), c, row, moduli)) for c in range(radix[j]) for v in out]
    return out


def coset_minimum(
    basis: dict[int, dict[int, int]], vec, moduli: list[int], values: list | None = None
) -> tuple[int, ...]:
    """The smallest residue of ``vec + lattice`` modulo ``diag(moduli)``.

    ``basis`` holds the filled slots of the Hermite basis of a lattice
    containing ``diag(moduli) * Z^n``.  Coordinates are fixed left to right:
    once the columns before ``j`` are fixed, only multiples of row ``j``
    still move column ``j``, through the residues ``vec[j] + c * pivot_j``.
    An empty slot's row ``e * unit`` moves no residue.  Residues compare as
    integers, or by ``values[residue]`` when a table is given.
    """
    out = [x % m for x, m in zip(vec, moduli)]
    for j, row in basis.items():
        p, x, m = row[j], out[j], moduli[j]
        if values is None:
            c = -(x // p)
        else:
            c = min(range(m // p), key=lambda c: values[(x + c * p) % m])
        if c:
            _axpy(out, c, row, moduli)
    return tuple(out)


def quotient(
    big: dict[int, dict[int, int]],
    small: dict[int, dict[int, int]],
    moduli: list[int],
    values: list | None = None,
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Structure of (lattice big)/(lattice small), both containing diag(moduli) Z^n.

    ``big`` and ``small`` hold the filled slots of Hermite bases; an empty
    slot stands for the row ``e * unit`` for ``e = lcm(moduli)``.  Returns
    ``(factors, reps, big_order, small_order)``: the invariant factors in
    increasing order, one representative per factor, and the orders of both
    lattices modulo ``diag(moduli)``.  Raises NoSolution when a row of
    ``small`` does not reduce to zero against ``big``, that is, when
    ``small`` is not inside ``big``.

    Only the columns ``J`` where the pivots differ carry the quotient, and
    each is filled in ``big``.  Written in ``big``'s coordinates, ``small``
    is triangular with diagonal ``t_j = small_pivot_j / big_pivot_j``, so
    each class holds exactly one sum ``sum(c_j * big_j)`` with digits
    ``0 <= c_j < t_j``.  Digits add like an odometer: the carry row of ``j``
    says which digits ``t_j * big_j`` leaves behind, and
    :func:`coset_minimum` against the carry rows brings any digit vector
    back into range.  The class group is listed once in digits, each class
    keyed by the :func:`coset_minimum` of its lift against ``small``
    (residues ordered by ``values`` when given), and the representatives
    are its canonical generators (:func:`abelian.canonical_generators`).
    """
    n = len(moduli)
    big_radix, small_radix = _radix(big, moduli), _radix(small, moduli)
    e = lcm(*moduli)
    # each row of small reduces to zero against big; one equal to big's row at its pivot does
    for pivot, row in small.items():
        if big.get(pivot) == row:
            continue
        vec = {c: w for c, x in row.items() if (w := x % moduli[c])}
        while vec:
            j = min(vec)
            b = big.get(j)
            if b is None or vec[j] % b[j]:
                raise NoSolution("small lattice is not contained in the big lattice")
            q = vec[j] // b[j]
            for c, y in b.items():
                if w := (vec.get(c, 0) - q * y) % moduli[c]:
                    vec[c] = w
                else:
                    vec.pop(c, None)
    ratio = [b // s for b, s in zip(big_radix, small_radix)]
    J = [j for j, t in enumerate(ratio) if t > 1]

    def digits(vec):
        """The digits of ``vec``, a multiple of a row of ``big``, reduced against both bases."""
        out = []
        for j, b in big.items():
            q, c = divmod(vec[j] // b[j], ratio[j])
            if q or c:
                _axpy(_axpy(vec, -c, b, moduli), -q, small.get(j, {}), moduli)
            if ratio[j] > 1:
                out.append(c)
        return out

    carries = {}
    for i, j in enumerate(J):
        rest = digits(_axpy(defaultdict(int), ratio[j], big[j], moduli))
        carries[i] = {i: ratio[j]} | {k: -c % e for k, c in enumerate(rest) if k > i and c}
    ek = [e] * len(J)

    def canon(c):
        return coset_minimum(carries, c, ek)

    # the quotient in digits, each class with its lift
    elements = [((), [0] * n)]
    for j in J:
        elements = [
            (q + (c,), _axpy(list(v), c, big[j], moduli))
            for q, v in elements
            for c in range(ratio[j])
        ]
    minima = {q: coset_minimum(small, v, moduli, values) for q, v in elements}
    rank = minima.__getitem__ if values is None else lambda q: [values[x] for x in minima[q]]
    zero = [tuple(0 for _ in J)]
    factors = abelian.factors_by_counting(list(minima), zero, ek, canon)
    gens = abelian.canonical_generators(list(minima), zero, ek, factors, rank, canon)
    return factors, [minima[g] for g in gens], prod(big_radix), prod(small_radix)

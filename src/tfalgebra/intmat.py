"""Exact integer matrix routines: Hermite and Smith normal forms.

These are the workhorses behind finite abelian quotients: cohomology groups
and the classification group of scalar pairs both reduce to computing
``lattice / sublattice`` for full-rank integer lattices.  Everything here is
plain list-of-lists arithmetic over Python ints.

Every lattice the library meets contains ``e * Z^n`` for the exponent ``e``
of its coefficients, so the heavy lifting is modular Hermite elimination:
:func:`kernel_mod` cuts out ``{x : A x == 0 mod m}`` one constraint at a
time and :func:`hermite_mod` returns the canonical basis of such a lattice,
both keeping every entry reduced modulo ``e`` (Domich, Kannan and Trotter
1987; Storjohann and Mulders 1998).  :func:`lattice_residues` lists a
lattice's residues in mixed radix.  :func:`quotient` is the one quotient
routine of the fast routes: invariant factors and lifts from a small Smith
form (:func:`quotient_structure`), the two lattice orders, and the canonical
generators of :func:`abelian.canonical_generators`, each the
:func:`coset_minimum` of its coset against the subgroup's Hermite basis.
The Smith form also serves exact solves over Z.  The brute-force oracles
count and pick generators on explicit element lists in :mod:`abelian`,
which uses nothing from here.

Conventions: matrices are lists of row lists; lattices are given by generator
rows and normalized to a row-style Hermite basis (row echelon, positive
pivots, entries above a pivot reduced into ``[0, pivot)``).
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import add, mod

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


def hermite_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row-style Hermite normal form basis of the lattice spanned by ``rows``.

    Returns echelon rows with positive pivots; zero rows are dropped.  The
    result is a canonical basis of the row span, suitable for membership
    tests and index computations.
    """
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    pivot_col_of_row: list[int] = []
    for vec in work:
        vec = _reduce_against(vec, basis, pivot_col_of_row, ncols)
        if vec is not None:
            _insert_row(vec, basis, pivot_col_of_row, ncols)
    _normalize(basis, pivot_col_of_row)
    return basis


def _leading(vec: list[int], start: int = 0) -> int:
    """Index of the first nonzero entry at or after ``start``, else len(vec)."""
    for j in range(start, len(vec)):
        if vec[j]:
            return j
    return len(vec)


def _pivots(basis: list[list[int]]) -> list[int]:
    """Pivot columns of an echelon basis, found in one left-to-right pass."""
    out = []
    j = 0
    for row in basis:
        j = _leading(row, j)
        out.append(j)
    return out


def _reduce_against(vec, basis, pivots, ncols):
    """Eliminate vec against the current echelon basis; return residue or None."""
    vec = list(vec)
    i = 0
    while True:
        j = _leading(vec)
        if j >= ncols:
            return None
        # find basis row with this pivot column, if any
        try:
            i = pivots.index(j)
        except ValueError:
            return vec
        a = basis[i][j]
        b = vec[j]
        if b % a == 0:
            q = b // a
            for jj in range(j, ncols):
                vec[jj] -= q * basis[i][jj]
        else:
            x, y, g = xgcd(a, b)
            row_new = [x * basis[i][jj] + y * vec[jj] for jj in range(ncols)]
            coeff_b, coeff_a = a // g, -(b // g)
            vec = [coeff_a * basis[i][jj] + coeff_b * vec[jj] for jj in range(ncols)]
            basis[i] = row_new
        # loop: vec now has a later leading column (or is zero)


def _insert_row(vec, basis, pivots, ncols):
    j = _leading(vec)
    pos = 0
    while pos < len(pivots) and pivots[pos] < j:
        pos += 1
    basis.insert(pos, vec)
    pivots.insert(pos, j)


def _normalize(basis, pivots):
    """Make pivots positive and reduce the entries above each pivot into [0, pivot).

    Pivot columns are reduced left to right: clearing column ``p`` only
    touches columns at or after ``p``, so earlier columns stay reduced.
    """
    for i in range(len(basis)):
        if basis[i][pivots[i]] < 0:
            basis[i] = [-x for x in basis[i]]
    for i in range(len(basis)):
        p = pivots[i]
        a = basis[i][p]
        tail = basis[i][p:]
        for ii in range(i):
            q = basis[ii][p] // a
            if q:
                row = basis[ii]
                row[p:] = [x - q * y for x, y in zip(row[p:], tail)]


def lattice_index(basis: list[list[int]], ncols: int) -> int:
    """Index [Z^n : L] for a full-rank lattice basis in echelon form."""
    if len(basis) != ncols:
        raise ShapeMismatch(f"lattice of rank {len(basis)} in Z^{ncols} is not full rank")
    return abs(prod(row[j] for row, j in zip(basis, _pivots(basis))))


def solve_in_lattice(basis: list[list[int]], vec: list[int]) -> list[int] | None:
    """Coefficients c with sum(c_i * basis_i) == vec, or None.

    ``basis`` must be in echelon (Hermite) form.
    """
    vec = list(vec)
    ncols = len(vec)
    coeffs = [0] * len(basis)
    pivots = _pivots(basis)
    for i, row in enumerate(basis):
        j = pivots[i]
        q, r = divmod(vec[j], row[j])
        if r != 0:
            return None
        coeffs[i] = q
        if q:
            for jj in range(j, ncols):
                vec[jj] -= q * row[jj]
    if any(vec):
        return None
    return coeffs


def hermite_mod(gens: list[list[int]], ncols: int, e: int) -> list[list[int]]:
    """Canonical Hermite basis of ``span(gens) + e * Z^ncols``.

    The lattice has full rank, so the basis is upper triangular with one row
    per column and every pivot divides ``e``.  Elimination works modulo
    ``e``.  An empty pivot slot stands for the row ``e * unit``: a vector
    entering it leaves ``y * vector`` with pivot ``g = gcd(vector[j], e)``
    there, and ``(e / g) * vector``, which vanishes in column ``j``, goes on
    to be reduced.  A vector meeting a filled slot is merged by an xgcd step
    whose residual likewise vanishes in column ``j``.  The residuals keep the
    rows below each pivot a basis of the part of the lattice they cover, so
    the rows span the lattice itself and not just its image modulo ``e``.
    """
    slots: list[list[int] | None] = [None] * ncols
    for gen in gens:
        vec = [x % e for x in gen]
        j = _leading(vec)
        while j < ncols:
            row = slots[j]
            b = vec[j]
            if row is None:
                _, y, g = xgcd(e, b)
                slots[j] = [0] * j + [(y * x) % e for x in vec[j:]]
                s = e // g
                vec[j:] = [(s * x) % e for x in vec[j:]]
            elif b % row[j] == 0:
                q = b // row[j]
                vec[j:] = [(x - q * y) % e for x, y in zip(vec[j:], row[j:])]
            else:
                a = row[j]
                x, y, g = xgcd(a, b)
                s, t = a // g, b // g
                tail_r, tail_v = row[j:], vec[j:]
                row[j:] = [(x * r + y * v) % e for r, v in zip(tail_r, tail_v)]
                vec[j:] = [(s * v - t * r) % e for r, v in zip(tail_r, tail_v)]
            j = _leading(vec, j + 1)
    basis = [
        row if row is not None else [e if c == j else 0 for c in range(ncols)]
        for j, row in enumerate(slots)
    ]
    _normalize(basis, list(range(ncols)))
    return basis


def kernel_mod(rows: list[list[int]], moduli: list[int], ncols: int) -> list[list[int]]:
    """Canonical Hermite basis of ``{x : rows[r] . x == 0 mod moduli[r]}``.

    Starts from the generators ``I`` of ``Z^ncols`` and applies one
    constraint at a time.  The generators with a nonzero value are combined
    into a single survivor (the one whose value has the smallest gcd with the
    modulus leads), the survivor is scaled by ``m / gcd(value, m)``, and any
    generator that becomes ``0 mod e`` is dropped, where ``e`` is the lcm of
    the moduli.  This is exact because the lattice always contains
    ``e * Z^ncols``, so generators may be kept reduced modulo ``e``.
    """
    e = lcm(*moduli)
    gens = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row, m in zip(rows, moduli):
        support = [(c, v % m) for c, v in enumerate(row) if v % m]
        if not support:
            continue
        vals = [0] * len(gens)
        for c, v in support:
            vals = [s + v * g[c] for s, g in zip(vals, gens)]
        vals = [s % m for s in vals]
        live = [i for i, val in enumerate(vals) if val]
        if not live:
            continue
        lead = min(live, key=lambda i: gcd(vals[i], m))
        gp = gens[lead]
        for i in live:
            if i == lead:
                continue
            a, b, gi = vals[lead], vals[i], gens[i]
            d = gcd(a, m)
            if b % d == 0:
                # b == c * a mod m: one axpy clears the value
                c = (b // d) * pow(a // d, -1, m // d) % m
                gi[:] = [(x - c * y) % e for x, y in zip(gi, gp)]
            else:
                x, y, g = xgcd(a, b)
                s, t = a // g, b // g
                gi[:], gp[:] = (
                    [(s * v - t * r) % e for r, v in zip(gp, gi)],
                    [(x * r + y * v) % e for r, v in zip(gp, gi)],
                )
                vals[lead] = g
        s = m // gcd(vals[lead], m)
        gp[:] = [(s * x) % e for x in gp]
        if not all(any(gens[i]) for i in live):
            gens = [g for g in gens if any(g)]
    return hermite_mod(gens, ncols, e)


def lattice_residues(
    basis: list[list[int]], moduli: list[int], cap: int
) -> list[tuple[int, ...]] | None:
    """Every residue of a lattice modulo ``diag(moduli)``, or None beyond ``cap``.

    ``basis`` is the full-rank Hermite basis of a lattice containing
    ``diag(moduli) * Z^n``, so each pivot divides its modulus and the
    residues are exactly the sums ``sum(c_j * basis_j)`` with ``c_j`` in
    ``range(moduli[j] // pivot_j)``, listed here in mixed radix.
    """
    if len(basis) != len(moduli):
        raise ShapeMismatch(f"lattice of rank {len(basis)} in Z^{len(moduli)} is not full rank")
    radix = []
    for j, (row, m) in enumerate(zip(basis, moduli)):
        if m % row[j]:
            raise ShapeMismatch(f"pivot {row[j]} in column {j} does not divide the modulus {m}")
        radix.append(m // row[j])
    if prod(radix) > cap:
        return None
    out = [tuple(0 for _ in moduli)]
    for row, r in zip(basis, radix):
        if r == 1:
            continue
        shifts = [tuple((c * x) % m for x, m in zip(row, moduli)) for c in range(r)]
        out = [tuple(map(mod, map(add, v, shift), moduli)) for shift in shifts for v in out]
    return out


def smith_normal_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with U*A*V == S diagonal, U and V unimodular.

    Diagonal entries of S are nonnegative and satisfy s1 | s2 | ... .
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i1, i2, x, y, z, w):
        # (row i1, row i2) <- (x*r1 + y*r2, z*r1 + w*r2) on S and U
        for M in (S, U):
            r1, r2 = M[i1], M[i2]
            for j in range(len(r1)):
                a, b = r1[j], r2[j]
                r1[j] = x * a + y * b
                r2[j] = z * a + w * b

    def col_op(j1, j2, x, y, z, w):
        for M in (S, V):
            for row in M:
                a, b = row[j1], row[j2]
                row[j1] = x * a + y * b
                row[j2] = z * a + w * b

    def clear_position(k):
        # repeat until S[k][j] == 0 for j > k and S[i][k] == 0 for i > k
        while True:
            # bring a nonzero entry to (k, k) if needed
            if S[k][k] == 0:
                found = False
                for i in range(k, m):
                    for j in range(k, n):
                        if S[i][j]:
                            if i != k:
                                row_op(k, i, 0, 1, 1, 0)
                            if j != k:
                                col_op(k, j, 0, 1, 1, 0)
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return
            for i in range(k + 1, m):
                a, b = S[k][k], S[i][k]
                if b == 0:
                    continue
                if b % a == 0:
                    row_op(k, i, 1, 0, -(b // a), 1)
                else:
                    x, y, g = xgcd(a, b)
                    row_op(k, i, x, y, -(b // g), a // g)
            if all(S[k][j] == 0 for j in range(k + 1, n)):
                if all(S[i][k] == 0 for i in range(k + 1, m)):
                    return
            for j in range(k + 1, n):
                a, b = S[k][k], S[k][j]
                if b == 0:
                    continue
                if b % a == 0:
                    col_op(k, j, 1, 0, -(b // a), 1)
                else:
                    x, y, g = xgcd(a, b)
                    col_op(k, j, x, y, -(b // g), a // g)
            if all(S[i][k] == 0 for i in range(k + 1, m)):
                if all(S[k][j] == 0 for j in range(k + 1, n)):
                    return

    r = min(m, n)
    for k in range(r):
        clear_position(k)

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            a, b = S[k][k], S[k + 1][k + 1]
            if a and b and b % a != 0:
                # bring b into column k (below the diagonal), then re-clear:
                # the row gcd step leaves gcd(a, b) at position k
                col_op(k, k + 1, 1, 1, 0, 1)
                clear_position(k)
                changed = True
            elif a == 0 and b != 0:
                col_op(k, k + 1, 0, 1, 1, 0)
                row_op(k, k + 1, 0, 1, 1, 0)
                changed = True
    for k in range(r):
        if S[k][k] < 0:
            for M in (S, U):
                M[k] = [-x for x in M[k]]
    return S, U, V


def solve_integer(A: list[list[int]], b: list[int]) -> list[int] | None:
    """One integer solution x of A x == b, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    S, U, V = smith_normal_form(A)
    c = [sum(U[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = S[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(n, m):
        if c[i] != 0:
            return None
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    return [sum(V[i][k] * y[k] for k in range(n)) for i in range(n)]


def quotient_structure(
    big: list[list[int]], small_gens: list[list[int]], ncols: int
) -> tuple[list[int], list[list[int]]]:
    """Invariant factors and generator lifts of (lattice big)/(lattice small).

    ``big`` must be a full-rank Hermite basis; ``small_gens`` generate a
    finite-index sublattice of it.  Returns (factors, reps) where factors are
    the invariant factors > 1 in increasing order and reps are vectors in the
    ambient Z^ncols projecting to independent generators of the quotient,
    rep[i] having order factors[i].
    """
    # express each generator of the sublattice in coordinates of ``big``
    T = []
    for g in small_gens:
        c = solve_in_lattice(big, g)
        if c is None:
            raise NoSolution("small lattice is not contained in the big lattice")
        T.append(c)
    nb = len(big)
    S, U, V = smith_normal_form(T) if T else ([], [], [[int(i == j) for j in range(nb)] for i in range(nb)])
    diag = []
    for k in range(nb):
        d = S[k][k] if T and k < min(len(T), nb) else 0
        diag.append(abs(d))
    # quotient in transformed coordinates z = x V is prod Z/diag[k]
    Vinv = _unimodular_inverse(V, nb)
    factors: list[int] = []
    reps: list[list[int]] = []
    for k in range(nb):
        d = diag[k]
        if d == 0:
            raise ShapeMismatch("small lattice has lower rank, so the quotient is not finite")
        if d == 1:
            continue
        factors.append(d)
        coeff = Vinv[k]  # row k of V^-1: coordinates w.r.t. ``big``
        vec = [0] * ncols
        for i, c in enumerate(coeff):
            if c:
                for j in range(ncols):
                    vec[j] += c * big[i][j]
        reps.append(vec)
    order = sorted(range(len(factors)), key=lambda i: factors[i])
    return [factors[i] for i in order], [reps[i] for i in order]


def coset_minimum(
    basis: list[list[int]], vec, moduli: list[int], values: list | None = None
) -> tuple[int, ...]:
    """The smallest residue of ``vec + lattice`` modulo ``diag(moduli)``.

    ``basis`` is the full-rank Hermite basis of a lattice containing
    ``diag(moduli) * Z^n``.  Coordinates are fixed left to right: once the
    columns before ``j`` are fixed, only multiples of row ``j`` still move
    column ``j``, through the residues ``vec[j] + c * pivot_j``.  Residues
    compare as integers, or by ``values[residue]`` when a table is given.
    """
    out = [x % m for x, m in zip(vec, moduli)]
    for j, (row, m) in enumerate(zip(basis, moduli)):
        p, x = row[j], out[j]
        if values is None:
            c = -(x // p)
        else:
            c = min(range(m // p), key=lambda c: values[(x + c * p) % m])
        if c:
            out[j:] = [(a + c * b) % mm for a, b, mm in zip(out[j:], row[j:], moduli[j:])]
    return tuple(out)


def quotient(
    big: list[list[int]], small: list[list[int]], moduli: list[int], values: list | None = None
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Structure of (lattice big)/(lattice small), both containing diag(moduli) Z^n.

    ``big`` and ``small`` are full-rank Hermite bases with ``small`` inside
    ``big``.  Returns ``(factors, reps, big_order, small_order)``: the
    invariant factors of :func:`quotient_structure`, one representative per
    factor, and the orders of both lattices modulo ``diag(moduli)``.

    The representatives are the canonical generators of ``big`` modulo
    ``small`` (:func:`abelian.canonical_generators`), each the
    :func:`coset_minimum` of its coset, with residues ordered by ``values``
    when given.  Only the quotient is listed, once, in Smith coordinates,
    each element keyed by the coset minimum of its lift.
    """
    n = len(moduli)
    factors, lifts = quotient_structure(big, small, n)
    # the quotient in Smith coordinates, each element with its lift
    elements = [((), [0] * n)]
    for d, lift in zip(factors, lifts):
        elements = [
            (q + (c,), [(x + c * y) % m for x, y, m in zip(v, lift, moduli)])
            for q, v in elements
            for c in range(d)
        ]
    minima = {q: coset_minimum(small, v, moduli, values) for q, v in elements}
    rank = minima.__getitem__ if values is None else lambda q: [values[x] for x in minima[q]]
    zero = tuple(0 for _ in factors)
    gens = abelian.canonical_generators(list(minima), [zero], factors, factors, rank)
    reps = [minima[g] for g in gens]
    ambient = prod(moduli)
    return factors, reps, ambient // lattice_index(big, n), ambient // lattice_index(small, n)


def _unimodular_inverse(V: list[list[int]], n: int) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    if n == 0:
        return []
    aug = [list(V[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    basis = hermite_basis(aug, 2 * n)
    # V unimodular => hermite of [V | I] is [I | V^-1]
    if len(basis) != n or any(basis[i][i] != 1 for i in range(n)):
        raise NoSolution("matrix is not unimodular")
    return [row[n:] for row in basis]

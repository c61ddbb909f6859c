"""Reference lattice routines: a general Hermite basis, the Smith form, membership, a dense kernel.

The library computes every lattice by one sparse modular Hermite elimination
(``intmat.hermite_mod``, and ``intmat.kernel_mod`` as the Hermite basis of
an augmented lattice) and every quotient from the two Hermite bases
(``intmat.quotient``).  The library takes generators as sparse rows, which
:func:`sparse` makes from dense ones, and holds a basis by its filled slots,
a dict from pivot column to sparse ``{column: value}`` row, each empty slot
standing for the row ``e * unit``; :func:`dense` writes the full square
basis out dense.  The general routines below work over Z without a modulus,
on dense echelon bases.  The tests compare the modular routines against them
through :func:`dense` and test lattice membership with
:func:`solve_in_lattice`, so they live here and not in the package.
:func:`dense_kernel_mod` is the kernel by another route: dense generators,
starting from ``I``, cut down one constraint row at a time, walking every
generator at every row.  The library solves the cocycle and pair lattices on
the rows of d^n led by a generating set only; :func:`kernel_cocycle_lattice`
and :func:`kernel_pair_lattice` solve them with :func:`dense_kernel_mod` on
every row, for the tests to compare with.  The library spans the coboundary
lattices by the columns of ``cohomology.coboundary_matrix``;
:func:`pointwise_boundary_lattice` and :func:`pointwise_pair_boundary` span
them by pointwise coboundaries instead and never read that matrix.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from tfalgebra.cochains import Cochain, coboundary
from tfalgebra.cohomology import _normalized_moduli, _normalized_tuples, coboundary_matrix
from tfalgebra.gmodule import cyclic_module
from tfalgebra.intmat import hermite_mod, xgcd
from tfalgebra.pairs import coboundary_pair


def sparse(rows: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Dense rows as the (column, value) lists that ``intmat.hermite_mod`` takes."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def _leading(vec: list[int], start: int = 0) -> int:
    """Index of the first nonzero entry at or after ``start``, else len(vec)."""
    for j in range(start, len(vec)):
        if vec[j]:
            return j
    return len(vec)


def dense(basis: dict[int, dict[int, int]], ncols: int, e: int) -> list[list[int]]:
    """The square Hermite basis that the filled slots ``basis`` stand for, written out dense.

    Each filled slot ``j`` holds its sparse row, and each empty slot the
    row ``e * unit_j``.
    """
    rows = (basis.get(j, {j: e}) for j in range(ncols))
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def _pivots(basis: list[list[int]]) -> list[int]:
    """Pivot columns of an echelon basis, found in one left-to-right pass."""
    out = []
    j = 0
    for row in basis:
        j = _leading(row, j)
        out.append(j)
    return out


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


def lattice_index(basis: list[list[int]]) -> int:
    """Index [Z^n : L] of a full-rank lattice from its echelon basis: the product of the pivots."""
    return abs(prod(row[j] for row, j in zip(basis, _pivots(basis))))


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


def dense_kernel_mod(
    rows: list[list[tuple[int, int]]], moduli: list[int], ncols: int, e: int
) -> dict[int, dict[int, int]]:
    """The basis of ``intmat.kernel_mod``, on dense generators that every row walks.

    Starts from the generators ``I`` of ``Z^ncols`` and applies one sparse
    constraint row at a time.  The generators with a nonzero value are
    combined into a single survivor (the one whose value has the smallest
    gcd with the modulus leads), the survivor is scaled by
    ``m / gcd(value, m)``, and any generator that becomes ``0 mod e`` is
    dropped.  The survivors go to ``intmat.hermite_mod``.
    """
    gens = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row, m in zip(rows, moduli):
        support = [(c, v % m) for c, v in row if v % m]
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
    return hermite_mod(sparse(gens), e)


def kernel_cocycle_lattice(module, degree: int) -> dict[int, dict[int, int]]:
    """Hermite basis of the normalized cocycles, as the kernel of d^degree on every coordinate.

    The library keeps only the rows at the tuples led by a generating set;
    this is the dense kernel of every row, one sparse row per target
    coordinate of the normalized coboundary matrix.
    """
    rows = coboundary_matrix(module, degree)
    ncols = len(_normalized_moduli(module, degree))
    moduli = _normalized_moduli(module, degree + 1)
    return dense_kernel_mod(rows, moduli, ncols, lcm(*module.moduli))


def kernel_pair_lattice(context) -> dict[int, dict[int, int]]:
    """Hermite basis of the pair group in coordinates [y | x], as a kernel on every pair.

    The rows say that y is killed by each factor modulus and invariant under
    the action, and that d2(x) = y(kappa) at every normalized triple, read
    off the normalized d2 of the trivial rank-1 module; the library keeps
    the triples led by a generating set only.
    """
    G, A = context.group, context.module
    m, k = context.field.unit_order, A.rank
    rows = [[(i, mi)] for i, mi in enumerate(A.moduli)]
    for a in G.elements():
        for i, gen in enumerate(A.generators()):
            row = list(A.act(a, gen))
            row[i] -= 1
            if any(row):
                rows.append([(j, c) for j, c in enumerate(row) if c])
    d2 = coboundary_matrix(cyclic_module(G, 2), 2)
    for t, d2row in zip(_normalized_tuples(G, 3), d2):
        kv = context.kappa.value(*t)
        rows.append([(j, -c) for j, c in enumerate(kv) if c] + [(k + c, v) for c, v in d2row])
    return dense_kernel_mod(rows, [m] * len(rows), k + (G.order - 1) ** 2, m)


def pointwise_boundary_lattice(module, degree: int) -> dict[int, dict[int, int]]:
    """Hermite basis of the normalized coboundaries plus the moduli relations.

    The generators are ``cochains.coboundary`` of each normalized
    (degree-1)-cochain with one unit value, restricted to the tuples
    without the unit; the coboundary of a normalized cochain is normalized,
    so the restriction loses nothing.
    """
    G, k, moduli = module.group, module.rank, module.moduli
    e = lcm(*moduli)
    unit_free = (T for T, t in enumerate(G.tuples(degree)) if G.identity not in t)
    keep = [T * k + i for T in unit_free for i in range(k)]
    mvec = list(moduli) * (len(keep) // k)
    gens = [[m if j == i else 0 for j in range(len(mvec))] for i, m in enumerate(mvec) if m != e]
    for t in G.tuples(degree - 1) if degree else ():
        if G.identity in t:
            continue
        for i, m in enumerate(moduli):
            unit = tuple(int(j == i) % m for j in range(k))
            values = coboundary(Cochain(module, degree - 1, {t: unit})).values
            gens.append([values[c] for c in keep])
    return hermite_mod(sparse(gens), e)


def pointwise_pair_boundary(context) -> dict[int, dict[int, int]]:
    """Hermite basis, mod p-1, of the coboundary pairs in coordinates [y | x].

    The generators are the discrete logs of ``pairs.coboundary_pair`` of
    psi_a, the primitive root at a and 1 elsewhere, for each a off the unit.
    """
    G, F = context.group, context.field
    e = G.identity
    free = [t for t in G.tuples(2) if e not in t]
    gens = []
    for a in G.elements():
        if a != e:
            psi = {g: F.primitive_root if g == a else F.one for g in G.elements()}
            pair = coboundary_pair(context, psi)
            gens.append([F.dlog(v) for v in pair.g2] + [F.dlog(pair.g1[t]) for t in free])
    return hermite_mod(sparse(gens), F.unit_order)

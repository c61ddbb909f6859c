"""Scalars, integer normal forms, field linear algebra, groups, modules."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tfalgebra import intmat
from tfalgebra.errors import NoSolution, NotAGroup, NotAModule, ShapeMismatch
from tfalgebra.fields import PrimeField, RationalField, factorize, is_prime
from tfalgebra.gmodule import GModule, trivial_module
from tfalgebra.groups import (
    cyclic_group,
    direct_product,
    group_from_table,
    symmetric_group,
    trivial_group,
)
from tfalgebra.linalg import Matrix, apply_map, bilinear_value, map_trace


# -- fields -------------------------------------------------------------------

def test_prime_field_axioms():
    F = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_dlog_roundtrip():
    F = PrimeField(13)
    g = F.primitive_root
    assert g == 2
    seen = set()
    for a in range(1, 13):
        k = F.dlog(a)
        assert F.unit_exp(k) == a
        seen.add(k)
    assert seen == set(range(12))


def test_rational_field_exact():
    Q = RationalField()
    x = Fraction(3, 7)
    assert Q.mul(x, Q.inv(x)) == 1
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_primality_and_factorization():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


# -- integer normal forms ------------------------------------------------------

def test_smith_normal_form_transforms():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        S, U, V = intmat.smith_normal_form(A)
        UA = [[sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        assert UAV == S
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        diag = [S[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_kernel_and_solve():
    A = [[2, 4, 6], [1, 2, 3]]
    ker = intmat.kernel_mod(A, [6, 6], 3)
    assert len(ker) == 3
    for v in ker:
        assert all(sum(A[i][j] * v[j] for j in range(3)) % 6 == 0 for i in range(2))
    # x1 == -2 x2 - 3 x3 mod 6 is the only condition
    assert intmat.lattice_index(ker, 3) == 6
    x = intmat.solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]
    assert intmat.solve_integer([[2]], [3]) is None


def test_hermite_membership_and_index():
    basis = intmat.hermite_basis([[2, 1], [0, 3]], 2)
    assert intmat.lattice_index(basis, 2) == 6
    assert intmat.solve_in_lattice(basis, [2, 4]) is not None
    assert intmat.solve_in_lattice(basis, [1, 0]) is None


def _smith_route_kernel(A, moduli, ncols):
    """{x : A x == 0 mod moduli} from a Smith form of [A | diag(moduli)]."""
    aug = [list(r) + [moduli[i] if c == i else 0 for c in range(len(A))] for i, r in enumerate(A)]
    S, U, V = intmat.smith_normal_form(aug)
    n = ncols + len(A)
    rank = sum(1 for k in range(min(len(aug), n)) if S[k][k])
    return [[V[i][j] for i in range(ncols)] for j in range(rank, n)]


def _scaled_identity(e, n):
    return [[e if i == j else 0 for j in range(n)] for i in range(n)]


def test_modular_routines_match_smith_route():
    rng = random.Random(5)
    for trial in range(300):
        n, r = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
        if trial % 2:
            moduli = [rng.choice((2, 3, 4, 6, 12)) for _ in range(r)]
        else:
            moduli = [rng.choice((2, 3, 4, 6, 12))] * r
        e = math.lcm(*moduli)
        smith = intmat.hermite_basis(_smith_route_kernel(A, moduli, n) + _scaled_identity(e, n), n)
        assert intmat.kernel_mod(A, moduli, n) == smith, (A, moduli)

        gens = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        e = rng.choice((2, 3, 4, 6, 12))
        expected = intmat.hermite_basis(gens + _scaled_identity(e, n), n)
        assert intmat.hermite_mod(gens, n, e) == expected, (gens, e)


def test_hermite_basis_is_canonical():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        # another generator set of the same lattice: shuffled, with row additions
        other = [list(g) for g in gens]
        rng.shuffle(other)
        for _ in range(6):
            i, j = rng.randrange(len(other)), rng.randrange(len(other))
            if i != j:
                c = rng.randint(-3, 3)
                other[i] = [x + c * y for x, y in zip(other[i], other[j])]
        basis = intmat.hermite_basis(gens, n)
        assert intmat.hermite_basis(other, n) == basis
        for row in basis:
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] > 0
            assert all(0 <= above[p] < row[p] for above in basis[: basis.index(row)])


def test_lattice_residues_lists_each_residue_once():
    moduli = [4, 2, 4]
    basis = intmat.hermite_mod([[2, 1, 3], [0, 0, 2]], 3, 4)
    residues = intmat.lattice_residues(basis, moduli, cap=64)
    # closure of the generators under addition mod the moduli
    closure = {(0, 0, 0)}
    frontier = list(closure)
    while frontier:
        v = frontier.pop()
        for g in basis:
            w = tuple((a + b) % m for a, b, m in zip(v, g, moduli))
            if w not in closure:
                closure.add(w)
                frontier.append(w)
    assert sorted(residues) == sorted(closure)
    assert len(residues) == len(set(residues))
    assert intmat.lattice_residues(basis, moduli, cap=len(closure) - 1) is None


def test_rank_deficient_basis_raises_without_asserts():
    # the check must survive python -O, which strips assert statements
    code = (
        "from tfalgebra import intmat\n"
        "from tfalgebra.errors import ShapeMismatch\n"
        "try:\n"
        "    intmat.lattice_index([[1, 0]], 2)\n"
        "except ShapeMismatch:\n"
        "    print('raised')\n"
    )
    src = str(Path(intmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.stdout.strip() == "raised", out.stderr
    with pytest.raises(ShapeMismatch):
        intmat.lattice_index([[1, 0]], 2)
    with pytest.raises(ShapeMismatch):
        intmat.quotient_structure(intmat.hermite_basis([[1, 0], [0, 1]], 2), [[2, 0]], 2)


def test_quotient_structure_z6():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    big = intmat.hermite_basis([[1, 0], [0, 1]], 2)
    factors, reps = intmat.quotient_structure(big, [[2, 0], [0, 3]], 2)
    assert factors == [6]
    assert len(reps) == 1


# -- field matrices -------------------------------------------------------------

def test_matrix_inverse_and_solve_f5():
    F = PrimeField(5)
    M = Matrix(F, [[2]])
    assert M.solve([3]) == [4]
    Z = Matrix(F, [[0]])
    with pytest.raises(NoSolution):
        Z.solve([1])
    I2 = Matrix.identity(F, 2)
    assert I2.solve([3, 1]) == [3, 1]


def test_matrix_inverse_exact_rationals():
    Q = RationalField()
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = Matrix(Q, [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        inv = M.inverse()
        if inv is None:
            assert M.rank() < n
        else:
            assert M.mul(inv) == Matrix.identity(Q, n)


def test_matrix_kernel():
    F = PrimeField(3)
    M = Matrix(F, [[1, 2], [2, 1]])
    # det = 1*1 - 2*2 = -3 = 0 mod 3
    ker = M.kernel()
    assert len(ker) == 1
    v = ker[0]
    assert all(
        F.add(F.mul(M.rows[i][0], v[0]), F.mul(M.rows[i][1], v[1])) == 0
        for i in range(2)
    )


def test_row_as_image_helpers():
    F = PrimeField(7)
    swap = Matrix(F, [[0, 1], [1, 0]])
    assert apply_map(swap, [2, 3]) == [3, 2]
    assert map_trace(swap) == 0
    form = Matrix.identity(F, 2)
    assert bilinear_value(form, [1, 2], [3, 4]) == (1 * 3 + 2 * 4) % 7


# -- groups ---------------------------------------------------------------------

def test_group_from_table_examples():
    assert trivial_group().order == 1
    G2 = group_from_table([[0, 1], [1, 0]])
    assert G2.identity == 0 and G2.inv(1) == 1
    with pytest.raises(NotAGroup) as err:
        group_from_table([[0, 1], [1, 1]])
    assert err.value.witness is not None


def test_group_axioms_exhaustive():
    for G in (cyclic_group(4), symmetric_group(3), direct_product(cyclic_group(2), cyclic_group(2))):
        e = G.identity
        for a in G.elements():
            assert G.mul(a, G.inv(a)) == e
            for b in G.elements():
                for c in G.elements():
                    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_symmetric_group_structure():
    S3 = symmetric_group(3)
    assert S3.order == 6
    assert not S3.is_abelian
    orders = sorted(_element_order(S3, g) for g in S3.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def _element_order(G, g):
    n, x = 1, g
    while x != G.identity:
        x = G.mul(x, g)
        n += 1
    return n


# -- modules ----------------------------------------------------------------------

def test_trivial_module():
    A = trivial_module(cyclic_group(3))
    assert A.size == 1 and A.one() == ()
    assert A.act(2, ()) == ()


def test_module_action_inversion():
    G = cyclic_group(2)
    A = GModule(G, (3,), action={0: [[1]], 1: [[2]]})
    assert A.act(1, (1,)) == (2,)
    assert A.act(0, (1,)) == (1,)


def test_module_homomorphism_exhaustive():
    # swap action of Z/2 on Z/2 x Z/2: check matrix(ab) = matrix(a)matrix(b) on all of A
    G = cyclic_group(2)
    A = GModule(G, (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]})
    for a in G.elements():
        for b in G.elements():
            for x in A.elements():
                assert A.act(G.mul(a, b), x) == A.act(a, A.act(b, x))
    for g in G.elements():
        for x in A.elements():
            for y in A.elements():
                assert A.act(g, A.mul(x, y)) == A.mul(A.act(g, x), A.act(g, y))


def test_module_rejects_bad_action():
    G = cyclic_group(2)
    with pytest.raises(NotAModule):
        GModule(G, (4,), action={0: [[1]], 1: [[2]]})  # 2 not invertible mod 4
    with pytest.raises(NotAModule):
        GModule(cyclic_group(3), (3,), action={0: [[1]], 1: [[2]], 2: [[2]]})  # not a homomorphism

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
from tfalgebra.errors import NoSolution, NotAGroup, NotAModule, ShapeMismatch, TooLarge
from tfalgebra.fields import PrimeField, RationalField, factorize, is_prime
from tfalgebra.gmodule import GModule, trivial_module
from tfalgebra.groups import (
    cyclic_group,
    direct_product,
    group_from_table,
    symmetric_group,
    trivial_group,
)
from tfalgebra.linalg import (
    Matrix,
    _agree,
    _agree_product,
    _comb,
    _matmul,
    _product,
    apply_map,
    bilinear_value,
)

from lattice_reference import (
    dense,
    dense_kernel_mod,
    hermite_basis,
    lattice_index,
    smith_normal_form,
    solve_in_lattice,
    sparse,
)


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


def test_prime_field_is_zero_reads_the_residue():
    F = PrimeField(5)
    assert [a for a in range(-10, 11) if F.is_zero(a)] == [-10, -5, 0, 5, 10]


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
        S, U, V = smith_normal_form(A)
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
    ker = dense(intmat.kernel_mod([list(enumerate(row)) for row in A], [6, 6], 3, 6), 3, 6)
    assert len(ker) == 3
    for v in ker:
        assert all(sum(A[i][j] * v[j] for j in range(3)) % 6 == 0 for i in range(2))
    # x1 == -2 x2 - 3 x3 mod 6 is the only condition
    assert lattice_index(ker) == 6


def test_hermite_membership_and_index():
    basis = hermite_basis([[2, 1], [0, 3]], 2)
    assert lattice_index(basis) == 6
    assert solve_in_lattice(basis, [2, 4]) is not None
    assert solve_in_lattice(basis, [1, 0]) is None


def _smith_route_kernel(A, moduli, ncols):
    """{x : A x == 0 mod moduli} from a Smith form of [A | diag(moduli)]."""
    aug = [list(r) + [moduli[i] if c == i else 0 for c in range(len(A))] for i, r in enumerate(A)]
    S, U, V = smith_normal_form(aug)
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
        smith = hermite_basis(_smith_route_kernel(A, moduli, n) + _scaled_identity(e, n), n)
        rows = [list(enumerate(row)) for row in A]
        assert dense(intmat.kernel_mod(rows, moduli, n, e), n, e) == smith, (A, moduli)

        gens = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        e = rng.choice((2, 3, 4, 6, 12))
        expected = hermite_basis(gens + _scaled_identity(e, n), n)
        assert dense(intmat.hermite_mod(sparse(gens), e), n, e) == expected, (gens, e)


def _stores_its_entries_only(basis):
    """No row stores a zero or a column left of its pivot, so ``==`` on bases compares lattices."""
    return all(min(row) == p and all(row.values()) for p, row in basis.items())


def test_hermite_mod_matches_the_reference_on_seeded_inputs():
    # the filled slots, in increasing pivot order, with the row e * unit in
    # every empty slot, are the canonical basis of span(gens) + e Z^n that
    # the reference computes over Z
    rng = random.Random(26)
    for _ in range(3000):
        n, e = rng.randint(1, 13), rng.randint(1, 30)
        gens = [
            [rng.randint(-2 * e, 2 * e) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(rng.randint(0, 11))
        ]
        basis = intmat.hermite_mod(sparse(gens), e)
        assert list(basis) == sorted(basis)
        assert _stores_its_entries_only(basis), (gens, e)
        assert dense(basis, n, e) == hermite_basis(gens + _scaled_identity(e, n), n), (gens, e)


def test_kernel_mod_matches_the_dense_reference_on_seeded_systems():
    # sparse rows over one composite modulus or mixed moduli, with empty
    # rows, coefficients that vanish modulo their row's modulus, and systems
    # with no columns; the sparse generators must give the dense basis
    rng = random.Random(27)
    for trial in range(3000):
        n, r = rng.randint(0, 14), rng.randint(0, 12)
        if trial % 2:
            moduli = [rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(r)]
        else:
            moduli = [rng.choice((4, 6, 8, 9, 12, 30))] * r
        e = math.lcm(*moduli, 1) * rng.choice((1, 1, 2, 3))
        rows = []
        for m in moduli:
            cols = sorted(rng.sample(range(n), rng.randint(0, min(n, 5))))
            rows.append([(c, rng.randint(-2 * m, 2 * m)) for c in cols])
        basis = intmat.kernel_mod(rows, moduli, n, e)
        assert list(basis) == sorted(basis)
        assert _stores_its_entries_only(basis), (rows, moduli, e)
        assert basis == dense_kernel_mod(rows, moduli, n, e), (rows, moduli, e)


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
        basis = hermite_basis(gens, n)
        assert hermite_basis(other, n) == basis
        for row in basis:
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] > 0
            assert all(0 <= above[p] < row[p] for above in basis[: basis.index(row)])


def test_lattice_residues_lists_each_residue_once():
    moduli = [4, 2, 4]
    basis = intmat.hermite_mod(sparse([[2, 1, 3], [0, 0, 2]]), 4)
    residues = intmat.lattice_residues(basis, moduli, cap=64)
    # closure of the generators under addition mod the moduli
    closure = {(0, 0, 0)}
    frontier = list(closure)
    while frontier:
        v = frontier.pop()
        for g in dense(basis, 3, 4):
            w = tuple((a + b) % m for a, b, m in zip(v, g, moduli))
            if w not in closure:
                closure.add(w)
                frontier.append(w)
    assert sorted(residues) == sorted(closure)
    assert len(residues) == len(set(residues))
    assert intmat.lattice_residues(basis, moduli, cap=len(closure) - 1) is None


def test_rank_deficient_basis_raises_without_asserts():
    # a basis held by its filled slots always has full rank; what remains
    # to refuse is a lattice that misses diag(moduli) Z^n or a small lattice
    # outside the big one.  The check must survive python -O, which strips
    # assert statements.  Span (1, 0) + 4 Z^2 misses (0, 2).
    code = (
        "from tfalgebra import intmat\n"
        "from tfalgebra.errors import ShapeMismatch\n"
        "try:\n"
        "    intmat.lattice_residues({0: {0: 1}}, [4, 2], 64)\n"
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
        intmat.lattice_residues({0: {0: 1}}, [4, 2], 64)
    with pytest.raises(ShapeMismatch):
        intmat.quotient({0: {0: 1}, 1: {1: 1}}, {0: {0: 3}}, [2, 2])
    with pytest.raises(NoSolution):
        intmat.quotient({0: {0: 2}}, {0: {0: 1}}, [2, 2])


def test_quotient_refuses_a_small_lattice_with_dividing_pivots_outside_the_big_one():
    # each pivot of (1, 0) + 2 Z^2 is a multiple of the pivot of (1, 1) +
    # 2 Z^2 in its column, yet (1, 0) is not in the second lattice
    with pytest.raises(NoSolution):
        intmat.quotient({0: {0: 1, 1: 1}}, {0: {0: 1}}, [2, 2])


def test_quotient_structure_z6():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    big = {0: {0: 1}, 1: {1: 1}}
    factors, reps, big_order, small_order = intmat.quotient(big, {0: {0: 2}, 1: {1: 3}}, [2, 3])
    assert factors == [6]
    assert len(reps) == 1
    assert (big_order, small_order) == (6, 1)


# -- field matrices -------------------------------------------------------------

def test_unreduced_zero_is_never_a_pivot():
    # 5 is zero in F_5 although the stored integer is not
    F = PrimeField(5)
    assert Matrix(F, [[5]]).rank() == 0
    assert Matrix(F, [[5]]).inverse() is None
    assert Matrix(F, [[5, 1], [1, 0]]).inverse() == Matrix(F, [[0, 1], [1, 0]])


def test_matrix_and_algebra_store_residues():
    # entries are stored as the values the field's own arithmetic returns
    from tfalgebra.samples import truncated_polynomial_algebra

    F5, Q = PrimeField(5), RationalField()
    M = Matrix(F5, [[6, -1], [5, 3]])
    assert M.rows == [[1, 4], [0, 3]]
    assert all(type(x) is int for row in M.rows for x in row)
    R = Matrix(Q, [[2, Fraction(1, 2)], [0, -3]])
    assert R.rows == [[2, Fraction(1, 2)], [0, -3]]
    assert all(type(x) is Fraction for row in R.rows for x in row)

    # TFAlgebra stores its tensor vectors and unit, and its blocks are Matrix
    V = truncated_polynomial_algebra(F5, 2)
    W = V.replace(
        mult={(0, 0): [[[6, 5], [-1, 0]], [[0, 11], [0, 0]]]},
        unit=[6, -1],
        eta=[[0, 6], [-4, 5]],
    )
    assert W.mult[(0, 0)] == [[[1, 0], [4, 0]], [[0, 1], [0, 0]]]
    assert W.unit == [1, 4]
    assert W.eta.rows == [[0, 1], [1, 0]]
    stored = [x for row in W.mult[(0, 0)] for vec in row for x in vec] + W.unit
    assert all(type(x) is int for x in stored)

    VQ = truncated_polynomial_algebra(Q, 2)
    WQ = VQ.replace(mult={(0, 0): [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}, unit=[1, 0], eta=[[0, 1], [1, 0]])
    assert WQ.mult == VQ.mult and WQ.unit == VQ.unit and WQ.eta == VQ.eta
    stored = [x for row in WQ.mult[(0, 0)] for vec in row for x in vec] + WQ.unit + WQ.eta.rows[0]
    assert all(type(x) is Fraction for x in stored)


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


# entries over F5 include unreduced residues and the unreduced zero 5; over Q,
# 0 and plain ints, whose products the field's arithmetic turns into Fractions
ONE_BY_ONE_ENTRIES = [
    (PrimeField(5), list(range(-6, 11))),
    (RationalField(), [Fraction(k, 3) for k in range(-4, 5)] + [-2, 0, 3]),
]


def _same(fast, loop):
    """Equal in value and in the type of every entry."""
    assert fast == loop
    assert [type(x) for x in fast] == [type(x) for x in loop]


@pytest.mark.parametrize("F,entries", ONE_BY_ONE_ENTRIES, ids=["F5", "Q"])
def test_one_by_one_kernel_matches_the_general_loop(F, entries):
    # a zero coefficient and a zero row send each call through the general loop
    z = F.zero
    for c in entries:
        for w in entries:
            _same(_comb(F, [c], [[w]], 1), _comb(F, [c, z], [[w], [z]], 1))
            for x in entries[::3]:
                _same(
                    _product(F, [c], [x], [[[w]]], 1),
                    _product(F, [c, z], [x, z], [[[w], [z]], [[z], [z]]], 1),
                )
            # one row of X, against Y of width 1 and of width 2
            for Y, n in (([[w]], 1), ([[w, c]], 2)):
                _same(_matmul(F, [[c]], Y, n)[0], _matmul(F, [[c], [z]], Y, n)[0])


def _padded(u, rows, n, z):
    """The same sum with one more zero coefficient and zero row: it takes the general loop."""
    return u + [z], rows + [[z] * n]


# (coefficients on each side, width): 1x1, wider, and empty blocks
FUSED_SHAPES = [((1, 1), 1)] * 12 + [
    ((2, 1), 1), ((1, 3), 2), ((2, 2), 3), ((0, 1), 1), ((0, 0), 2), ((1, 1), 0)
]


@pytest.mark.parametrize("F,entries", ONE_BY_ONE_ENTRIES, ids=["F5", "Q"])
def test_fused_checks_match_the_general_loop(F, entries):
    rng = random.Random(f"fused:{F!r}")
    z, seen = F.zero, set()

    def draw(count, n):
        """count coefficients, and count rows of width n."""
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(count)]
        return [rng.choice(entries) for _ in range(count)], rows

    for _ in range(60):
        for (m, k), n in FUSED_SHAPES:
            (u, rows), (v, others), (w, wrows) = draw(m, n), draw(k, n), draw(k, n)
            tensor = [[[rng.choice(entries) for _ in range(n)] for _ in range(k)] for _ in range(m)]
            padded = [r + [[z] * n] for r in tensor] + [[[z] * n] * (k + 1)]
            # a third of the time, the same sums on the other side, entries given unreduced
            same = m == k and rng.random() < 0.3
            if same:
                v, others = [x + 5 for x in u], [[x - 5 for x in r] for r in rows]
            product = _product(F, u + [z], v + [z], padded, n)
            if same:
                w, wrows = [F.one + 5], [[x + 10 for x in product]]
            fast = _agree(F, u, rows, v, others, n)
            loop = _comb(F, *_padded(u, rows, n, z), n) == _comb(F, *_padded(v, others, n, z), n)
            assert type(fast) is bool and fast == loop, (u, rows, v, others)
            seen.add(("agree", len(u), len(v), n, fast))
            fast = _agree_product(F, u, v, tensor, w, wrows, n)
            loop = product == _comb(F, *_padded(w, wrows, n, z), n)
            assert type(fast) is bool and fast == loop, (u, v, tensor, w, wrows)
            seen.add(("product", len(u), len(v), n, fast))
    # both verdicts of both checks on 1x1 blocks
    assert {(c, 1, 1, 1, verdict) for c in ("agree", "product") for verdict in (True, False)} <= seen


@pytest.mark.parametrize("F,entries", ONE_BY_ONE_ENTRIES, ids=["F5", "Q"])
def test_one_by_one_inverse_matches_the_general_loop(F, entries):
    # the 2x2 block-diagonal embedding goes through elimination
    z, one = F.zero, F.one
    singular = []
    for a in entries:
        fast = Matrix(F, [[a]]).inverse()
        loop = Matrix(F, [[a, z], [z, one]]).inverse()
        if loop is None:
            assert fast is None
            singular.append(a)
        else:
            assert fast is not None and fast.ncols == 1
            _same(fast.rows[0], loop.rows[0][:1])
    assert singular == [a for a in entries if F.is_zero(a)] and singular


def test_row_as_image_helpers():
    F = PrimeField(7)
    swap = Matrix(F, [[0, 1], [1, 0]])
    assert apply_map(swap, [2, 3]) == [3, 2]
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


def test_out_of_range_arguments_raise_library_errors():
    from tfalgebra.samples import truncated_polynomial_algebra

    with pytest.raises(NoSolution):
        factorize(0)
    with pytest.raises(TooLarge):
        symmetric_group(5)
    with pytest.raises(NotAGroup):
        symmetric_group(0)
    with pytest.raises(ShapeMismatch):
        truncated_polynomial_algebra(PrimeField(5), 0)


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


def test_module_action_entries_compare_as_residues():
    # -1 and 2 are the same automorphism of Z/3, 4 acts as 1 on Z/3, 3 as 1 on Z/2
    G = cyclic_group(2)
    minus = GModule(G, (3,), action={0: [[1]], 1: [[-1]]})
    two = GModule(G, (3,), action={0: [[1]], 1: [[2]]})
    assert minus == two and hash(minus) == hash(two)
    assert minus.action[1] == ((2,),)
    assert GModule(G, (3,), action={0: [[4]], 1: [[2]]}) == two
    assert GModule(G, (2,), action={0: [[1]], 1: [[3]]}).has_trivial_action()
    mixed = GModule(G, (2, 4), action={0: [[3, 0], [0, 5]], 1: [[1, 0], [2, -1]]})
    assert mixed.action == {0: ((1, 0), (0, 1)), 1: ((1, 0), (2, 3))}


def test_module_rejects_bad_action():
    G = cyclic_group(2)
    with pytest.raises(NotAModule):
        GModule(G, (4,), action={0: [[1]], 1: [[2]]})  # the homomorphism check: 2 * 2 = 0, not 1, mod 4
    with pytest.raises(NotAModule):
        GModule(cyclic_group(3), (3,), action={0: [[1]], 1: [[2]], 2: [[2]]})  # not a homomorphism

"""Normal-form cohomology against the enumeration oracle."""

import itertools

import pytest

from tfalgebra.cochains import Cochain, coboundary, is_cocycle
from tfalgebra.cohomology import (
    brute_force_cohomology,
    coboundary_matrix,
    cohomology_group,
)
from tfalgebra.errors import DegreeOutOfRange, TooLarge
from tfalgebra.gmodule import GModule, cyclic_module, trivial_module
from tfalgebra.groups import cyclic_group, symmetric_group, trivial_group

from test_cochains import s3_sign_module


def test_matrix_matches_pointwise_coboundary():
    import random

    rng = random.Random(11)
    modules = [
        cyclic_module(cyclic_group(2), 4),
        GModule(cyclic_group(2), (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
        s3_sign_module(2),
    ]
    for A in modules:
        for n in range(3):
            D = coboundary_matrix(A, n)
            mvec_t = list(A.moduli) * (A.group.order ** (n + 1))
            for _ in range(10):
                c = Cochain.random(A, n, rng)
                x = c.to_vector()
                y = [sum(D[r][s] * x[s] for s in range(len(x))) % mvec_t[r] for r in range(len(D))]
                assert y == [v % m for v, m in zip(coboundary(c).to_vector(), mvec_t)]


def test_h0_is_invariants():
    # trivial action: H^0 = A
    A = cyclic_module(cyclic_group(3), 4)
    H = cohomology_group(A, 0)
    assert H.invariant_factors == (4,)
    # sign action of S3 on Z/3: invariants are trivial
    A = s3_sign_module(3)
    H = cohomology_group(A, 0)
    assert H.invariant_factors == ()


def test_h1_z2_z2():
    A = cyclic_module(cyclic_group(2), 2)
    H = cohomology_group(A, 1)
    assert H.invariant_factors == (2,)
    B = brute_force_cohomology(A, 1)
    assert B.invariant_factors == (2,)


def test_h3_z2_z2_with_representative():
    A = cyclic_module(cyclic_group(2), 2)
    expected_rep = Cochain(A, 3, {(1, 1, 1): (1,)})
    for H in (cohomology_group(A, 3), brute_force_cohomology(A, 3)):
        assert H.invariant_factors == (2,)
        assert len(H.representatives) == 1
        assert H.representatives[0] == expected_rep
        assert is_cocycle(H.representatives[0])[0]


def test_trivial_group_higher_degrees():
    A = cyclic_module(trivial_group(), 6)
    for n in (1, 2, 3):
        assert cohomology_group(A, n).invariant_factors == ()
        assert brute_force_cohomology(A, n).invariant_factors == ()


def test_known_cyclic_group_values():
    # H^n(Z/m, Z/m) with trivial action is Z/m in every degree
    for m in (2, 3):
        A = cyclic_module(cyclic_group(m), m)
        for n in (1, 2, 3):
            H = cohomology_group(A, n)
            assert H.invariant_factors == (m,), (m, n)


def test_oracle_agreement_suite():
    cap = 1 << 16
    modules = [
        cyclic_module(cyclic_group(2), 2),
        cyclic_module(cyclic_group(2), 4),
        GModule(cyclic_group(2), (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
        GModule(cyclic_group(2), (3,), action={0: [[1]], 1: [[2]]}),
        cyclic_module(cyclic_group(3), 3),
        s3_sign_module(2),
        cyclic_module(trivial_group(), 8),
    ]
    checked = 0
    for A in modules:
        for n in range(4):
            if n > 3 or A.size ** (A.group.order**n) > cap:
                continue
            fast = cohomology_group(A, n)
            slow = brute_force_cohomology(A, n, cap=cap)
            assert fast.invariant_factors == slow.invariant_factors, (A, n)
            assert fast.cocycle_order == slow.cocycle_order
            assert fast.coboundary_order == slow.coboundary_order
            for rep in fast.representatives:
                assert is_cocycle(rep)[0]
            coboundaries = _brute_force_coboundaries(A, n)
            mvec = list(A.moduli) * (A.group.order**n)
            for d, rep in zip(fast.invariant_factors, fast.representatives):
                # the representative has exactly order d modulo the coboundaries
                vec = rep.to_vector()
                orders = [
                    t
                    for t in range(1, d + 1)
                    if tuple((t * x) % m for x, m in zip(vec, mvec)) in coboundaries
                ]
                assert orders[:1] == [d], (A, n, d)
            checked += 1
    assert checked >= 15


def _brute_force_coboundaries(A, n):
    """Every coboundary of degree n, as residue tuples, by enumeration."""
    if n == 0:
        return {tuple(0 for _ in A.moduli)}
    prev = list(A.moduli) * (A.group.order ** (n - 1))
    return {
        tuple(coboundary(Cochain.from_vector(A, n - 1, vec)).to_vector())
        for vec in itertools.product(*(range(m) for m in prev))
    }


def test_h3_s3_z2():
    A = cyclic_module(symmetric_group(3), 2)
    H = cohomology_group(A, 3)
    assert H.invariant_factors == (2,)
    assert (H.cocycle_order, H.coboundary_order) == (2**31, 2**30)
    assert is_cocycle(H.representatives[0])[0]


def test_h2_s3_sign_z3_odd_acts_by_2():
    # the encoding of -1 as 2 once stalled the Smith form on coefficient growth
    A = s3_sign_module(3)
    assert A.action[1] == ((2,),)
    H = cohomology_group(A, 2)
    assert H.invariant_factors == (3,)
    assert (H.cocycle_order, H.coboundary_order) == (3**5, 3**4)
    assert is_cocycle(H.representatives[0])[0]


def test_representatives_agree_between_paths():
    # with lexicographic canonicalization both paths give identical tables
    for A in (cyclic_module(cyclic_group(2), 2), cyclic_module(cyclic_group(2), 4)):
        for n in (1, 2, 3):
            if A.size ** (A.group.order**n) > (1 << 16):
                continue
            fast = cohomology_group(A, n)
            slow = brute_force_cohomology(A, n)
            assert [r.table for r in fast.representatives] == [
                r.table for r in slow.representatives
            ]


def test_degree_and_size_caps():
    A = cyclic_module(cyclic_group(2), 2)
    with pytest.raises(DegreeOutOfRange):
        cohomology_group(A, 4)
    with pytest.raises(TooLarge):
        brute_force_cohomology(cyclic_module(cyclic_group(3), 3), 3)


def test_trivial_coefficients():
    A = trivial_module(cyclic_group(4))
    for n in range(4):
        assert cohomology_group(A, n).invariant_factors == ()

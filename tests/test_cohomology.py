"""Normal-form cohomology against the enumeration oracle."""

import itertools
import random
from math import gcd

import pytest

from tfalgebra import abelian
from tfalgebra.cochains import Cochain, coboundary, is_cocycle
from tfalgebra.cohomology import (
    _normalized_tuples,
    brute_force_cohomology,
    coboundary_coordinates,
    coboundary_matrix,
    cohomology_group,
    face_plan,
)
from tfalgebra.errors import DegreeOutOfRange, TooLarge
from tfalgebra.gmodule import DEFAULT_ENUM_CAP, GModule, cyclic_module, trivial_module
from tfalgebra.groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_group,
)

from test_cochains import s3_sign_module
from test_pair_sweep import _homomorphisms


def test_matrix_matches_pointwise_coboundary():
    import random

    rng = random.Random(11)
    modules = [
        cyclic_module(cyclic_group(2), 4),
        GModule(cyclic_group(2), (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
        s3_sign_module(2),
    ]
    for A in modules:
        G = A.group
        for n in range(4):
            D = coboundary_matrix(A, n)
            src, tgt = (list(_normalized_tuples(G, d)) for d in (n, n + 1))
            mvec_t = list(A.moduli) * len(tgt)
            for _ in range(10):
                # a random normalized cochain and its coordinates
                c = Cochain(A, n, {t: tuple(rng.randrange(m) for m in A.moduli) for t in src})
                x = [v for t in src for v in c.value(*t)]
                dc = coboundary(c)
                y = [sum(v * x[s] for s, v in row) % m for row, m in zip(D, mvec_t)]
                assert y == [v for t in tgt for v in dc.value(*t)], (A, n)
                # the normalized cochains form a subcomplex
                assert dc == Cochain(A, n + 1, {t: dc.value(*t) for t in tgt}), (A, n)


def test_scatter_matches_the_oracle_gather_walk():
    # the library's coboundary sums d(c) from c's nonzero coordinates; the
    # oracle gathers every face at every target tuple
    S3, Z4 = symmetric_group(3), cyclic_group(4)
    modules = [
        GModule(cyclic_group(3), ()),
        s3_sign_module(3),
        GModule(cyclic_group(2), (3, 3), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
        # odd elements add twice the Z/2 coordinate to the Z/4 one
        GModule(Z4, (2, 4), action={g: [[1, 0], [2 * (g % 2), 1]] for g in Z4.elements()}),
        GModule(S3, (6, 4)),
    ]
    rng = random.Random(33)
    checked = 0
    for A in modules:
        G, k = A.group, A.rank
        for n in range(4):
            size = k * G.order**n
            cochains = [Cochain.random(A, n, rng) for _ in range(3)]
            if n:
                cochains.append(coboundary(Cochain.random(A, n - 1, rng)))
            # one nonzero coordinate, so that its faces' targets are checked on their own
            for s in rng.sample(range(size), min(3, size)):
                vec = [0] * size
                vec[s] = rng.randrange(1, A.moduli[s % k])
                cochains.append(Cochain.from_vector(A, n, vec))
            for c in cochains:
                d = list(coboundary_coordinates(A, face_plan(G, n), c.values))
                first = next((pos // k for pos, x in enumerate(d) if x), None)
                witness = None if first is None else list(G.tuples(n + 1))[first]
                assert coboundary(c).values == tuple(d), (A, n, c.values)
                assert is_cocycle(c) == (first is None, witness), (A, n, c.values)
                checked += 1
    assert checked == 118


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


def suite_modules():
    """The coefficient modules of the oracle agreement suite."""
    return [
        cyclic_module(cyclic_group(2), 2),
        cyclic_module(cyclic_group(2), 4),
        GModule(cyclic_group(2), (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
        GModule(cyclic_group(2), (3,), action={0: [[1]], 1: [[2]]}),
        cyclic_module(cyclic_group(3), 3),
        s3_sign_module(2),
        cyclic_module(trivial_group(), 8),
    ]


def test_oracle_agreement_suite():
    cap = 1 << 16
    checked = 0
    for A in suite_modules():
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
                vec = rep.values
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
        tuple(coboundary(Cochain.from_vector(A, n - 1, vec)).values)
        for vec in itertools.product(*(range(m) for m in prev))
    }


def _full_complex_generators(A, n):
    """The representatives' rule applied to every cocycle table, normalized or not."""
    mvec = list(A.moduli) * (A.group.order**n)
    plan = list(face_plan(A.group, n))
    cocycles = [
        vec
        for vec in itertools.product(*(range(m) for m in mvec))
        if not any(coboundary_coordinates(A, plan, vec))
    ]
    bset = _brute_force_coboundaries(A, n)
    factors = abelian.factors_by_counting(cocycles, bset, mvec)
    return abelian.canonical_generators(cocycles, bset, mvec, factors)


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


def test_h2_s4_z2():
    # beyond the enumeration cap: H^2(S4, Z/2) = Z/2 x Z/2, with the orders of
    # the full complex, |B^2| = |C^1| / |Z^1| = 2^24 / 2
    A = cyclic_module(symmetric_group(4), 2)
    H = cohomology_group(A, 2)
    assert H.invariant_factors == (2, 2)
    assert (H.cocycle_order, H.coboundary_order) == (2**25, 2**23)
    assert all(is_cocycle(rep)[0] for rep in H.representatives)


def test_representatives_agree_between_paths():
    # one rule picks the representatives on both routes, so the tables are
    # identical on every module and degree within the enumeration cap.
    # FiniteGroup takes the unit wherever the table puts it: with the unit
    # labelled 2 (or 1) the smallest table of a class can take a value at a
    # tuple with the unit, and both routes still pick the smallest normalized one
    cap = 1 << 16
    z3 = FiniteGroup([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    z2 = FiniteGroup([[1, 0], [0, 1]])
    modules = suite_modules() + [
        cyclic_module(cyclic_group(4), 2),
        cyclic_module(cyclic_group(4), 4),
        GModule(cyclic_group(2), (2, 4)),
        cyclic_module(z3, 3),
        cyclic_module(z2, 2),
        cyclic_module(z2, 4),
    ]
    checked, unnormalized = 0, []
    for A in modules:
        for n in range(4):
            if A.size ** (A.group.order**n) > cap:
                continue
            fast = cohomology_group(A, n)
            slow = brute_force_cohomology(A, n, cap=cap)
            assert fast.invariant_factors == slow.invariant_factors, (A, n)
            assert [r.table for r in fast.representatives] == [
                r.table for r in slow.representatives
            ], (A, n)
            if [r.values for r in slow.representatives] != _full_complex_generators(A, n):
                unnormalized.append((A.group.identity, A.moduli, n))
            checked += 1
    assert checked == 44
    # H^2(Z3, Z/3) with the unit labelled 2: the class of the normalized
    # (0,1,0,1,1,0,0,0,0) holds the smaller (0,0,1,0,1,1,1,1,1), its sum with
    # the coboundary of the 1-cochain that is 1 at the unit
    assert unnormalized == [(2, (3,), 2), (1, (2,), 2), (1, (2,), 3), (1, (4,), 2), (1, (4,), 3)]


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


# Seeded sweep: seed i is the i-th (group, Z/m, degree) with m <= 4 and
# degree 1..3 whose |A|^(|G|^n) cochains fit under the enumeration cap, so
# the oracle always runs.  The seed draws the action through a random
# homomorphism to the units of Z/m and stores each entry reduced or minus m.
_Z2 = cyclic_group(2)
SWEEP = [
    (gname, G, m, n)
    for gname, G in (
        ("Z2", _Z2),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("Z2^2", direct_product(_Z2, _Z2)),
        ("Z2^3", direct_product(direct_product(_Z2, _Z2), _Z2)),
        ("S3", symmetric_group(3)),
    )
    for m in (1, 2, 3, 4)
    for n in (1, 2, 3)
    if m ** (G.order**n) <= DEFAULT_ENUM_CAP
]


@pytest.mark.parametrize("seed", range(len(SWEEP)))
def test_routes_agree_on_a_seeded_module(seed):
    rng = random.Random(seed)
    gname, G, m, n = SWEEP[seed]
    homs = _homomorphisms(G, (m,), [((u,),) for u in range(m) if gcd(u, m) == 1])
    action = {
        g: [[rng.choice((x, x - m)) for x in row] for row in M]
        for g, M in rng.choice(homs).items()
    }
    A = GModule(G, (m,), action=action)
    where = f"seed {seed}: H^{n}({gname}, Z/{m}), action {action}"
    fast = cohomology_group(A, n)
    slow = brute_force_cohomology(A, n)
    assert fast.invariant_factors == slow.invariant_factors, where
    assert fast.cocycle_order == slow.cocycle_order, where
    assert fast.coboundary_order == slow.coboundary_order, where
    assert [r.values for r in fast.representatives] == [
        r.values for r in slow.representatives
    ], where
    # with the unit labelled 0 the smallest normalized table of each class is
    # the smallest table of the whole class, so the representatives are those
    # of the full complex
    assert G.identity == 0
    assert _full_complex_generators(A, n) == [
        r.values for r in slow.representatives
    ], where

"""The pair group: predicate, enumeration (both routes), cosets, classification."""

import itertools

import pytest

from tfalgebra.algebra import AlgebraContext, trivial_context
from tfalgebra.cochains import Cochain, coboundary
from tfalgebra.cohomology import cohomology_group
from tfalgebra.constructions import build_simple
from tfalgebra.errors import NonCyclicUnits, NotPointed, TooLarge
from tfalgebra.fields import PrimeField, RationalField
from tfalgebra.gmodule import GModule, cyclic_module, trivial_module
from tfalgebra.groups import cyclic_group, symmetric_group, trivial_group
from tfalgebra.pairs import (
    KappaPair,
    classify_simple,
    coboundary_pair,
    enumerate_pairs,
    is_kappa_pair,
    pair_mul,
    pairs_equivalent,
    trivial_pair,
)

from test_constructions import ACCEPTANCE_CONTEXTS, context_I1, context_I3

F5 = PrimeField(5)
F3 = PrimeField(3)


# -- predicate ---------------------------------------------------------------------


def test_trivial_pair_is_valid_everywhere():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        ok, witness = is_kappa_pair(ctx, trivial_pair(ctx))
        assert ok and witness is None


def test_obstructed_character_detected():
    # over (Z/2, Z/2, twisted, F5): any normalized g1 has trivial coboundary,
    # so the nontrivial character cannot match the twisting value
    G = cyclic_group(2)
    A = cyclic_module(G, 2)
    kappa = Cochain(A, 3, {(1, 1, 1): (1,)})
    ctx = AlgebraContext(G, A, kappa, F5)
    for g1val in (1, 2, 3, 4):
        g1 = {(a, b): 1 for a in range(2) for b in range(2)}
        g1[(1, 1)] = g1val
        pair = KappaPair(g1, (4,))
        ok, witness = is_kappa_pair(ctx, pair)
        assert not ok
        assert witness == ("compatibility", 1, 1, 1)


def test_normalization_violation_detected():
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(0, 1)] = 2
    ok, witness = is_kappa_pair(ctx, KappaPair(g1, ()))
    assert not ok and witness[0] == "g1-normalization"


def _z3_table(**changes):
    """The trivial table on Z3 with entry ``kab`` set to a value, or removed by None."""
    g1 = {(a, b): 1 for a in range(3) for b in range(3)}
    for name, value in changes.items():
        key = (int(name[1]), int(name[2]))
        if value is None:
            del g1[key]
        else:
            g1[key] = value
    return g1


def test_each_failure_kind_names_its_first_witness():
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    # Z2 inverts Z/3, and 2 has order 3 in F7: the character is not invariant
    sign = trivial_context(Z2, GModule(Z2, (3,), action={0: [[1]], 1: [[2]]}), PrimeField(7))
    plain = trivial_context(Z3, trivial_module(Z3), F5)
    cases = [
        (sign, KappaPair({(a, b): 1 for a in range(2) for b in range(2)}, (2,)),
         ("g2-invariance", 1, (1,))),
        # a zero and a missing entry: the first in row order is named
        (plain, KappaPair(_z3_table(k21=0, k12=None), ()), ("g1-zero", 1, 2)),
        (plain, KappaPair(_z3_table(k20=3, k01=4), ()), ("g1-normalization", 1)),
        # d2 g1 is 1 at (1, 1, 1) and 1/2 at (1, 1, 2)
        (plain, KappaPair(_z3_table(k11=2), ()), ("compatibility", 1, 1, 2)),
        (plain, KappaPair(_z3_table(k22=3, k12=2), ()), ("compatibility", 1, 1, 1)),
    ]
    for ctx, pair, witness in cases:
        assert is_kappa_pair(ctx, pair) == (False, witness)


def test_unreduced_zero_g1_entry_is_named():
    # 5 is zero in F5: the predicate names it instead of inverting it
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 1)] = 5
    assert is_kappa_pair(ctx, KappaPair(g1, ())) == (False, ("g1-zero", 1, 1))


def test_unreduced_g1_entries_are_read_as_residues():
    # 6 and 7 are 1 and 2 in F5: an entry 6 at (1, 0) is normalized, as 1 is
    ctx = context_I1()
    trivial = build_simple(ctx, trivial_pair(ctx))
    for key, value in (((1, 0), 6), ((1, 1), 7)):
        g1 = {(a, b): 1 for a in range(2) for b in range(2)}
        g1[key] = value
        assert is_kappa_pair(ctx, KappaPair(g1, ())) == (True, None)
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 0)] = 6
    V = build_simple(ctx, KappaPair(g1, ()))
    assert (V.mult, V.phi, V.eta) == (trivial.mult, trivial.phi, trivial.eta)


# -- coboundary pairs -----------------------------------------------------------------


def test_coboundary_pair_formula():
    ctx = context_I1()
    psi = {0: 1, 1: 2}
    bp = coboundary_pair(ctx, psi)
    # d1(psi)(s, s) = psi(s) * psi(e)^-1 * psi(s) = 4
    assert bp.g1[(1, 1)] == 4
    assert bp.g2 == ()
    assert is_kappa_pair(ctx, bp)[0]


def test_coboundary_pair_requires_pointed():
    ctx = context_I1()
    with pytest.raises(NotPointed):
        coboundary_pair(ctx, {0: 2, 1: 1})


def test_coboundary_pair_reads_an_unreduced_unit_value():
    # 6 is 1 in F5, so psi is pointed
    ctx = context_I1()
    assert coboundary_pair(ctx, {0: 6, 1: 2}) == coboundary_pair(ctx, {0: 1, 1: 2})


def test_coboundary_pairs_valid_for_every_cocycle():
    # also over the twisted context: (d1 psi, 1) satisfies compatibility
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        units = ctx.field.units()
        rest = [a for a in ctx.group.elements() if a != ctx.group.identity]
        for values in itertools.product(units, repeat=len(rest)):
            psi = {ctx.group.identity: ctx.field.one}
            psi.update(dict(zip(rest, values)))
            assert is_kappa_pair(ctx, coboundary_pair(ctx, psi))[0]


# -- enumeration --------------------------------------------------------------------


def test_enumeration_worked_examples():
    enum = enumerate_pairs(context_I1())
    assert enum.class_group.pair_group_order == 4
    assert enum.class_group.coboundary_order == 2
    assert enum.class_group.invariant_factors == (2,)

    G1 = trivial_group()
    ctx2 = trivial_context(G1, cyclic_module(G1, 2), F5)
    enum = enumerate_pairs(ctx2)
    assert enum.class_group.pair_group_order == 2
    assert enum.class_group.coboundary_order == 1
    assert enum.class_group.invariant_factors == (2,)

    enum = enumerate_pairs(context_I3())
    assert enum.class_group.pair_group_order == 2
    assert enum.class_group.invariant_factors == (2,)


def test_obstruction_kills_nontrivial_characters():
    ctx = context_I3()
    for method in ("normal-form", "brute-force"):
        enum = enumerate_pairs(ctx, method=method)
        assert enum.pairs is not None
        assert all(p.g2 == (1,) for p in enum.pairs)


def enumeration_contexts():
    G2, G3 = cyclic_group(2), cyclic_group(3)

    def inv_action_module():
        return GModule(G2, (3,), action={0: [[1]], 1: [[2]]})

    out = [
        context_I1(),
        context_I3(),
        trivial_context(trivial_group(), cyclic_module(trivial_group(), 2), F5),
        trivial_context(G2, cyclic_module(G2, 2), F5),
        trivial_context(G2, GModule(G2, (2, 2)), F3),
        trivial_context(G2, inv_action_module(), PrimeField(7)),
        trivial_context(G3, cyclic_module(G3, 3), PrimeField(7)),
        trivial_context(symmetric_group(3), trivial_module(symmetric_group(3)), PrimeField(2)),
    ]
    return out


def f2_contexts():
    """Over F_2 the unit group is trivial, twisted or not: only the trivial pair."""
    G2, G3, S3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    F2 = PrimeField(2)
    A2, A22, B3 = cyclic_module(G2, 2), GModule(G2, (2, 2)), cyclic_module(S3, 3)
    return [
        trivial_context(G3, cyclic_module(G3, 2), F2),
        AlgebraContext(G2, A2, Cochain(A2, 3, {(1, 1, 1): (1,)}), F2),
        AlgebraContext(G2, A22, Cochain(A22, 3, {(1, 1, 1): (1, 0)}), F2),
        AlgebraContext(S3, B3, coboundary(Cochain(B3, 2, {(1, 2): (1,), (3, 3): (2,)})), F2),
    ]


def test_routes_agree_everywhere():
    for ctx in enumeration_contexts() + f2_contexts():
        fast = enumerate_pairs(ctx)
        slow = enumerate_pairs(ctx, method="brute-force")
        assert fast.class_group.pair_group_order == slow.class_group.pair_group_order, ctx
        assert fast.class_group.coboundary_order == slow.class_group.coboundary_order
        assert (
            fast.class_group.invariant_factors == slow.class_group.invariant_factors
        )
        if fast.pairs is not None:
            assert fast.pairs == slow.pairs
        for rep_f, rep_s in zip(
            fast.class_group.representatives, slow.class_group.representatives
        ):
            assert rep_f == rep_s


def test_group_closure_properties():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        pairs = enumerate_pairs(ctx, method="brute-force").pairs
        keys = {p.key(ctx.group) for p in pairs}
        for p in pairs:
            inverse = KappaPair(
                {k: ctx.field.inv(v) for k, v in p.g1.items()},
                tuple(ctx.field.inv(v) for v in p.g2),
            )
            assert pair_mul(ctx, p, inverse) == trivial_pair(ctx)
            for q in pairs:
                assert pair_mul(ctx, p, q).key(ctx.group) in keys


def test_enumeration_requires_prime_field():
    G = cyclic_group(2)
    ctx = trivial_context(G, trivial_module(G), RationalField())
    with pytest.raises(NonCyclicUnits):
        enumerate_pairs(ctx)


def test_brute_force_cap():
    G = symmetric_group(3)
    ctx = trivial_context(G, trivial_module(G), F5)
    with pytest.raises(TooLarge):
        enumerate_pairs(ctx, method="brute-force", cap=100)


def _invariant_characters(module, m: int) -> int:
    """#{G-invariant characters of ``module`` into Z/m}, counted on every exponent vector."""
    G, count = module.group, 0
    for y in itertools.product(range(m), repeat=module.rank):
        killed = all(mi * yi % m == 0 for mi, yi in zip(module.moduli, y))
        invariant = all(
            sum(c * yj for c, yj in zip(module.act(a, gen), y)) % m == y[i]
            for a in G.elements()
            for i, gen in enumerate(module.generators())
        )
        count += killed and invariant
    return count


def test_consistency_bridge_with_cohomology_module():
    """The pair classes sit in an exact sequence with degree-2 cohomology.

    With K* = Z/(p-1) acting trivially, sending a pair to its character
    gives 0 -> H^2(G, K*) -> H/B -> {G-invariant chi with [chi o kappa] = 0
    in H^3(G, K*)} -> 0.  With trivial kappa every invariant character
    counts, so |H/B| = |H^2(G, Z/(p-1))| * #{G-invariant chi}; with the
    trivial module the only character is 1.  Over D8, Q8 and A4 the pair
    oracle does not run, so the module Z/2 there pins the pair group past
    it.  Both sides read ``cohomology._lattices``: the pair lattices come
    from it for the trivial rank-1 module, and so does H^2; the characters
    are counted here by enumeration.
    """
    # test_generator_lattices imports this module, so it is read here
    from test_generator_lattices import A4, D8, Q8

    S3 = symmetric_group(3)
    cases = [(cyclic_group(2), 5), (cyclic_group(3), 7), (cyclic_group(4), 5), (S3, 3), (S3, 5)]
    cases = [(G, p, trivial_module(G)) for G, p in cases]
    cases += [(G, p, cyclic_module(G, 2)) for G in (D8, Q8, A4) for p in (5, 7)]
    for G, p, A in cases:
        ctx = trivial_context(G, A, PrimeField(p))
        enum = enumerate_pairs(ctx)
        H2 = cohomology_group(cyclic_module(G, p - 1), 2)
        assert enum.class_group.order == H2.order * _invariant_characters(A, p - 1), (G.order, p)
        for rep in enum.class_group.representatives:
            assert is_kappa_pair(ctx, rep)[0]


# -- coset test ----------------------------------------------------------------------


def test_pairs_equivalent_reflexive_symmetric_transitive():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        pairs = enumerate_pairs(ctx, method="brute-force").pairs
        rel = {}
        for p in pairs:
            for q in pairs:
                rel[(p.key(ctx.group), q.key(ctx.group))] = (
                    pairs_equivalent(ctx, p, q) is not None
                )
        for p in pairs:
            kp = p.key(ctx.group)
            assert rel[(kp, kp)]
            for q in pairs:
                kq = q.key(ctx.group)
                assert rel[(kp, kq)] == rel[(kq, kp)]
                for r in pairs:
                    kr = r.key(ctx.group)
                    if rel[(kp, kq)] and rel[(kq, kr)]:
                        assert rel[(kp, kr)]


def test_pairs_equivalent_recovers_shift():
    ctx = context_I1()
    base = trivial_pair(ctx)
    psi0 = {0: 1, 1: 3}
    shifted = pair_mul(ctx, base, coboundary_pair(ctx, psi0))
    psi = pairs_equivalent(ctx, shifted, base)
    assert psi is not None
    assert coboundary_pair(ctx, psi) == coboundary_pair(ctx, psi0)


def test_pairs_equivalent_reads_an_unreduced_g2():
    # g2 = (6,) is the trivial character of Z/2 in F5
    ctx = trivial_context(cyclic_group(2), cyclic_module(cyclic_group(2), 2), F5)
    p = trivial_pair(ctx)
    q = KappaPair(dict(p.g1), (6,))
    assert pairs_equivalent(ctx, p, q) == {0: 1, 1: 1}


def test_pairs_equivalent_reads_an_unreduced_g1():
    # g1(1, 1) = 6 is 1 in F5: the solved psi carries q2 to p, trivially
    ctx = trivial_context(cyclic_group(2), cyclic_module(cyclic_group(2), 2), F5)
    p = trivial_pair(ctx)
    g1 = dict(p.g1)
    g1[(1, 1)] = 6
    assert pairs_equivalent(ctx, KappaPair(g1, p.g2), p) == {0: 1, 1: 1}


def test_pairs_equivalent_with_an_empty_first_slot():
    # the pointed solve reads the first slot of its kernel's Hermite basis
    # mod m = p - 1.  The trivial group has no d1 rows, so that basis must
    # still be taken mod m; over F2, where m = 1, the slot is empty and
    # stands for the row 1 * unit, a solution
    F2 = PrimeField(2)
    G1, Z3 = trivial_group(), cyclic_group(3)
    for ctx in (
        trivial_context(G1, cyclic_module(G1, 2), F5),
        trivial_context(G1, trivial_module(G1), F2),
        trivial_context(Z3, cyclic_module(Z3, 2), F2),
    ):
        p = trivial_pair(ctx)
        assert pairs_equivalent(ctx, p, p) == dict.fromkeys(ctx.group.elements(), 1), ctx


def test_pointed_solve_needs_the_ratio_to_be_1_at_the_unit():
    # the solve reads d1 on the pairs without the unit; a ratio that is not 1
    # at a pair with the unit still has no solution, over F_p and over Q
    from fractions import Fraction

    from tfalgebra.pairs import _solve_pointed_coboundary

    G = cyclic_group(3)
    for F, psi0 in ((F5, {0: 1, 1: 2, 2: 3}), (RationalField(), {0: 1, 1: Fraction(2), 2: -3})):
        ctx = trivial_context(G, trivial_module(G), F)
        ratio = coboundary_pair(ctx, psi0).g1
        assert _solve_pointed_coboundary(ctx, ratio) == psi0
        for key in ((1, 0), (0, 2), (0, 0)):
            assert _solve_pointed_coboundary(ctx, {**ratio, key: F.neg(F.one)}) is None, (F, key)


def test_distinct_classes_not_equivalent():
    ctx = context_I1()
    cg = enumerate_pairs(ctx).class_group
    assert len(cg.representatives) == 1
    rep = cg.representatives[0]
    assert pairs_equivalent(ctx, rep, trivial_pair(ctx)) is None


def test_pairs_equivalent_over_s4():
    G = symmetric_group(4)
    ctx = trivial_context(G, trivial_module(G), F5)
    base = trivial_pair(ctx)
    psi0 = {a: 1 + (3 * a) % 4 for a in G.elements()}
    psi0[G.identity] = 1
    shifted = pair_mul(ctx, base, coboundary_pair(ctx, psi0))
    psi = pairs_equivalent(ctx, shifted, base)
    assert psi is not None
    assert coboundary_pair(ctx, psi) == coboundary_pair(ctx, psi0)
    # the carry cocycle of Z/2, pulled back along the sign, with 2 of order 4
    # in F5^*: a nontrivial class, so no psi exists
    perms = sorted(itertools.permutations(range(4)))
    odd = [sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 for p in perms]
    g1 = {(a, b): 2 if odd[a] and odd[b] else 1 for a in G.elements() for b in G.elements()}
    sign_pair = KappaPair(g1, ())
    assert pairs_equivalent(ctx, sign_pair, base) is None


def test_pairs_equivalent_over_rationals():
    G = cyclic_group(2)
    Q = RationalField()
    from fractions import Fraction

    ctx = trivial_context(G, trivial_module(G), Q)
    base = trivial_pair(ctx)
    # shift by psi(s) = 2/3: the ratio table is a perfect coboundary
    psi0 = {0: Fraction(1), 1: Fraction(2, 3)}
    shifted = pair_mul(ctx, base, coboundary_pair(ctx, psi0))
    psi = pairs_equivalent(ctx, shifted, base)
    assert psi is not None
    assert coboundary_pair(ctx, psi) == coboundary_pair(ctx, psi0)
    # g1(s,s) = 2 is not a rational square, so no psi exists
    g1 = {(a, b): Fraction(1) for a in range(2) for b in range(2)}
    g1[(1, 1)] = Fraction(2)
    not_square = KappaPair(g1, ())
    assert pairs_equivalent(ctx, not_square, base) is None
    # but g1(s,s) = 4 is one
    g1 = dict(g1)
    g1[(1, 1)] = Fraction(4)
    square = KappaPair(g1, ())
    psi = pairs_equivalent(ctx, square, base)
    assert psi is not None
    assert psi[1] in (Fraction(2), Fraction(-2))


def test_pairs_equivalent_over_rationals_on_s3():
    # n = 6, and the sign character makes psi unique only up to sign
    from fractions import Fraction

    G = symmetric_group(3)
    ctx = trivial_context(G, trivial_module(G), RationalField())
    base = trivial_pair(ctx)
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2 for p in perms]
    assert odd == [0, 1, 1, 0, 0, 1]
    psi0 = {a: Fraction((-2) ** a, 3 ** odd[a]) for a in G.elements()}
    shifted = pair_mul(ctx, base, coboundary_pair(ctx, psi0))
    psi = pairs_equivalent(ctx, shifted, base)
    assert psi is not None
    assert coboundary_pair(ctx, psi) == coboundary_pair(ctx, psi0)
    # 2 on two odd permutations: psi(a)^6 would be 2^3 there, no rational root
    g1 = {(a, b): Fraction(2 ** (odd[a] * odd[b])) for a in G.elements() for b in G.elements()}
    assert pairs_equivalent(ctx, KappaPair(g1, ()), base) is None
    # 4 there is d1 of psi = 2 on the odd permutations
    g1 = {k: v * v for k, v in g1.items()}
    psi = pairs_equivalent(ctx, KappaPair(g1, ()), base)
    assert psi == {a: Fraction(2 if odd[a] else 1) for a in G.elements()}


# -- classification --------------------------------------------------------------------


def test_classification_counts():
    cls = classify_simple(context_I1())
    assert cls.class_group.order == 2
    assert cls.rescaling_count == 4
    assert cls.isomorphism_class_count == 8
    assert len(cls.algebras) == 2

    G1 = trivial_group()
    ctx = trivial_context(G1, trivial_module(G1), F5)
    cls = classify_simple(ctx)
    assert cls.class_group.order == 1
    assert cls.isomorphism_class_count == 4


@pytest.mark.parametrize("p,count", [(5, 32), (7, 48)])
def test_classification_over_s4(p, count):
    # H^2(S4, F_p^*) = Z/2 x Z/2 and the character group of Z/2 adds a
    # third factor; each class carries p - 1 rescalings
    G = symmetric_group(4)
    cls = classify_simple(trivial_context(G, cyclic_module(G, 2), PrimeField(p)))
    assert cls.class_group.invariant_factors == (2, 2, 2)
    assert len(cls.class_pairs) == cls.class_group.order == 8
    assert cls.isomorphism_class_count == count


def test_classification_representatives_inequivalent():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        cls = classify_simple(ctx)
        for i, p in enumerate(cls.class_pairs):
            for j, q in enumerate(cls.class_pairs):
                equal = pairs_equivalent(ctx, p, q) is not None
                assert equal == (i == j)

"""The pair group: predicate, enumeration (both routes), cosets, classification."""

import itertools

import pytest

from tfalgebra.algebra import AlgebraContext, trivial_context
from tfalgebra.cochains import Cochain
from tfalgebra.cohomology import cohomology_group
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
    pair_inv,
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


def test_routes_agree_everywhere():
    for ctx in enumeration_contexts():
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
            assert pair_mul(ctx, p, pair_inv(ctx, p)) == trivial_pair(ctx)
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


def test_consistency_bridge_with_cohomology_module():
    """With trivial coefficients the pair classification reduces to degree-2
    group cohomology with unit-group coefficients modulo its coboundaries."""
    for G, p in (
        (cyclic_group(2), 5),
        (cyclic_group(3), 7),
        (cyclic_group(4), 5),
        (symmetric_group(3), 3),
        (symmetric_group(3), 5),
    ):
        F = PrimeField(p)
        ctx = trivial_context(G, trivial_module(G), F)
        enum = enumerate_pairs(ctx)
        units_module = cyclic_module(G, p - 1)
        H2 = cohomology_group(units_module, 2)
        assert enum.class_group.order == H2.order, (G.order, p)
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


def test_classification_representatives_inequivalent():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        cls = classify_simple(ctx)
        for i, p in enumerate(cls.class_pairs):
            for j, q in enumerate(cls.class_pairs):
                equal = pairs_equivalent(ctx, p, q) is not None
                assert equal == (i == j)

"""Nonabelian grading with a genuinely nontrivial twist, and acting coefficients.

The conjugation-scalar formulas only show their teeth when the twisting
cocycle is nontrivial AND conjugation moves components.  The cocycle here is
pulled back along the sign map of S3 from the nontrivial degree-3 class on
Z/2; restriction to a transposition shows the class stays nontrivial.
Building an algebra uses only the pair-compatibility equation while the
verifier recomputes every twist scalar from the cocycle, so a transcription
error in either would break the round trip.
"""

import itertools
import random
from fractions import Fraction

from tfalgebra.algebra import AlgebraContext, KappaPair, trivial_context
from tfalgebra.cochains import Cochain, coboundary, is_cocycle, is_normalized
from tfalgebra.constructions import build_simple, extract_kappa_pair
from tfalgebra.fields import PrimeField, RationalField
from tfalgebra.gmodule import GModule, cyclic_module
from tfalgebra.groups import cyclic_group, symmetric_group
from tfalgebra.pairs import coboundary_pair, enumerate_pairs, is_kappa_pair, pair_mul
from tfalgebra.verify import verify

from pair_reference import witness_by_walk

F3 = PrimeField(3)
F5 = PrimeField(5)


def s3_sign_inflated_cocycle():
    """The degree-3 table on S3 supported where all three slots are odd."""
    G = symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))

    def parity(p):
        return sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2

    sgn = [parity(p) for p in perms]
    A = cyclic_module(G, 2)
    table = {}
    for a in G.elements():
        for b in G.elements():
            for c in G.elements():
                table[(a, b, c)] = (1,) if (sgn[a] and sgn[b] and sgn[c]) else (0,)
    return G, A, Cochain(A, 3, table), sgn


def test_inflated_cocycle_is_a_nontrivial_normalized_cocycle():
    G, A, kappa, sgn = s3_sign_inflated_cocycle()
    assert is_cocycle(kappa)[0]
    assert is_normalized(kappa)
    # restriction to the subgroup generated by one transposition is the
    # nontrivial class on Z/2, so the inflated class cannot be a coboundary
    tau = next(g for g in G.elements() if sgn[g] and G.mul(g, g) == G.identity)
    G2 = cyclic_group(2)
    A2 = cyclic_module(G2, 2)
    restricted = Cochain(
        A2,
        3,
        {
            (i, j, k): kappa.table[
                (tau if i else G.identity, tau if j else G.identity, tau if k else G.identity)
            ]
            for i in range(2)
            for j in range(2)
            for k in range(2)
        },
    )
    assert restricted == Cochain(A2, 3, {(1, 1, 1): (1,)})
    all_coboundaries = {
        coboundary(Cochain(A2, 2, dict(zip(G2.tuples(2), values))))
        for values in itertools.product(list(A2.elements()), repeat=4)
    }
    assert restricted not in all_coboundaries


def test_s3_twisted_pairs_build_and_verify():
    G, A, kappa, _ = s3_sign_inflated_cocycle()
    ctx = AlgebraContext(G, A, kappa, F3)
    enum = enumerate_pairs(ctx)
    cg = enum.class_group
    assert cg.pair_group_order == 32
    assert cg.coboundary_order == 16
    assert cg.invariant_factors == (2,)
    assert enum.pairs is not None and len(enum.pairs) == 32
    for pair in enum.pairs:
        assert is_kappa_pair(ctx, pair)[0]
        V = build_simple(ctx, pair)
        report = verify(V)
        assert report.passed, (pair, report.failing_tags())
        back, _ = extract_kappa_pair(V)
        assert back == pair


def test_inverted_z4_with_nontrivial_invariant_character():
    # Z/2 inverts Z/4; the order-2 character survives the invariance demand
    G = cyclic_group(2)
    A = GModule(G, (4,), action={0: [[1]], 1: [[3]]})
    ctx = trivial_context(G, A, F5)
    enum = enumerate_pairs(ctx, method="brute-force")
    characters = sorted({p.g2 for p in enum.pairs})
    assert characters == [(1,), (4,)]
    fast = enumerate_pairs(ctx)
    assert fast.class_group.invariant_factors == enum.class_group.invariant_factors
    for pair in enum.pairs:
        V = build_simple(ctx, pair)
        report = verify(V)
        assert report.passed, (pair, report.failing_tags())


def _damaged(rng, G, pair, values):
    """The pair with one g1 entry or one character value redrawn, or left as it is."""
    g1, g2 = dict(pair.g1), list(pair.g2)
    roll = rng.random()
    if roll < 0.7:
        g1[(rng.randrange(G.order), rng.randrange(G.order))] = rng.choice(values)
    elif roll < 0.8:
        g2[rng.randrange(len(g2))] = rng.choice(values)
    return KappaPair(g1, tuple(g2))


def test_pair_witnesses_match_the_compatibility_walk():
    # nontrivial kappa: the inflated S3 class over F3, F5 and Q, and a
    # coboundary on the inverted Z4; valid pairs and seeded damaged copies
    rng = random.Random(2040)
    G, A, kappa, _ = s3_sign_inflated_cocycle()
    Z2 = cyclic_group(2)
    inverted = GModule(Z2, (4,), action={0: [[1]], 1: [[3]]})
    twist = coboundary(Cochain(inverted, 2, {(1, 1): (1,)}))
    contexts = (
        AlgebraContext(G, A, kappa, F3),
        AlgebraContext(G, A, kappa, F5),
        trivial_context(Z2, inverted, F5),
        AlgebraContext(Z2, inverted, twist, F5),
    )
    cases = [(ctx, enumerate_pairs(ctx).pairs, range(-6, 11)) for ctx in contexts]
    # over Q: the F3 pairs, whose values are 1 and 2 = -1, lifted and times a seeded coboundary
    over_q, sign = AlgebraContext(G, A, kappa, RationalField()), {1: Fraction(1), 2: Fraction(-1)}
    units = [Fraction(n, d) for n in (1, -1, 2, -3) for d in (1, 5)]
    lifted = []
    for p in cases[0][1]:
        psi = {a: rng.choice(units) if a != G.identity else Fraction(1) for a in G.elements()}
        lift = KappaPair({k: sign[v] for k, v in p.g1.items()}, tuple(sign[v] for v in p.g2))
        lifted.append(pair_mul(over_q, lift, coboundary_pair(over_q, psi)))
    cases.append((over_q, lifted, [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]))
    at_kappa = [0, 0]
    for ctx, pairs, values in cases:
        passed = 0
        for _ in range(300):
            pair = _damaged(rng, ctx.group, rng.choice(pairs), list(values))
            ok, witness = is_kappa_pair(ctx, pair)
            assert witness == witness_by_walk(ctx, pair), (ctx.describe(), pair.g1, pair.g2)
            assert ok is (witness is None)
            passed += ok
            # over Z2 a normalized g1 always meets the condition, so only S3 fails it
            if witness and witness[0] == "compatibility":
                at_kappa[any(ctx.kappa.value(*witness[1:]))] += 1
        assert passed >= 30, ctx.describe()
    # failures where chi(kappa) is 1 and where it is not
    assert min(at_kappa) >= 30, at_kappa

"""Build/extract round trips, basis rescaling, coboundary transforms, embeddings."""

import itertools

import pytest

from tfalgebra.algebra import AlgebraContext, TFAlgebra, trivial_context, z_rescale
from tfalgebra.cochains import Cochain, coboundary, is_normalized
from tfalgebra.cohomology import cohomology_group
from tfalgebra.constructions import (
    build_simple,
    coboundary_transform,
    extract_kappa_pair,
    from_a_frobenius,
    from_crossed_frobenius,
)
from tfalgebra.errors import (
    InvalidPair,
    NotNormalized,
    NotSimple,
    UnitFormNotOne,
)
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import GModule, cyclic_module, trivial_module
from tfalgebra.groups import cyclic_group, symmetric_group, trivial_group
from tfalgebra.linalg import Matrix
from tfalgebra.pairs import (
    KappaPair,
    coboundary_pair,
    enumerate_pairs,
    pair_mul,
    trivial_pair,
)
from tfalgebra.verify import verify

F5 = PrimeField(5)
F3 = PrimeField(3)


def context_I1():
    G = cyclic_group(2)
    return trivial_context(G, trivial_module(G), F5)


def context_I2():
    G = trivial_group()
    return trivial_context(G, cyclic_module(G, 2), F5)


def context_I3():
    G = cyclic_group(2)
    A = cyclic_module(G, 2)
    kappa = Cochain(A, 3, {(1, 1, 1): (1,)})
    return AlgebraContext(G, A, kappa, F3)


def context_I3_F5():
    G = cyclic_group(2)
    A = cyclic_module(G, 2)
    kappa = Cochain(A, 3, {(1, 1, 1): (1,)})
    return AlgebraContext(G, A, kappa, F5)


ACCEPTANCE_CONTEXTS = (context_I1, context_I2, context_I3)


# -- building ---------------------------------------------------------------------


def test_build_trivial_pair_is_regular_pattern():
    ctx = context_I1()
    V = build_simple(ctx, trivial_pair(ctx))
    assert V.mult[(1, 1)] == [[[1]]]
    assert V.phi[(1, 0)].rows == [[1]]
    assert V.eta.rows == [[1]]
    assert verify(V).passed


def test_build_with_nontrivial_scalar():
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 1)] = 2
    V = build_simple(ctx, KappaPair(g1, ()))
    # l_s * l_s = g1(s,s)^-1 l_e = 3 l_e over F5
    assert V.mult[(1, 1)] == [[[3]]]
    assert verify(V).passed


def test_build_rejects_invalid_pair():
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(0, 1)] = 2  # breaks normalization
    with pytest.raises(InvalidPair):
        build_simple(ctx, KappaPair(g1, ()))


def test_build_rejects_unreduced_zero_entry():
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 1)] = 5  # zero in F5
    with pytest.raises(InvalidPair):
        build_simple(ctx, KappaPair(g1, ()))


def test_every_enumerated_pair_builds_verified():
    for make in ACCEPTANCE_CONTEXTS + (context_I3_F5,):
        ctx = make()
        enum = enumerate_pairs(ctx, method="brute-force")
        assert enum.pairs
        for pair in enum.pairs:
            report = verify(build_simple(ctx, pair))
            assert report.passed, (make.__name__, pair, report.failing_tags())


# -- extraction ---------------------------------------------------------------------


def test_extract_build_roundtrip_is_identity():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        for pair in enumerate_pairs(ctx, method="brute-force").pairs:
            V = build_simple(ctx, pair)
            back, basis = extract_kappa_pair(V)
            assert back == pair
            assert basis[ctx.group.identity] == V.unit


def test_extract_requires_simple_and_unit_form_one():
    from tfalgebra.samples import product_field_swap_algebra

    with pytest.raises(NotSimple):
        extract_kappa_pair(product_field_swap_algebra(F5))
    ctx = context_I1()
    V = build_simple(ctx, trivial_pair(ctx))
    with pytest.raises(UnitFormNotOne):
        extract_kappa_pair(z_rescale(V, 2))
    # rescaling back restores extractability
    pair, _ = extract_kappa_pair(z_rescale(z_rescale(V, 2), 3))
    assert pair == trivial_pair(ctx)


def rescale_basis(V: TFAlgebra, psi: dict[int, object]) -> TFAlgebra:
    """Change basis l'_a = psi(a)^-1 l_a in a simple algebra (psi(e) = 1)."""
    G, F = V.context.group, V.context.field
    mult = {}
    for a in G.elements():
        for b in G.elements():
            c = V.mult[(a, b)][0][0][0]
            scale = F.div(psi[G.mul(a, b)], F.mul(psi[a], psi[b]))
            mult[(a, b)] = [[[F.mul(c, scale)]]]
    phi = {}
    for b in G.elements():
        for a in G.elements():
            coeff = V.phi[(b, a)].rows[0][0]
            scale = F.div(psi[G.conj(b, a)], psi[a])
            phi[(b, a)] = Matrix(F, [[F.mul(coeff, scale)]])
    return V.replace(mult=mult, phi=phi)


def test_extract_after_basis_rescale_shifts_by_coboundary_pair():
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        G, F = ctx.group, ctx.field
        pairs = enumerate_pairs(ctx, method="brute-force").pairs
        psis = []
        units = F.units()
        for values in itertools.product(units, repeat=G.order - 1):
            psi = {G.identity: F.one}
            rest = [a for a in G.elements() if a != G.identity]
            for a, v in zip(rest, values):
                psi[a] = v
            psis.append(psi)
        for pair in pairs:
            V = build_simple(ctx, pair)
            for psi in psis:
                W = rescale_basis(V, psi)
                assert verify(W).passed
                shifted, _ = extract_kappa_pair(W)
                expected = pair_mul(ctx, pair, coboundary_pair(ctx, psi))
                assert shifted == expected, (pair, psi)


# -- coboundary transforms --------------------------------------------------------


def normalized_two_cochains(module):
    """All normalized degree-2 cochains on the module's group."""
    G = module.group
    e = G.identity
    free = [(a, b) for a in G.elements() if a != e for b in G.elements() if b != e]
    for values in itertools.product(list(module.elements()), repeat=len(free)):
        table = dict(zip(free, values))
        yield Cochain(module, 2, table)


def transform_contexts():
    out = []
    G2, G3 = cyclic_group(2), cyclic_group(3)
    out.append(trivial_context(G2, cyclic_module(G2, 2), F5))
    out.append(trivial_context(G2, cyclic_module(G2, 4), F5))
    out.append(trivial_context(G3, cyclic_module(G3, 3), F5))
    out.append(trivial_context(G2, GModule(G2, (2, 2)), F5))
    out.append(context_I3())
    return out


def test_transform_by_all_normalized_cochains():
    checked = 0
    for ctx in transform_contexts():
        V = build_simple(ctx, trivial_pair(ctx))
        for omega in normalized_two_cochains(ctx.module):
            W = coboundary_transform(V, omega)
            assert W.context.kappa == coboundary(omega).mul(ctx.kappa)
            assert is_normalized(W.context.kappa)
            report = verify(W)
            assert report.passed, (omega.table, report.failing_tags())
            checked += 1
    assert checked >= 90


def test_transform_inverse_recovers_value():
    for ctx in transform_contexts():
        V = build_simple(ctx, trivial_pair(ctx))
        for omega in normalized_two_cochains(ctx.module):
            W = coboundary_transform(coboundary_transform(V, omega), omega.inv())
            assert W.context.kappa == V.context.kappa
            assert W.mult == V.mult
            assert W.phi == V.phi
            assert W.eta == V.eta and W.unit == V.unit
            assert W.a_action == V.a_action


def test_trivial_transform_is_identity():
    ctx = context_I1()
    V = build_simple(ctx, trivial_pair(ctx))
    W = coboundary_transform(V, Cochain.trivial(ctx.module, 2))
    assert W.mult == V.mult and W.phi == V.phi
    assert W.context.kappa == V.context.kappa


def test_transform_rejects_unnormalized():
    ctx = trivial_context(cyclic_group(2), cyclic_module(cyclic_group(2), 2), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    bad = Cochain(ctx.module, 2, {(0, 1): (1,)})
    with pytest.raises(NotNormalized):
        coboundary_transform(V, bad)


def test_pairs_and_builds_over_genuinely_twisted_z3_context():
    # take the nontrivial degree-3 class on Z/3 with Z/3 coefficients,
    # normalize its representative, and work over F7 where order-3
    # characters exist
    from tfalgebra.cochains import normalize_cocycle

    G = cyclic_group(3)
    A = cyclic_module(G, 3)
    H3 = cohomology_group(A, 3)
    assert H3.invariant_factors == (3,)
    kappa, _ = normalize_cocycle(H3.representatives[0])
    ctx = AlgebraContext(G, A, kappa, PrimeField(7))
    fast = enumerate_pairs(ctx)
    slow = enumerate_pairs(ctx, method="brute-force")
    assert fast.class_group.pair_group_order == slow.class_group.pair_group_order
    assert fast.class_group.invariant_factors == slow.class_group.invariant_factors
    for pair in slow.pairs:
        assert verify(build_simple(ctx, pair)).passed


# -- degenerate embeddings ----------------------------------------------------------


def test_from_crossed_frobenius_group_algebra():
    # K[Z/2] with the hyperbolic form eta(l_a, l_b) = [ab = e]
    G = cyclic_group(2)
    dims = {0: 1, 1: 1}
    mult = {
        (0, 0): [[[1]]],
        (0, 1): [[[1]]],
        (1, 0): [[[1]]],
        (1, 1): [[[1]]],
    }
    unit = [1]
    eta = Matrix(F5, [[1]])
    phi = {(b, a): Matrix(F5, [[1]]) for b in range(2) for a in range(2)}
    V = from_crossed_frobenius(G, F5, dims, mult, unit, eta, phi)
    assert V.context.module.is_trivial
    assert V.context.kappa.is_trivial()
    assert verify(V).passed


def test_from_crossed_frobenius_nonabelian():
    G = symmetric_group(3)
    dims = {g: 1 for g in G.elements()}
    mult = {(a, b): [[[1]]] for a in G.elements() for b in G.elements()}
    phi = {(b, a): Matrix(F5, [[1]]) for b in G.elements() for a in G.elements()}
    V = from_crossed_frobenius(G, F5, dims, mult, [1], Matrix(F5, [[1]]), phi)
    assert verify(V).passed


def test_from_a_frobenius_sign_line():
    # 1-dimensional algebra with Z/2 acting by -1 over F5
    chi = {(0,): Matrix(F5, [[1]]), (1,): Matrix(F5, [[4]])}
    V = from_a_frobenius((2,), F5, 1, [[[1]]], chi, [1], Matrix(F5, [[1]]))
    assert V.context.group.order == 1
    assert verify(V).passed


def test_from_a_frobenius_commutativity_forced():
    # with the trivial grading group, the commutation axiom reads vu = uv;
    # a noncommutative product must fail
    two = Matrix.identity(F5, 2)
    tensor = [
        [[1, 0], [0, 1]],
        [[0, 0], [0, 1]],
    ]
    chi = {(): two}
    V = from_a_frobenius((), F5, 2, tensor, chi, [1, 0], Matrix.identity(F5, 2))
    report = verify(V)
    assert not report.passed
    assert "phi-commute" in report.failing_tags()

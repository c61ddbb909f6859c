"""Cocycle and pair lattices from the rows led by a generating set, and cohomology pins from theory.

A normalized cochain f with df(s, -) = 0 for every s in a generating set S
is a cocycle.  ``cohomology._lattices`` takes the cocycle lattice as the
sparse ``intmat.kernel_mod`` of the rows of d^n at the unit-free tuples
led by S, over the normalized coordinates; ``pairs._pair_lattices`` calls
it with the character's exponents as extra columns.  Their Hermite bases
must equal those of the dense kernels of every row in
``lattice_reference``, on a fixed list of groups and modules.  The
coboundary lattices, spanned by the columns of the normalized coboundary
matrix, must equal the spans of the pointwise coboundaries there, on the
same modules and on every pair-listing context.

Past the enumeration cap the oracle cannot check ``cohomology_group``, so
the mod-2 dimensions of H^n(G, Z/2) for the dihedral group D8, the
quaternion group Q8, A4 and S4 are pinned to the values of Adem and
Milgram, *Cohomology of Finite Groups*: the Poincare series 1/(1-t)^2 for
D8, period 4 for Q8, (1+t^3)/((1-t^2)(1-t^3)) for A4, and
(1+t^2)/((1-t)(1-t^3)) for S4.  Over a field
F_p with trivial action the Kunneth formula gives H^n of a product from
its factors, so H^n(Z3 x Z3, Z/3) and H^n(Z2^3, Z/2) are pinned to the
dimensions the library computes on Z3 and Z2, which the oracle checks.
"""

from __future__ import annotations

import itertools
import random

import pytest

from tfalgebra import cohomology, pairs
from tfalgebra.algebra import AlgebraContext, trivial_context
from tfalgebra.cochains import Cochain, coboundary
from tfalgebra.errors import TooLarge
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import GModule, cyclic_module
from tfalgebra.groups import cyclic_group, direct_product, group_from_table, symmetric_group

from lattice_reference import (
    kernel_cocycle_lattice,
    kernel_pair_lattice,
    pointwise_boundary_lattice,
    pointwise_pair_boundary,
)
from test_pairs_listing import listing_contexts


def permutation_group(gens):
    """The group generated by permutation tuples, on its sorted elements, via its table."""
    n = len(gens[0])
    ident = tuple(range(n))
    elements, todo = {ident}, [ident]
    for p in todo:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in elements:
                elements.add(q)
                todo.append(q)
    perms = sorted(elements)
    index = {p: i for i, p in enumerate(perms)}
    # (p * q)(x) = p(q(x))
    return group_from_table([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


def quaternion_group():
    """Q8 on 2u + s for the unit u in (1, i, j, k) and the sign (-1)^s."""

    def unit_product(a, b):
        if a == 0 or b == 0:
            return a + b, 0
        if a == b:
            return 0, 1
        # ij = k, jk = i, ki = j, and the reversed products are negated
        return 6 - a - b, (b - a) % 3 != 1

    table = []
    for x in range(8):
        row = []
        for y in range(8):
            u, s = unit_product(x // 2, y // 2)
            row.append(2 * u + (s + x + y) % 2)
        table.append(row)
    return group_from_table(table)


Z2, Z4, S3 = cyclic_group(2), cyclic_group(4), symmetric_group(3)
Z2SQ = direct_product(Z2, Z2)
Z2CUBE = direct_product(Z2SQ, Z2)
D8 = permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)])
Q8 = quaternion_group()
A4 = permutation_group([(1, 2, 0, 3), (0, 2, 3, 1)])
S4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])


def test_groups_have_their_orders():
    assert [G.order for G in (D8, Q8, A4, S4)] == [8, 8, 12, 24]
    # Q8 has one involution, D8 five
    for G, involutions in ((Q8, 1), (D8, 5)):
        squares = [G.mul(g, g) for g in G.elements() if g != G.identity]
        assert squares.count(G.identity) == involutions


# -- the generating set -------------------------------------------------------------


def _closure(G, gens):
    seen = {G.identity}
    while True:
        grown = seen | {G.mul(a, s) for a in seen for s in gens}
        if grown == seen:
            return seen
        seen = grown


@pytest.mark.parametrize(
    "name,G,size",
    [("Z4", Z4, 1), ("Z2^2", Z2SQ, 2), ("Z2^3", Z2CUBE, 3), ("S3", S3, 2), ("S4", S4, 2)],
)
def test_generating_set(name, G, size):
    S = cohomology._generating_set(G)
    assert len(S) == size, name
    assert _closure(G, S) == set(G.elements()), name
    # a function of the table alone
    assert cohomology._generating_set(G) == S
    assert cohomology._generating_set(group_from_table(G.table)) == S


# -- cocycle lattices against the dense kernel of every row --------------------------


def _sign_module(encoding):
    """S3 acting on Z/3 by the sign, odd permutations by ``encoding`` (-1 or 2)."""
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    return GModule(S3, (3,), action={g: [[encoding if odd[g] else 1]] for g in range(6)})


def _cocycle_cases():
    cases = []
    for gname, G, degrees in (
        ("Z4", Z4, 4),
        ("Z2^2", Z2SQ, 4),
        ("S3", S3, 4),
        ("D8", D8, 4),
        ("Q8", Q8, 4),
        ("Z2^3", Z2CUBE, 3),
    ):
        for mname, moduli in (("Z/2", (2,)), ("Z/4", (4,)), ("Z/2xZ/4", (2, 4))):
            cases += [(f"H{n}({gname},{mname})", GModule(G, moduli), n) for n in range(degrees)]
    for encoding in (-1, 2):
        cases += [(f"H{n}(S3,Z/3-sign[{encoding}])", _sign_module(encoding), n) for n in range(4)]
    swap = GModule(Z2, (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]})
    cases += [(f"H{n}(Z2,swap)", swap, n) for n in range(4)]
    return cases


COCYCLE_CASES = _cocycle_cases()
_LATTICES = {}


def _library_lattices(name, module, degree):
    """``cohomology._lattices`` of a case, computed once for the two tests that read it."""
    if name not in _LATTICES:
        _LATTICES[name] = cohomology._lattices(module, degree)
    return _LATTICES[name]


@pytest.mark.parametrize("name,module,degree", COCYCLE_CASES, ids=[c[0] for c in COCYCLE_CASES])
def test_cocycle_lattice_matches_the_full_kernel(name, module, degree):
    Z, _ = _library_lattices(name, module, degree)
    assert Z == kernel_cocycle_lattice(module, degree)


# degree 3 over D8 and Q8 (343 and 686 coordinates) would add seconds; every
# other case, up to 250 coordinates, is far past the enumeration cap
BOUNDARY_CASES = [c for c in COCYCLE_CASES if not c[0].startswith(("H3(D8,", "H3(Q8,"))]


@pytest.mark.parametrize("name,module,degree", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
def test_boundary_lattice_matches_the_pointwise_coboundaries(name, module, degree):
    _, B = _library_lattices(name, module, degree)
    assert B == pointwise_boundary_lattice(module, degree)


# -- pair lattices against the dense kernel of every row -----------------------------


def _seeded_twisted_context():
    """S3 with Z/2 over F5, twisted by the generator of H^3 times a seeded coboundary."""
    A = cyclic_module(S3, 2)
    (rep,) = cohomology.cohomology_group(A, 3).representatives
    rng = random.Random(3)
    free = [t for t in S3.tuples(2) if S3.identity not in t]
    omega = Cochain(A, 2, {t: (rng.randrange(2),) for t in free})
    kappa = rep.mul(coboundary(omega))
    return AlgebraContext(S3, A, kappa, PrimeField(5))


LISTING_CONTEXTS = listing_contexts()


def _pair_cases():
    cases = [(name, ctx) for name, ctx in LISTING_CONTEXTS if name.startswith("benchmark/")]
    cases.append(("seeded-twist/S3,Z/2,F5", _seeded_twisted_context()))
    cases.append(("S4,Z/2,F5", trivial_context(S4, cyclic_module(S4, 2), PrimeField(5))))
    return cases


PAIR_CASES = _pair_cases()


def test_pair_cases():
    assert len(PAIR_CASES) == 7
    assert not PAIR_CASES[5][1].kappa.is_trivial()


@pytest.mark.parametrize("name,ctx", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_pair_lattice_matches_the_full_kernel(name, ctx):
    H, _ = pairs._pair_lattices(ctx)
    assert H == kernel_pair_lattice(ctx)


@pytest.mark.parametrize("name,ctx", LISTING_CONTEXTS, ids=[c[0] for c in LISTING_CONTEXTS])
def test_pair_boundary_matches_the_pointwise_coboundary_pairs(name, ctx):
    _, B = pairs._pair_lattices(ctx)
    assert B == pointwise_pair_boundary(ctx)


# -- mod-2 cohomology pins from theory -----------------------------------------------


@pytest.mark.parametrize(
    "name,G,dimensions",
    [
        ("D8", D8, {1: 2, 2: 3, 3: 4}),
        ("Q8", Q8, {1: 2, 2: 2, 3: 1}),
        ("A4", A4, {1: 0, 2: 1, 3: 2}),
        ("S4", S4, {1: 1, 2: 2, 3: 3}),
        # H*(S3; F2) = H*(Z2; F2), restriction to a Sylow 2-subgroup
        ("S3", S3, {1: 1, 2: 1, 3: 1}),
    ],
)
def test_mod_two_cohomology_dimensions(name, G, dimensions):
    A = cyclic_module(G, 2)
    for n, dim in dimensions.items():
        H = cohomology.cohomology_group(A, n)
        assert H.invariant_factors == (2,) * dim, (name, n)
        assert len(H.representatives) == dim


def test_d8_orders_follow_from_the_dimensions():
    # |B^n| = |C^(n-1)| / |Z^(n-1)| and |Z^n| = |H^n| |B^n|, from |B^0| = 1
    # and the mod-2 dimensions 1, 2, 3, 4 of H^0..H^3(D8, Z/2); CI greps
    # the degree-3 line of `tfa cohomology` on this D8 table
    b_order = 1
    for n, dim in enumerate((1, 2, 3, 4)):
        z_order = 2**dim * b_order
        H = cohomology.cohomology_group(cyclic_module(D8, 2), n)
        assert (H.cocycle_order, H.coboundary_order) == (z_order, b_order), n
        b_order = 2 ** (D8.order**n) // z_order
    assert (H.cocycle_order, H.coboundary_order) == (2**59, 2**55)


# -- product pins from the factors (Kunneth) ------------------------------------------


def _checked_dimensions(G, p):
    """dim H^n(G, Z/p) for n <= 3 from the library, each checked by the oracle where it runs."""
    A = cyclic_module(G, p)
    dims = []
    for n in range(4):
        H = cohomology.cohomology_group(A, n)
        assert set(H.invariant_factors) <= {p}, n
        try:
            oracle = cohomology.brute_force_cohomology(A, n)
        except TooLarge:
            oracle = H
        assert oracle.invariant_factors == H.invariant_factors, n
        dims.append(len(H.invariant_factors))
    return dims


def _kunneth(dims_g, dims_h):
    """dim H^n(G x H; F_p) = sum over i + j = n of dim H^i(G; F_p) * dim H^j(H; F_p)."""
    return [sum(dims_g[i] * dims_h[n - i] for i in range(n + 1)) for n in range(len(dims_g))]


@pytest.mark.parametrize(
    "name,factors,p,top",
    [
        ("Z3xZ3", (cyclic_group(3),) * 2, 3, 4),
        ("Z2^3", (Z2,) * 3, 2, 10),
        ("S3xZ2", (S3, Z2), 2, 4),
    ],
)
def test_product_cohomology_follows_from_the_factors(name, factors, p, top):
    # Kunneth over the field F_p with trivial action (Brown, *Cohomology of
    # Groups*; Adem and Milgram, *Cohomology of Finite Groups*, ch. II).
    # Each factor's dimensions come from the library, checked by the oracle in
    # every degree it reaches (all of Z2's, Z3's up to degree 2, S3's only up
    # to degree 1), so the pin reaches the product only through checked
    # factors.  Every factor here has dimension 1 in each degree, S3 by
    # Adem and Milgram (H*(S3; F2) = H*(Z2; F2)).
    dims = [_checked_dimensions(factor, p) for factor in factors]
    assert all(d == [1, 1, 1, 1] for d in dims), name
    G, expected = factors[0], dims[0]
    for factor, d in zip(factors[1:], dims[1:]):
        G, expected = direct_product(G, factor), _kunneth(expected, d)
    # C(n + k - 1, n) for Z_p^k, the count perfbench/ladder.py cites: 4 and 10
    # in degree 3; and 1 + 1 + 1 + 1 for S3 x Z2
    assert expected[3] == top
    A = cyclic_module(G, p)
    for n, dim in enumerate(expected):
        assert cohomology.cohomology_group(A, n).invariant_factors == (p,) * dim, (name, n)

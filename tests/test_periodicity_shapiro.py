"""H^n(G, A) for twisted and higher-rank modules, pinned past the cochain oracle.

Two theorems give H^n without a cochain:

- Periodicity (Brown, *Cohomology of Groups*, I.6 and III.1; Weibel, *An
  Introduction to Homological Algebra*, 6.2).  For a cyclic group with
  generator T and norm N = 1 + T + ... + T^(n-1),

      H^0 = A^G,   H^odd = ker N / (T - 1)A,   H^even = A^G / N A (even > 0).

  Both sides of each quotient are found by listing A alone, and
  :func:`abelian.factors_by_counting` reads the invariant factors off them.
- Shapiro's lemma (Brown, III.6.2).  With G acting on its left cosets,
  H^n(G, Z/m[G/H]) = H^n(H, Z/m).  H's side is the periodicity count above
  when H is cyclic (H = 1 gives 0 for n >= 1), and the universal-coefficient
  table of ``test_universal_coefficients`` for H = S3.

No oracle here runs :mod:`intmat` or a cohomology routine on G.  The module
Z/4[S4/<t>], for a transposition t, has 4^12 elements: it is past the
listing cap, so ``cohomology_group`` must take it without listing it.
"""

from __future__ import annotations

import itertools
from math import gcd

import pytest

from tfalgebra import abelian
from tfalgebra.cohomology import cohomology_group
from tfalgebra.gmodule import DEFAULT_ENUM_CAP, GModule
from tfalgebra.groups import cyclic_group, direct_product, symmetric_group

from test_generator_lattices import _closure
from test_module_listing import _matmul
from test_universal_coefficients import HOMOLOGY, _invariant_factors


def _cyclic_module(n, moduli, T):
    """A over Z/n, with element j acting as T^j."""
    k = len(moduli)
    powers = [[[int(i == j) for j in range(k)] for i in range(k)]]
    while len(powers) < n:
        powers.append(_matmul(powers[-1], T, moduli))
    return GModule(cyclic_group(n), moduli, dict(enumerate(powers)))


def _periodic(A, degree):
    """H^degree of A over a cyclic group, from the periodic resolution, by listing A."""
    zero = A.one()
    elems = list(A.elements())

    def norm(x):
        total = zero
        for g in A.group.elements():
            total = A.mul(total, A.act(g, x))
        return total

    fixed = [x for x in elems if A.act(1, x) == x]
    if degree == 0:
        top, sub = fixed, {zero}
    elif degree % 2:
        top, sub = [x for x in elems if norm(x) == zero], {A.mul(A.act(1, x), A.inv(x)) for x in elems}
    else:
        top, sub = fixed, {norm(x) for x in elems}
    return tuple(abelian.factors_by_counting(top, sub, A.moduli))


# (name, |G|, moduli, matrix of the generator T)
CYCLIC = [
    ("Z2 on Z/3 by -1", 2, (3,), [[2]]),
    ("Z2 on Z/4 by -1", 2, (4,), [[3]]),
    ("Z2 on Z/6 by -1", 2, (6,), [[5]]),
    ("Z3 on Z/7 by 2", 3, (7,), [[2]]),
    ("Z3 on Z/9 by 4", 3, (9,), [[4]]),
    ("Z4 on Z/5 by 2", 4, (5,), [[2]]),
    ("Z4 on Z/8 by 3", 4, (8,), [[3]]),
    ("Z6 on Z/7 by 3", 6, (7,), [[3]]),
    ("Z8 on Z/3 by -1", 8, (3,), [[2]]),
    ("Z2 swapping Z/3^2", 2, (3, 3), [[0, 1], [1, 0]]),
    ("Z2 on Z/2 x Z/4", 2, (2, 4), [[1, 0], [2, 3]]),
    ("Z3 rotating Z/2^2", 3, (2, 2), [[0, 1], [1, 1]]),
    ("Z3 rotating Z/3^2", 3, (3, 3), [[0, 2], [1, 2]]),
    ("Z4 swapping Z/2^2 through Z2", 4, (2, 2), [[0, 1], [1, 0]]),
    ("Z4 by a quarter turn on Z/4^2", 4, (4, 4), [[0, 3], [1, 0]]),
    ("Z6 rotating Z/2^2", 6, (2, 2), [[0, 1], [1, 1]]),
]


@pytest.mark.parametrize("name,n,moduli,T", CYCLIC, ids=[c[0] for c in CYCLIC])
def test_cyclic_groups_follow_the_periodic_resolution(name, n, moduli, T):
    A = _cyclic_module(n, moduli, T)
    assert not A.has_trivial_action()
    for degree in range(4):
        assert cohomology_group(A, degree).invariant_factors == _periodic(A, degree), degree


def test_the_periodicity_count_reads_a_trivial_cyclic_module():
    # H^n(Z/a, Z/m) = Z/gcd(a, m) for n >= 1, and H^0 = Z/m
    for a, m in ((2, 4), (4, 6), (6, 4), (3, 9)):
        A = _cyclic_module(a, (m,), [[1]])
        assert [_periodic(A, n) for n in range(4)] == [(m,)] + [(gcd(a, m),)] * 3


def _permutation_module(G, H, m):
    """Z/m[G/H], with g sending the basis vector of xH to that of gxH."""
    cosets = []
    for x in G.elements():
        coset = frozenset(G.mul(x, h) for h in H)
        if coset not in cosets:
            cosets.append(coset)
    where = {x: i for i, coset in enumerate(cosets) for x in coset}
    k = len(cosets)
    action = {}
    for g in G.elements():
        M = [[0] * k for _ in range(k)]
        for j, coset in enumerate(cosets):
            M[where[G.mul(g, min(coset))]][j] = 1
        action[g] = M
    return GModule(G, (m,) * k, action)


def _subgroup_side(H_name, order, m, degree):
    """H^degree(H, Z/m), never from a library run on G."""
    if H_name == "S3":
        homology = HOMOLOGY["S3"][1]
        # Hom(H_n, Z/m) + Ext(H_(n-1), Z/m), with H_0 = Z free
        below = homology[degree - 2] if degree >= 2 else []
        return _invariant_factors([gcd(a, m) for a in homology[degree - 1] + below])
    # H is cyclic of the given order
    return _periodic(_cyclic_module(order, (m,), [[1]]), degree) if order > 1 else ()


S3 = symmetric_group(3)
Z2Z4 = direct_product(cyclic_group(2), cyclic_group(4))
S4 = symmetric_group(4)
_S4_PERMS = sorted(itertools.permutations(range(4)))


def _s4(*perms):
    return [_S4_PERMS.index(p) for p in perms]


# (G name, G, H name, generators of H, |H|, m, degrees)
SHAPIRO = [
    ("S3", S3, "1", [], 1, 2, (1, 2, 3)),
    ("S3", S3, "Z2", [2], 2, 2, (1, 2, 3)),
    ("S3", S3, "Z2", [2], 2, 4, (1, 2, 3)),
    ("S3", S3, "Z3", [3], 3, 3, (1, 2, 3)),
    ("S3", S3, "Z3", [3], 3, 6, (1, 2, 3)),
    ("Z2xZ4", Z2Z4, "1", [], 1, 2, (1, 2, 3)),
    ("Z2xZ4", Z2Z4, "Z2", [4], 2, 2, (1, 2, 3)),
    ("Z2xZ4", Z2Z4, "Z2", [2], 2, 4, (1, 2, 3)),
    ("Z2xZ4", Z2Z4, "Z4", [1], 4, 4, (1, 2, 3)),
    ("Z2xZ4", Z2Z4, "Z4", [5], 4, 2, (1, 2, 3)),
    ("S4", S4, "S3", _s4((1, 2, 0, 3), (1, 0, 2, 3)), 6, 2, (1, 2)),
    ("S4", S4, "S3", _s4((1, 2, 0, 3), (1, 0, 2, 3)), 6, 3, (1, 2)),
    ("S4", S4, "Z4", _s4((1, 2, 3, 0)), 4, 2, (1, 2)),
]


@pytest.mark.parametrize(
    "G_name,G,H_name,gens,order,m,degrees",
    SHAPIRO,
    ids=[f"Z{c[5]}[{c[0]}/{c[2]}]" for c in SHAPIRO],
)
def test_permutation_modules_follow_shapiros_lemma(G_name, G, H_name, gens, order, m, degrees):
    H = _closure(G, gens)
    assert len(H) == order
    A = _permutation_module(G, H, m)
    for degree in degrees:
        assert cohomology_group(A, degree).invariant_factors == _subgroup_side(
            H_name, order, m, degree
        ), degree


def test_shapiro_covers_a_module_past_the_listing_cap():
    A = _permutation_module(S4, _closure(S4, _s4((1, 0, 2, 3))), 4)
    assert A.size == 4**12 > DEFAULT_ENUM_CAP
    assert [cohomology_group(A, n).invariant_factors for n in (1, 2)] == [(2,), (2,)]

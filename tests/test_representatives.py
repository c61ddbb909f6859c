"""One rule for quotient representatives, checked without listing a lattice.

``intmat.quotient`` keys every class of ``big / small`` by the smallest
residue of its coset (``intmat.coset_minimum``) and picks the canonical
generators of ``abelian.canonical_generators`` among them.  Here
``coset_minimum`` is compared with a brute-force coset minimum, and the
representatives of every cohomology ladder rung and every pair benchmark
context are checked through Hermite bases alone: each is its own coset
minimum, a cocycle or a valid pair, of exactly its factor's order modulo the
coboundaries, and together they span the quotient.  Exact orders whose
product is the quotient order and which span it form a direct-sum basis.
The cases include coboundary groups far beyond any listing, such as the
2^30 residues of H^3(S3, Z/2), and the pair group of Z4 x Z2 over F5,
which exceeds the enumeration cap.
"""

from __future__ import annotations

import itertools
import random
from math import lcm, prod

import pytest

from tfalgebra import abelian, cohomology, intmat, pairs
from tfalgebra.cochains import is_cocycle
from tfalgebra.fields import factorize
from tfalgebra.gmodule import GModule, cyclic_module
from tfalgebra.groups import cyclic_group, direct_product, symmetric_group

from lattice_reference import dense, lattice_index, solve_in_lattice, sparse
from test_cochains import s3_sign_module
from test_pairs_listing import listing_contexts

# -- coset_minimum against a brute-force minimum ----------------------------------


def _closure(gens, moduli):
    """Every residue of the subgroup generated by ``gens``, by depth-first search."""
    zero = tuple(0 for _ in moduli)
    seen, todo = {zero}, [zero]
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b, m in zip(v, g, moduli))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 4, 3), (4, 2, 4, 2)])
def test_coset_minimum_matches_brute_force(moduli):
    rng = random.Random(20 + len(moduli))
    n, e = len(moduli), lcm(*moduli)
    relations = [[m if i == j else 0 for j in range(n)] for i, m in enumerate(moduli) if m != e]
    for _ in range(6):
        gens = relations + [[rng.randrange(e) for _ in range(n)] for _ in range(rng.randrange(3))]
        basis = intmat.hermite_mod(sparse(gens), e)
        subgroup = _closure(gens, moduli)
        values = list(range(max(moduli)))
        rng.shuffle(values)
        for vec in itertools.product(*map(range, moduli)):
            coset = [tuple((a + b) % m for a, b, m in zip(vec, s, moduli)) for s in subgroup]
            assert intmat.coset_minimum(basis, vec, moduli) == min(coset)
            by_value = min(coset, key=lambda v: [values[x] for x in v])
            assert intmat.coset_minimum(basis, vec, moduli, values) == by_value


# -- quotient against the counting oracle on listed residues ----------------------


def _draw_lattices(rng, odd):
    """A big lattice and a sublattice, both containing diag(moduli) Z^n.

    The sublattice is spanned by one multiple of each generator of the big
    one, so its Hermite basis is often not a multiple of the big basis row by
    row, and the quotient's digits carry.
    """
    n = rng.randint(1, 4)
    if odd:
        moduli = [rng.choice((2, 3, 4, 6, 12)) for _ in range(n)]
    else:
        moduli = [rng.choice((2, 3, 4, 6, 12))] * n
    e = lcm(*moduli)
    relations = [[m if i == j else 0 for j in range(n)] for i, m in enumerate(moduli) if m != e]
    gens = [[rng.randrange(e) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
    coeffs = [rng.randrange(e) for _ in gens]
    big = intmat.hermite_mod(sparse(relations + gens), e)
    scaled = [[c * x for x in g] for c, g in zip(coeffs, gens)]
    small = intmat.hermite_mod(sparse(relations + scaled), e)
    return big, small, moduli


def test_quotient_matches_counting_on_residues():
    nontrivial = carried = 0
    for seed in range(400):
        rng = random.Random(seed)
        big, small, moduli = _draw_lattices(rng, seed % 2)
        values = None
        if seed % 2:
            values = list(range(max(moduli)))
            rng.shuffle(values)
        factors, reps, big_order, small_order = intmat.quotient(big, small, moduli, values)

        elements = intmat.lattice_residues(big, moduli, cap=1 << 16)
        subgroup = intmat.lattice_residues(small, moduli, cap=1 << 16)
        key = None if values is None else (lambda v: [values[x] for x in v])
        expected = abelian.factors_by_counting(elements, subgroup, moduli)
        assert factors == expected, (seed, big, small, moduli)
        assert reps == abelian.canonical_generators(elements, subgroup, moduli, expected, key), seed
        assert (big_order, small_order) == (len(elements), len(subgroup)), seed

        nontrivial += bool(factors)
        # the digits carry when t_j * big_j is not already in the sublattice
        n, e = len(moduli), lcm(*moduli)
        big, small = dense(big, n, e), dense(small, n, e)
        steps = [(s[j] // b[j], b) for j, (b, s) in enumerate(zip(big, small))]
        carried += any(solve_in_lattice(small, [t * x for x in b]) is None for t, b in steps)
    assert nontrivial >= 150
    assert carried >= 15


def test_quotient_carries_between_digits():
    # Z^2 / <(2,1),(0,2)> = Z/4: twice (1, 0) is (2, 0) == (0, -1), which
    # carries into the second digit
    big, small = {0: {0: 1}, 1: {1: 1}}, {0: {0: 2, 1: 1}, 1: {1: 2}}
    factors, reps, big_order, small_order = intmat.quotient(big, small, [4, 4])
    assert factors == [4]
    assert reps == [(1, 0)]
    assert (big_order, small_order) == (16, 4)


# -- representatives of large quotients, through Hermite bases --------------------


def _assert_direct_sum_basis(big, small, moduli, factors, reps, values=None):
    n, e = len(moduli), lcm(*moduli)
    small_rows = dense(small, n, e)
    for d, rep in zip(factors, reps):
        assert intmat.coset_minimum(small, rep, moduli, values) == tuple(rep)
        assert solve_in_lattice(small_rows, [d * x for x in rep]) is not None
        for p in factorize(d):
            assert solve_in_lattice(small_rows, [(d // p) * x for x in rep]) is None
    assert lattice_index(small_rows) == prod(factors) * lattice_index(dense(big, n, e))
    spanned = intmat.hermite_mod([list(row.items()) for row in small.values()] + sparse(reps), e)
    assert spanned == big


@pytest.fixture
def no_listing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was listed")

    monkeypatch.setattr(intmat, "lattice_residues", refuse)


def _s3_sign_minus_one():
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    return GModule(symmetric_group(3), (3,), action={g: [[-1 if odd[g] else 1]] for g in range(6)})


def ladder_rungs():
    """(name, module, degree) for the rungs of the cohomology benchmark ladder."""
    Z2, Z4, S3 = cyclic_group(2), cyclic_group(4), symmetric_group(3)
    Z2sq = direct_product(Z2, Z2)
    Z2cube = direct_product(Z2sq, Z2)
    return [
        ("H2(Z4,Z/2)", cyclic_module(Z4, 2), 2),
        ("H3(Z4,Z/2)", cyclic_module(Z4, 2), 3),
        ("H2(Z4,Z/4)", cyclic_module(Z4, 4), 2),
        ("H3(Z4,Z/4)", cyclic_module(Z4, 4), 3),
        ("H2(Z2^2,Z/2)", cyclic_module(Z2sq, 2), 2),
        ("H3(Z2^2,Z/2)", cyclic_module(Z2sq, 2), 3),
        ("H2(Z2^2,Z/4)", cyclic_module(Z2sq, 4), 2),
        ("H3(Z2^2,Z/4)", cyclic_module(Z2sq, 4), 3),
        ("H2(S3,Z/2)", cyclic_module(S3, 2), 2),
        ("H2(S3,Z/4)", cyclic_module(S3, 4), 2),
        ("H2(S3,Z/3-sign[-1])", _s3_sign_minus_one(), 2),
        ("H2(S3,Z/3-sign[2])", s3_sign_module(3), 2),
        ("H2(Z2^3,Z/2)", cyclic_module(Z2cube, 2), 2),
        ("H3(S3,Z/2)", cyclic_module(S3, 2), 3),
    ]


RUNGS = ladder_rungs()
PAIR_CASES = [(name, ctx) for name, ctx in listing_contexts() if name.startswith("benchmark/")]


@pytest.mark.parametrize("name,module,degree", RUNGS, ids=[name for name, _, _ in RUNGS])
def test_rung_representatives_form_a_direct_sum_basis(name, module, degree, no_listing):
    H = cohomology.cohomology_group(module, degree)
    # the lattices live on the normalized cochains, the tuples without the unit
    moduli = cohomology._normalized_moduli(module, degree)
    Z, B = cohomology._lattices(module, degree)
    tuples = list(cohomology._normalized_tuples(module.group, degree))
    reps = []
    for rep in H.representatives:
        assert is_cocycle(rep)[0]
        reps.append([x for t in tuples for x in rep.value(*t)])
    _assert_direct_sum_basis(Z, B, moduli, H.invariant_factors, reps)


@pytest.mark.parametrize("name,ctx", PAIR_CASES, ids=[name for name, _ in PAIR_CASES])
def test_pair_representatives_form_a_direct_sum_basis(name, ctx, no_listing):
    F, G = ctx.field, ctx.group
    cg = pairs.enumerate_pairs(ctx).class_group
    m = F.unit_order
    # the lattices leave out the table's values at the pairs with the unit
    N = ctx.module.rank + (G.order - 1) ** 2
    H, B = pairs._pair_lattices(ctx)
    reps = []
    for rep in cg.representatives:
        assert pairs.is_kappa_pair(ctx, rep)[0]
        g1 = (rep.g1[t] for t in cohomology._normalized_tuples(G, 2))
        reps.append([F.dlog(v) for v in itertools.chain(rep.g2, g1)])
    _assert_direct_sum_basis(H, B, [m] * N, cg.invariant_factors, reps, pairs._unit_values(F))

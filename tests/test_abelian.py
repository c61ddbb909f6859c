"""Explicit finite abelian groups (the oracles' engine) against intmat.quotient."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tfalgebra import abelian, intmat
from tfalgebra.errors import NotAGroup

from lattice_reference import sparse

Z4 = [(x,) for x in range(4)]
Z12 = [(x,) for x in range(12)]


@pytest.mark.parametrize(
    "elements, subset",
    [
        (Z4, [(0,), (1,)]),  # closed under nothing: the counts give no factors
        (Z4, [(0,), (1,), (2,)]),  # its size does not divide the group order
        (Z12, [(0,), (1,), (2,), (3,)]),  # 3-torsion counts are not whole cosets
        (Z4, [(1,), (3,)]),  # misses the identity
    ],
)
def test_counting_rejects_non_subgroups(elements, subset):
    with pytest.raises(NotAGroup):
        abelian.factors_by_counting(elements, subset, (len(elements),))


def test_non_subgroup_raises_without_asserts():
    # the check must survive python -O, which strips assert statements
    code = (
        "from tfalgebra import abelian\n"
        "from tfalgebra.errors import NotAGroup\n"
        "try:\n"
        "    abelian.factors_by_counting([(x,) for x in range(4)], [(0,), (1,)], (4,))\n"
        "except NotAGroup:\n"
        "    print('raised')\n"
    )
    src = str(Path(abelian.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.stdout.strip() == "raised", out.stderr


def test_missing_generator_order_raises():
    with pytest.raises(NotAGroup):
        abelian.canonical_generators(Z4, [(0,)], (4,), [8])


def _order_modulo(vec, subgroup, moduli):
    """The least t >= 1 with t * vec in ``subgroup``."""
    t = 1
    while tuple((t * x) % m for x, m in zip(vec, moduli)) not in subgroup:
        t += 1
    return t


def test_explicit_quotient_agrees_with_intmat():
    moduli = [4, 2, 4]
    # both lattices contain diag(moduli) Z^3, which (0, 2, 0) completes
    big = intmat.hermite_mod(sparse([[1, 1, 0], [0, 0, 1], [0, 2, 0]]), 4)
    small = intmat.hermite_mod(sparse([[2, 0, 2], [0, 2, 0]]), 4)
    factors, reps, big_order, small_order = intmat.quotient(big, small, moduli)
    elements = intmat.lattice_residues(big, moduli, 64)
    subgroup = intmat.lattice_residues(small, moduli, 64)
    assert (big_order, small_order) == (len(elements), len(subgroup))
    assert abelian.factors_by_counting(elements, subgroup, moduli) == factors == [2, 4]
    explicit = abelian.canonical_generators(elements, subgroup, moduli, factors)
    # one rule: the fast route picks exactly the explicit generators
    assert reps == explicit
    span = set(subgroup)
    for gen in explicit:
        span = {tuple((a + t * b) % m for a, b, m in zip(v, gen, moduli)) for v in span for t in range(4)}
    assert span == set(elements)
    for v in explicit:
        # each generator is the smallest residue of its coset
        assert v == min(tuple((a + b) % m for a, b, m in zip(v, s, moduli)) for s in subgroup)
    # and has exactly its factor's order modulo the original subgroup, so
    # the generators form a direct-sum basis of the quotient
    assert [_order_modulo(v, set(subgroup), moduli) for v in explicit] == factors


def test_generators_have_exact_orders_in_a_product():
    # Z/2 x Z/4 modulo nothing, with (1, 1) sorted before (1, 0): (1, 1) has
    # order 2 modulo <(0, 1)>, the generator of the factor 4, but order 4 itself
    moduli = (2, 4)
    elements = [(a, b) for a in range(2) for b in range(4)]
    gens = abelian.canonical_generators(
        elements, [(0, 0)], moduli, [2, 4], key=lambda v: (v[0], v[1] != 1, v[1])
    )
    assert gens == [(1, 0), (0, 1)]
    assert [_order_modulo(g, {(0, 0)}, moduli) for g in gens] == [2, 4]

"""Explicit finite abelian groups (the oracles' engine) against intmat.quotient."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tfalgebra import abelian, intmat
from tfalgebra.errors import NotAGroup

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


def test_explicit_quotient_agrees_with_intmat():
    moduli = [4, 2, 4]
    # both lattices contain diag(moduli) Z^3, which (0, 2, 0) completes
    big = intmat.hermite_mod([[1, 1, 0], [0, 0, 1], [0, 2, 0]], 3, 4)
    small = intmat.hermite_mod([[2, 0, 2], [0, 2, 0]], 3, 4)
    factors, reps, big_order, small_order = intmat.quotient(big, small, moduli)
    elements = intmat.lattice_residues(big, moduli, 64)
    subgroup = intmat.lattice_residues(small, moduli, 64)
    assert (big_order, small_order) == (len(elements), len(subgroup))
    assert abelian.factors_by_counting(elements, subgroup, moduli) == factors == [2, 4]
    explicit = abelian.canonical_generators(elements, subgroup, moduli, factors)
    span = set(subgroup)
    for gen in explicit:
        span = {tuple((a + t * b) % m for a, b, m in zip(v, gen, moduli)) for v in span for t in range(4)}
    assert span == set(elements)
    for v in reps + explicit:
        # each representative is the smallest residue of its coset
        assert v == min(tuple((a + b) % m for a, b, m in zip(v, s, moduli)) for s in subgroup)
    for d, rep in zip(factors, reps):
        # and the fast route's has exactly its factor's order in the quotient
        orders = [t for t in range(1, d + 1) if tuple((t * x) % m for x, m in zip(rep, moduli)) in subgroup]
        assert orders[:1] == [d]

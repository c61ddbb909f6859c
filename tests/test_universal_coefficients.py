"""H^n(G, Z/m) for composite m, pinned by the universal coefficient theorem.

For the trivial module Z/m,

    H^n(G, Z/m) = Hom(H_n(G), Z/m) + Ext(H_(n-1)(G), Z/m)

(Brown, *Cohomology of Groups*, III.1), and for a cyclic group Z/a both
Hom(Z/a, Z/m) and Ext(Z/a, Z/m) are Z/gcd(a, m).  The integral homology
comes from the literature, never from a library run:

- H_1 is the abelianization of G;
- H_2 is the Schur multiplier (Karpilovsky, *The Schur Multiplier*): 0 for
  S3 and Q8, Z2 for A4 and D8;
- H_3 of S3 and Q8 is Z/|G|, since both have periodic cohomology of period
  4 (Brown, VI.9), and H_3(A4) = Z6 (Adem and Milgram, *Cohomology of
  Finite Groups*).

The table gives no H_3 for D8, so D8 is pinned in degree 2 only.  The
cocycle oracle stops long before these cases, so beyond the Z/p pins of
``test_generator_lattices`` these are the pins of the composite moduli, whose
mixed invariant factors the Hermite quotient must get right.
"""

from __future__ import annotations

from math import gcd, prod

import pytest

from tfalgebra.cohomology import cohomology_group
from tfalgebra.gmodule import cyclic_module

from test_generator_lattices import A4, D8, Q8, S3

# H_1, H_2, H_3 as lists of cyclic orders; None where the table has no value
HOMOLOGY = {
    "S3": (S3, [[2], [], [6]]),
    "Q8": (Q8, [[2, 2], [], [8]]),
    "A4": (A4, [[3], [2], [6]]),
    "D8": (D8, [[2, 2], [2], None]),
}


def _invariant_factors(orders):
    """The invariant factors, increasing, of the direct sum of cyclic groups of the given orders."""
    powers = {}
    for a in orders:
        p = 2
        while a > 1:
            if a % p == 0:
                q = 1
                while a % p == 0:
                    a, q = a // p, q * p
                powers.setdefault(p, []).append(q)
            p += 1
    for qs in powers.values():
        qs.sort(reverse=True)
    width = max(map(len, powers.values()), default=0)
    factors = [prod(qs[i] for qs in powers.values() if i < len(qs)) for i in range(width)]
    return tuple(sorted(factors))


def test_invariant_factors_of_cyclic_sums():
    assert _invariant_factors([]) == ()
    assert _invariant_factors([1, 1]) == ()
    assert _invariant_factors([2, 3]) == (6,)
    assert _invariant_factors([2, 4, 6]) == (2, 2, 12)
    assert _invariant_factors([4, 6, 9]) == (6, 36)


CASES = [
    (name, m, n)
    for name, (_, homology) in HOMOLOGY.items()
    for m in (4, 6, 12)
    for n in (2, 3)
    if homology[n - 1] is not None
]


@pytest.mark.parametrize("name,m,n", CASES, ids=[f"H{n}({name},Z/{m})" for name, m, n in CASES])
def test_cohomology_matches_the_universal_coefficient_theorem(name, m, n):
    G, homology = HOMOLOGY[name]
    # Hom(H_n, Z/m) + Ext(H_(n-1), Z/m); H_(n-1) is finite for n >= 2
    orders = [gcd(a, m) for a in homology[n - 1] + homology[n - 2]]
    assert cohomology_group(cyclic_module(G, m), n).invariant_factors == _invariant_factors(orders)

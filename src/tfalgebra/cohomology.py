"""Low-degree group cohomology of a finite group with finite coefficients.

Two independent computations of H^n = ker(d^n) / im(d^{n-1}) for n <= 3:

* :func:`cohomology_group` linearizes cochains as integer exponent vectors.
  The coboundary becomes an integer matrix acting modulo the cyclic factor
  moduli.  The cocycles are its kernel modulo the moduli and the coboundaries
  an image plus the moduli relations, both found by modular Hermite
  elimination; :func:`intmat.quotient` reads the quotient between them off
  their two Hermite bases.

* :func:`brute_force_cohomology` enumerates every cochain below a size cap,
  filters the cocycles and lists the coboundaries by walking the pointwise
  face plan of :mod:`cochains` (the walk behind :func:`cochains.coboundary`),
  and hands the explicit lists to :mod:`abelian`, which reads off the group
  structure by counting and picks generators.  It exists to validate the
  normal-form path and shares none of its linear algebra: the matrix of
  :func:`coboundary_matrix` is built separately and never from the plan.

Both return invariant factors in increasing divisibility order together with
representative cocycles, one per factor: the canonical generators of
:func:`abelian.canonical_generators`, each of exactly its factor's order and
the lexicographically smallest table in its class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm, prod

from . import abelian, intmat
from .cochains import Cochain, coboundary_coordinates, face_plan, is_cocycle
from .errors import DegreeOutOfRange, NotACocycle, TooLarge
from .gmodule import DEFAULT_ENUM_CAP, GModule


@dataclass(frozen=True)
class CohomologyGroup:
    """Invariant factors (d1 | d2 | ...) and representative cocycles."""

    module: GModule
    degree: int
    invariant_factors: tuple[int, ...]
    representatives: tuple[Cochain, ...] = field(compare=False)
    cocycle_order: int = field(compare=False, default=0)
    coboundary_order: int = field(compare=False, default=0)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def coboundary_matrix(module: GModule, degree: int) -> list[list[int]]:
    """Integer matrix of d^degree on flattened exponent vectors.

    Source coordinates run over (tuple, factor) in lexicographic tuple order;
    likewise the target.  Multiplicative inverses become -1 coefficients.
    """
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"coboundary matrix defined for degrees 0..3 (got {degree})")
    G, k = module.group, module.rank
    n = degree
    order = G.order
    src_tuples = list(G.tuples(n))
    tgt_tuples = list(G.tuples(n + 1))
    src_index = {t: i for i, t in enumerate(src_tuples)}
    rows = [[0] * (len(src_tuples) * k) for _ in range(len(tgt_tuples) * k)]
    for T, t in enumerate(tgt_tuples):
        base_r = T * k
        # leading term: action of t[0] on the tail
        S = src_index[t[1:]]
        M = module.action[t[0]]
        for i in range(k):
            for j in range(k):
                if M[i][j]:
                    rows[base_r + i][S * k + j] += M[i][j]
        # inner terms: merge adjacent slots with alternating signs
        for pos in range(1, n + 1):
            merged = t[: pos - 1] + (G.mul(t[pos - 1], t[pos]),) + t[pos + 1 :]
            S = src_index[merged]
            sign = -1 if pos % 2 == 1 else 1
            for i in range(k):
                rows[base_r + i][S * k + i] += sign
        # trailing term: drop the last slot
        S = src_index[t[:-1]]
        sign = -1 if (n + 1) % 2 == 1 else 1
        for i in range(k):
            rows[base_r + i][S * k + i] += sign
    return rows


def _moduli_vector(module: GModule, degree: int) -> list[int]:
    count = module.group.order**degree
    return list(module.moduli) * count


def _cocycle_lattice(module: GModule, degree: int) -> list[list[int]]:
    """Hermite basis of {x in Z^N : D x == 0 mod target moduli}."""
    D = coboundary_matrix(module, degree)
    N = module.rank * module.group.order**degree
    return intmat.kernel_mod(D, _moduli_vector(module, degree + 1), N)


def _boundary_lattice(module: GModule, degree: int) -> list[list[int]]:
    """Hermite basis of im(d^{degree-1}) + (moduli relations) inside Z^N."""
    mvec = _moduli_vector(module, degree)
    N = len(mvec)
    e = lcm(*module.moduli)
    gens = [[m if j == i else 0 for j in range(N)] for i, m in enumerate(mvec) if m != e]
    if degree >= 1:
        Dprev = coboundary_matrix(module, degree - 1)
        ncols = len(Dprev[0]) if Dprev else 0
        for j in range(ncols):
            gens.append([Dprev[r][j] for r in range(N)])
    return intmat.hermite_mod(gens, N, e)


def cohomology_group(module: GModule, degree: int) -> CohomologyGroup:
    """H^degree via integer normal forms; degree <= 3."""
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"cohomology implemented for degrees 0..3 (got {degree})")
    mvec = _moduli_vector(module, degree)
    if not mvec:
        # coefficients are trivial: every group vanishes
        return CohomologyGroup(module, degree, (), (), 1, 1)
    Z = _cocycle_lattice(module, degree)
    B = _boundary_lattice(module, degree)
    factors, reps, z_order, b_order = intmat.quotient(Z, B, mvec)
    cochains = []
    for vec in reps:
        c = Cochain.from_vector(module, degree, vec)
        ok, witness = is_cocycle(c)
        if not ok:
            raise NotACocycle(f"representative is not a cocycle (violated at {witness})", witness)
        cochains.append(c)
    return CohomologyGroup(
        module, degree, tuple(factors), tuple(cochains), z_order, b_order
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_cohomology(
    module: GModule, degree: int, cap: int = DEFAULT_ENUM_CAP
) -> CohomologyGroup:
    """H^degree by full enumeration; the oracle for :func:`cohomology_group`."""
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"cohomology implemented for degrees 0..3 (got {degree})")
    G, A = module.group, module
    n_tuples = G.order**degree
    total = A.size**n_tuples
    if total > cap:
        raise TooLarge(f"{total} cochains exceed the enumeration cap {cap}")
    k = A.rank
    if k == 0:
        return CohomologyGroup(module, degree, (), (), 1, 1)
    mvec = _moduli_vector(module, degree)
    plan = list(face_plan(G, degree))
    cocycles = [
        vec
        for vec in itertools.product(*(range(m) for m in mvec))
        if not any(coboundary_coordinates(A, plan, vec))
    ]

    if degree == 0:
        bset = {tuple(0 for _ in mvec)}
    else:
        prev_mvec = _moduli_vector(module, degree - 1)
        prev_total = A.size ** (G.order ** (degree - 1))
        if prev_total > cap:
            raise TooLarge(f"{prev_total} source cochains exceed the cap {cap}")
        prev_plan = list(face_plan(G, degree - 1))
        bset = {
            tuple(coboundary_coordinates(A, prev_plan, vec))
            for vec in itertools.product(*(range(m) for m in prev_mvec))
        }

    factors = abelian.factors_by_counting(cocycles, bset, mvec)
    reps = abelian.canonical_generators(cocycles, bset, mvec, factors)
    cochains = tuple(Cochain.from_vector(module, degree, r) for r in reps)
    return CohomologyGroup(
        module, degree, tuple(factors), cochains, len(cocycles), len(bset)
    )

"""Low-degree group cohomology of a finite group with finite coefficients.

Two independent computations of H^n = ker(d^n) / im(d^{n-1}) for n <= 3:

* :func:`cohomology_group` linearizes cochains as integer exponent vectors.
  The coboundary becomes an integer matrix acting modulo the cyclic factor
  moduli.  The cocycles are its kernel modulo the moduli and the coboundaries
  an image plus the moduli relations, both found by modular Hermite
  elimination; the quotient between them comes from a small Smith form.

* :func:`brute_force_cohomology` enumerates every cochain below a size cap,
  filters cocycles pointwise, and reads off the group structure by counting
  solutions of d*x = 0.  It exists to validate the normal-form path and
  shares none of its linear algebra.

Both return invariant factors in increasing divisibility order together with
representative cocycles, one per factor, canonicalized to the
lexicographically smallest table in their class when the coboundary subgroup
is small enough to enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm, prod
from operator import add, mod

from . import intmat
from .cochains import Cochain, coboundary, is_cocycle
from .errors import DegreeOutOfRange, NotACocycle, TooLarge
from .gmodule import GModule

DEFAULT_ENUM_CAP = 1 << 16
DEFAULT_COSET_CAP = 1 << 12


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


def _lex_min_in_coset(vec, subgroup, mvec):
    v = tuple(x % m for x, m in zip(vec, mvec))
    return min(tuple(map(mod, map(add, v, s), mvec)) for s in subgroup)


def cohomology_group(
    module: GModule, degree: int, coset_cap: int = DEFAULT_COSET_CAP
) -> CohomologyGroup:
    """H^degree via integer normal forms; degree <= 3."""
    if not (0 <= degree <= 3):
        raise DegreeOutOfRange(f"cohomology implemented for degrees 0..3 (got {degree})")
    mvec = _moduli_vector(module, degree)
    N = len(mvec)
    if N == 0:
        # coefficients are trivial: every group vanishes
        return CohomologyGroup(module, degree, (), (), 1, 1)
    Z = _cocycle_lattice(module, degree)
    B = _boundary_lattice(module, degree)
    factors, reps = intmat.quotient_structure(Z, B, N)
    ambient = prod(mvec)
    z_order = ambient // intmat.lattice_index(Z, N)
    b_order = ambient // intmat.lattice_index(B, N)

    subgroup = intmat.lattice_residues(B, mvec, coset_cap)
    cochains = []
    for rep in reps:
        if subgroup is not None:
            vec = _lex_min_in_coset(rep, subgroup, mvec)
        else:
            vec = tuple(x % m for x, m in zip(rep, mvec))
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


def _pointwise_terms(module: GModule, degree: int):
    """For each target tuple: (acting element, source index list with signs)."""
    G = module.group
    n = degree
    src_index = {t: i for i, t in enumerate(G.tuples(n))}
    plan = []
    for t in G.tuples(n + 1):
        terms = []
        for pos in range(1, n + 1):
            merged = t[: pos - 1] + (G.mul(t[pos - 1], t[pos]),) + t[pos + 1 :]
            terms.append((src_index[merged], -1 if pos % 2 == 1 else 1))
        terms.append((src_index[t[:-1]], -1 if (n + 1) % 2 == 1 else 1))
        plan.append((t[0], src_index[t[1:]], terms))
    return plan


def brute_force_cohomology(
    module: GModule,
    degree: int,
    cap: int = DEFAULT_ENUM_CAP,
    coset_cap: int = DEFAULT_COSET_CAP,
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
    plan = _pointwise_terms(module, degree)
    moduli, act = A.moduli, A.action

    def is_cocycle_vec(vec) -> bool:
        for lead, lead_src, terms in plan:
            M = act[lead]
            for i in range(k):
                acc = sum(M[i][j] * vec[lead_src * k + j] for j in range(k))
                for src, sign in terms:
                    acc += sign * vec[src * k + i]
                if acc % moduli[i] != 0:
                    return False
        return True

    cocycles = [
        vec
        for vec in itertools.product(*(range(m) for m in mvec))
        if is_cocycle_vec(vec)
    ]

    if degree == 0:
        bset = {tuple(0 for _ in mvec)}
    else:
        prev_mvec = _moduli_vector(module, degree - 1)
        prev_total = A.size ** (G.order ** (degree - 1))
        if prev_total > cap:
            raise TooLarge(f"{prev_total} source cochains exceed the cap {cap}")
        bset = set()
        for vec in itertools.product(*(range(m) for m in prev_mvec)):
            c = Cochain.from_vector(module, degree - 1, vec)
            bset.add(tuple(coboundary(c).to_vector()))

    q_order = len(cocycles) // len(bset)
    factors = _factors_by_counting(cocycles, bset, mvec, q_order)

    reps = _pick_generators(cocycles, bset, mvec, factors, coset_cap)
    cochains = tuple(Cochain.from_vector(module, degree, r) for r in reps)
    return CohomologyGroup(
        module, degree, tuple(factors), cochains, len(cocycles), len(bset)
    )


def _factors_by_counting(cocycles, bset, mvec, q_order) -> list[int]:
    """Invariant factors of (cocycles)/(bset) from annihilator counts alone.

    For each prime p the numbers a_i = log_p #{q : p^i q = 0} determine the
    multiplicity of every cyclic p-power factor; factors are then aligned
    largest-with-largest across primes.
    """
    from .fields import factorize

    if q_order == 1:
        return []
    by_prime: dict[int, list[int]] = {}
    for p, e_top in factorize(q_order).items():
        counts = [0]  # counts[i] = log_p #{q in quotient : p^i q = 0}
        while True:
            d = p ** len(counts)
            killed = sum(
                1
                for z in cocycles
                if tuple((d * x) % m for x, m in zip(z, mvec)) in bset
            )
            assert killed % len(bset) == 0
            a_i = killed // len(bset)
            e = 0
            while p**e < a_i:
                e += 1
            assert p**e == a_i, "annihilator count is not a power of p"
            counts.append(e)
            if e == counts[-2] or len(counts) > e_top + 1:
                break
        # r_i = number of cyclic p-factors of order >= p^i
        rs = [counts[i] - counts[i - 1] for i in range(1, len(counts))]
        exps = []
        for i, r in enumerate(rs, start=1):
            nxt = rs[i] if i < len(rs) else 0
            exps.extend([i] * (r - nxt))
        by_prime[p] = sorted(exps, reverse=True)
    # align largest-with-largest across primes to get invariant factors
    width = max(len(v) for v in by_prime.values())
    descending = []
    for i in range(width):
        d = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        descending.append(d)
    return sorted(descending)


def _pick_generators(cocycles, bset, mvec, factors, coset_cap):
    """Lexicographically canonical generators matching the invariant factors."""
    if not factors:
        return []
    sub = set(bset)
    reps = []
    for d in sorted(factors, reverse=True):
        chosen = None
        for z in cocycles:
            if z in sub:
                continue
            # order of z in the current quotient must be exactly d
            t = 1
            w = z
            while w not in sub:
                w = tuple((a + b) % m for a, b, m in zip(w, z, mvec))
                t += 1
            if t == d:
                chosen = z
                break
        assert chosen is not None, "no generator of the required order found"
        reps.append(chosen)
        sub = _close_subgroup(sub, chosen, mvec)
    # ascending order to match the normal-form path; canonicalize in B-coset
    reps.reverse()
    if len(bset) <= coset_cap:
        reps = [
            min(tuple((a + b) % m for a, b, m in zip(r, s, mvec)) for s in bset)
            for r in reps
        ]
    return reps


def _close_subgroup(sub, new_gen, mvec):
    """<sub, new_gen> for a subgroup ``sub`` given as a set of residue tuples."""
    out = set(sub)
    shift = new_gen
    while shift not in sub:
        out.update(
            tuple((a + b) % m for a, b, m in zip(s, shift, mvec)) for s in sub
        )
        shift = tuple((a + b) % m for a, b, m in zip(shift, new_gen, mvec))
    return out

"""Seeded sweep: both pair routes agree on small random contexts.

Seed i is the i-th combination of a group (Z2, Z3, Z4 or Z2^2), a module
(Z/m for m <= 4 acting through the units of Z/m, or Z/2 x Z/2 with the
generators swapped by a homomorphism onto Z2) and a field F3, F5 or F7
whose brute-force candidate count is within the enumeration cap, so the
oracle always runs.  The seed draws the action, stores every action entry
either reduced or shifted down by its modulus (-1 as well as 2 on Z/3), and
draws the twisting cocycle: a normalized representative of a random class
of H^3 times the coboundary of a random normalized 2-cochain.  The same
contexts carry the round trip: build, verify, extract, serialize and twist.
"""

from __future__ import annotations

import itertools
import json
import random
from math import gcd, prod

import pytest

from tfalgebra.algebra import AlgebraContext
from tfalgebra.cochains import Cochain, coboundary, normalize_cocycle
from tfalgebra.cohomology import cohomology_group
from tfalgebra.constructions import build_simple, coboundary_transform, extract_kappa_pair
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import DEFAULT_ENUM_CAP, GModule
from tfalgebra.groups import cyclic_group, direct_product
from tfalgebra.pairs import coboundary_pair, enumerate_pairs, pair_mul, pairs_equivalent
from tfalgebra.serialize import dump_json, emit_instance, parse_instance
from tfalgebra.verify import verify

GROUPS = (
    ("Z2", cyclic_group(2)),
    ("Z3", cyclic_group(3)),
    ("Z4", cyclic_group(4)),
    ("Z2^2", direct_product(cyclic_group(2), cyclic_group(2))),
)

# (moduli, the automorphisms an element may act by)
MODULES = [((m,), [((u,),) for u in range(m) if gcd(u, m) == 1]) for m in (1, 2, 3, 4)]
MODULES.append(((2, 2), [((1, 0), (0, 1)), ((0, 1), (1, 0))]))

PRIMES = (3, 5, 7)


def _homomorphisms(G, moduli, images):
    """Every map G -> images that respects the product modulo the row moduli."""
    k = len(moduli)

    def matmul(X, Y):
        return tuple(
            tuple(sum(X[i][t] * Y[t][j] for t in range(k)) % moduli[i] for j in range(k))
            for i in range(k)
        )

    out = []
    for values in itertools.product(images, repeat=G.order):
        act = dict(zip(G.elements(), values))
        if all(matmul(act[a], act[b]) == act[G.mul(a, b)] for a, b in G.tuples(2)):
            out.append(act)
    return out


def _candidate_bound(G, moduli, p):
    """An upper bound on the brute-force candidate count: tables times characters."""
    return (p - 1) ** ((G.order - 1) ** 2) * prod(gcd(m, p - 1) for m in moduli)


# every (group, module, field) whose brute-force route fits under the cap,
# with the actions it admits; seed i draws the rest of context i
FEASIBLE = [
    (gname, G, moduli, homs, p)
    for gname, G in GROUPS
    for moduli, images in MODULES
    for homs in [_homomorphisms(G, moduli, images)]
    for p in PRIMES
    if _candidate_bound(G, moduli, p) <= DEFAULT_ENUM_CAP
]
SEEDS = range(len(FEASIBLE))


def _normalized_2cochain(A, rng):
    free = [(a, b) for a, b in A.group.tuples(2) if A.group.identity not in (a, b)]
    return Cochain(A, 2, {key: tuple(rng.randrange(m) for m in A.moduli) for key in free})


def _draw(seed):
    """(description, context) for one seed."""
    rng = random.Random(seed)
    gname, G, moduli, homs, p = FEASIBLE[seed]
    encoded = {
        g: [[rng.choice((x, x - m)) for x in row] for row, m in zip(M, moduli)]
        for g, M in rng.choice(homs).items()
    }
    A = GModule(G, moduli, action=encoded)
    kappa = Cochain.trivial(A, 3)
    H3 = cohomology_group(A, 3)
    for rep, d in zip(H3.representatives, H3.invariant_factors):
        for _ in range(rng.randrange(d)):
            kappa = kappa.mul(rep)
    kappa, _ = normalize_cocycle(kappa)
    kappa = kappa.mul(coboundary(_normalized_2cochain(A, rng)))
    module = " x ".join(f"Z/{m}" for m in moduli)
    where = f"seed {seed}: {gname}, {module}, action {encoded}, F{p}"
    return where, AlgebraContext(G, A, kappa, PrimeField(p))


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_routes_agree_on_a_seeded_context(seed):
    where, ctx = _draw(seed)
    fast = enumerate_pairs(ctx)
    slow = enumerate_pairs(ctx, method="brute-force")
    # factors, representatives and both orders
    assert fast.class_group == slow.class_group, where
    assert fast.pairs == slow.pairs, where
    assert fast.coboundary_pairs == slow.coboundary_pairs, where

    rng = random.Random(f"{seed}:psi")
    F, G = ctx.field, ctx.group
    p = rng.choice(slow.pairs)
    psi = {a: F.one if a == G.identity else rng.choice(F.units()) for a in G.elements()}
    q = pair_mul(ctx, p, coboundary_pair(ctx, psi))
    found = pairs_equivalent(ctx, p, q)
    assert found is not None, where
    assert pair_mul(ctx, q, coboundary_pair(ctx, found)) == p, where


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_on_a_seeded_context(seed):
    where, ctx = _draw(seed)
    rng = random.Random(f"{seed}:round-trip")
    pair = rng.choice(enumerate_pairs(ctx).pairs)
    V = build_simple(ctx, pair)
    assert verify(V).passed, where
    assert extract_kappa_pair(V)[0] == pair, where

    doc = emit_instance(ctx, algebra=V, pair=pair)
    inst = parse_instance(json.loads(dump_json(doc)))
    assert inst.context == ctx and inst.pair == pair, where
    W = inst.algebra
    assert W.context == ctx and W.dims == V.dims and W.mult == V.mult, where
    assert W.a_action == V.a_action and W.unit == V.unit, where
    assert W.eta == V.eta and W.phi == V.phi, where

    omega = _normalized_2cochain(ctx.module, rng)
    W = coboundary_transform(V, omega)
    assert verify(W).passed, where
    assert W.context.kappa == coboundary(omega).mul(ctx.kappa), where

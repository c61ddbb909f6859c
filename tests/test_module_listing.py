"""Only the code that reads every element of A lists it.

``GModule`` validates a module on its matrices, and the pair check reads
the character on the generators and on the values of kappa.  Two seeded
sweeps keep the element walks they replaced as references: the walk that
checked each action for a bijection, and ``pair_reference.witness_by_walk``,
which checks the character for G-invariance element by element.  ``GModule.elements()`` is
the one lister of A and the one size check; the last tests take a module
past its cap, Z/7[S3] with 7^6 = 117,649 elements, through the library and
the ``tfa`` commands.
"""

from __future__ import annotations

import random

import pytest

from tfalgebra.algebra import (
    AlgebraContext,
    KappaPair,
    TFAlgebra,
    is_kappa_pair,
    require_kappa_pair,
    trivial_context,
)
from tfalgebra.cli import main
from tfalgebra.cochains import Cochain, coboundary
from tfalgebra.cohomology import _generating_set, cohomology_group
from tfalgebra.constructions import build_simple
from tfalgebra.errors import NotAModule, TooLarge
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import DEFAULT_ENUM_CAP, GModule
from tfalgebra.groups import cyclic_group, direct_product, symmetric_group
from tfalgebra.pairs import trivial_pair
from tfalgebra.serialize import dump_json, emit_instance

from pair_reference import witness_by_walk

GROUPS = (
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    direct_product(cyclic_group(2), cyclic_group(2)),
    symmetric_group(3),
)
MODULI = (1, 2, 3, 4, 6)


def _matmul(M, N, moduli):
    k = len(moduli)
    return [[sum(M[i][t] * N[t][j] for t in range(k)) % moduli[i] for j in range(k)] for i in range(k)]


def _draw_action(rng, G, moduli):
    """Random images of a generating set, spread over G along the Cayley graph.

    An image is a matrix of random entries, or a random permutation of the
    factors with random units on it.  Where two paths reach one element, the
    first wins, so the draw is a homomorphism only by chance.
    """
    k = len(moduli)
    images = {}
    for s in _generating_set(G):
        if rng.random() < 0.5:
            images[s] = [[rng.randrange(m) for _ in range(k)] for m in moduli]
        else:
            perm = rng.sample(range(k), k)
            images[s] = [
                [rng.choice((1, m - 1)) % m if j == perm[i] else 0 for j in range(k)]
                for i, m in enumerate(moduli)
            ]
    reached = [G.identity]
    action = {G.identity: [[int(i == j) for j in range(k)] for i in range(k)]}
    for a in reached:
        for s, M in images.items():
            b = G.mul(a, s)
            if b not in action:
                action[b] = _matmul(action[a], M, moduli)
                reached.append(b)
    return action


def _bijective_by_walk(A):
    """The reference: every action map is a bijection, checked on all of A."""
    elems = list(A.elements())
    return all(len({A.act(g, x) for x in elems}) == A.size for g in A.group.elements())


def test_every_accepted_module_acts_by_bijections():
    rng = random.Random(20260)
    accepted = rejected = 0
    for _ in range(1500):
        G = rng.choice((GROUPS[0], GROUPS[2], GROUPS[3], GROUPS[4]))
        moduli = tuple(rng.choice(MODULI) for _ in range(rng.randint(1, 3)))
        try:
            A = GModule(G, moduli, _draw_action(rng, G, moduli))
        except NotAModule:
            rejected += 1
            continue
        accepted += 1
        assert _bijective_by_walk(A), (G, moduli, A.action)
    assert accepted >= 100 and rejected >= 100, (accepted, rejected)


def _draw_module(rng, G):
    """The first drawn action that ``GModule`` accepts; the trivial one after 50 tries."""
    moduli = tuple(rng.choice(MODULI) for _ in range(rng.randint(1, 3)))
    for _ in range(50):
        try:
            return GModule(G, moduli, _draw_action(rng, G, moduli))
        except NotAModule:
            pass
    return GModule(G, moduli)


def _draw_pair(rng, G, A, F):
    units = F.units()
    g2 = []
    for m in A.moduli:
        roll = rng.random()
        if roll < 0.9:
            g2.append(rng.choice([u for u in units if F.power(u, m) == F.one]))
        elif roll < 0.95:
            g2.append(rng.choice(units))
        else:
            g2.append(0)
    g1 = {(a, b): 1 for a in G.elements() for b in G.elements()}
    roll = rng.random()
    free = [(a, b) for a, b in g1 if G.identity not in (a, b)]
    if roll < 0.3:
        g1.update((key, rng.choice(units)) for key in free)
    elif roll < 0.35:
        g1.update((key, rng.choice(units)) for key in g1)
    elif roll < 0.4:
        g1[rng.choice(list(g1))] = rng.choice((0, F.p))
    return KappaPair(g1, tuple(x + F.p * rng.randrange(2) for x in g2))


def test_pair_witnesses_match_the_element_walk():
    rng = random.Random(4000)
    fields = (PrimeField(5), PrimeField(7), PrimeField(13))
    kinds, twisted = {}, 0
    for _ in range(1500):
        G = rng.choice(GROUPS)
        A = _draw_module(rng, G)
        F = rng.choice(fields)
        omega = {
            (a, b): tuple(rng.randrange(m) for m in A.moduli)
            for a in G.elements()
            for b in G.elements()
            if G.identity not in (a, b) and rng.random() < 0.5
        }
        kappa = coboundary(Cochain(A, 2, omega)) if rng.random() < 0.7 else Cochain.trivial(A, 3)
        ctx = AlgebraContext(G, A, kappa, F)
        pair = _draw_pair(rng, G, A, F)
        ok, witness = is_kappa_pair(ctx, pair)
        assert witness == witness_by_walk(ctx, pair) and ok is (witness is None), (A, pair)
        twisted += not A.has_trivial_action()
        kind = witness[0] if witness else "pass"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("g2-invariance", 0) >= 100, kinds
    assert twisted >= 500, twisted
    assert kinds.get("compatibility", 0) and kinds.get("pass", 0), kinds


# -- a module past the listing cap -------------------------------------------------

S3 = symmetric_group(3)


def _free_module(m):
    """Z/m[S3]: g sends the basis vector of x to that of gx."""
    n = S3.order
    action = {g: [[int(S3.mul(g, x) == y) for x in range(n)] for y in range(n)] for g in range(n)}
    return GModule(S3, (m,) * n, action)


def test_a_module_past_the_cap_is_refused_only_where_it_is_listed():
    A = _free_module(7)
    assert A.size == 7**6 > DEFAULT_ENUM_CAP
    assert cohomology_group(A, 0).invariant_factors == (7,)
    assert cohomology_group(A, 2).invariant_factors == ()
    ctx = trivial_context(S3, A, PrimeField(5))
    pair = trivial_pair(ctx)
    assert require_kappa_pair(ctx, pair) == pair
    with pytest.raises(TooLarge, match=f"size {7**6} .* cap {DEFAULT_ENUM_CAP}"):
        A.elements()
    with pytest.raises(TooLarge, match=str(7**6)):
        build_simple(ctx, pair)
    n = S3.order
    with pytest.raises(TooLarge, match=str(7**6)):
        TFAlgebra(ctx, [0] * n, {(a, b): [] for a in range(n) for b in range(n)}, {}, [], [], {})
    # the cap is inclusive: 2^16 elements still list
    assert sum(1 for _ in GModule(S3, (2,) * 16).elements()) == DEFAULT_ENUM_CAP


def test_the_commands_past_the_cap(tmp_path, capsys):
    ctx = trivial_context(S3, _free_module(7), PrimeField(5))
    doc = emit_instance(ctx)
    path = tmp_path / "z7s3.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    assert main(["cohomology", str(path), "--degree", "0"]) == 0
    assert "H^0: Z/7" in capsys.readouterr().out
    assert main(["classify", str(path)]) == 2
    assert str(7**6) in capsys.readouterr().err
    # the algebra parser lists A before it reads a_action
    n = S3.order
    doc["algebra"] = {
        "dims": [0] * n,
        "mult": [[[] for _ in range(n)] for _ in range(n)],
        "a_action": [],
        "unit": [],
        "eta": [],
        "phi": [[[] for _ in range(n)] for _ in range(n)],
    }
    path.write_text(dump_json(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert str(7**6) in capsys.readouterr().err

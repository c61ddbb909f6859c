"""Golden verifier reports: every tag, verdict, witness and detail, frozen.

The fixture ``verify_golden.json`` holds ``verify(V).to_summary()`` for

* the ``samples`` zoo (one algebra over the rationals among them);
* the mutation suite's mutants and their bases;
* random algebras of mixed dimensions (zero components, non-square
  conjugation blocks, dimensions that differ on inverse components) over
  random normalized 3-cochains, which fail early in almost every check;
* seeded single-entry perturbations of ``mult``, ``a_action``, ``phi``,
  ``eta`` and ``unit`` on seven bases: simple algebras over S3 (Z/2, F5,
  plain and sign-twisted; the Z/3 sign module, F7) and over Z4 x Z2
  (Z/4, F5), three of them twisted by a 2-cochain, and three
  multi-dimensional algebras with zero components, two-dimensional blocks
  and rational entries.

Perturbed values include unreduced representatives (``p``, ``p + 1``,
``-1``), so the reports also pin that the verifier compares entries as
residues: every report equals the report of the same algebra with each
stored entry reduced.

Regenerate the fixture only from a verifier whose reports are trusted::

    PYTHONPATH=src:tests python tests/test_verify_golden.py
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mutants import build_mutants, edit_action, edit_eta, edit_mult, edit_phi, edit_unit
from tfalgebra.algebra import AlgebraContext, TFAlgebra, trivial_context
from tfalgebra.cochains import Cochain
from tfalgebra.constructions import build_simple, coboundary_transform
from tfalgebra.fields import PrimeField, RationalField
from tfalgebra.gmodule import GModule, cyclic_module
from tfalgebra.groups import cyclic_group, direct_product, symmetric_group
from tfalgebra.linalg import Matrix
from tfalgebra.pairs import KappaPair, coboundary_pair
from tfalgebra.samples import (
    dual_number_group_ring,
    graded_truncated_polynomial_algebra,
    product_field_swap_algebra,
    scalar_field_algebra,
    truncated_polynomial_algebra,
)
from tfalgebra.verify import verify

FIXTURE = Path(__file__).with_name("verify_golden.json")
PERTURBATIONS_PER_BASE = 40
KINDS = ("mult", "a_action", "phi", "eta", "unit")

F5 = PrimeField(5)
F3 = PrimeField(3)
Q = RationalField()


def _sign_cocycle(A):
    """The degree-3 class of Z/2 pulled back along the sign map of S3."""
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    table = {
        (a, b, c): (int(odd[a] and odd[b] and odd[c]),)
        for a, b, c in A.group.tuples(3)
    }
    return Cochain(A, 3, table)


def _simple(ctx, g2, rng):
    """build_simple on a seeded coboundary g1 and the character values g2."""
    G, F = ctx.group, ctx.field
    psi = {a: F.one if a == G.identity else rng.choice(F.units()) for a in G.elements()}
    return build_simple(ctx, KappaPair(coboundary_pair(ctx, psi).g1, g2))


def _twisted(V, rng):
    """V twisted by a seeded normalized 2-cochain: kappa becomes a coboundary."""
    A = V.context.module
    e = A.group.identity
    table = {
        (a, b): tuple(rng.randrange(m) for m in A.moduli)
        for a, b in A.group.tuples(2)
        if a != e and b != e
    }
    return coboundary_transform(V, Cochain(A, 2, table))


def _sign_module(S3, m):
    """Z/m with the odd permutations of S3 acting by -1."""
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    return GModule(S3, (m,), action={g: [[m - 1 if odd[g] else 1]] for g in S3.elements()})


def _random_algebra(group, module, field, dims, rng):
    """Every stored entry drawn at random, over a random normalized 3-cochain."""
    G = group
    e = G.identity
    table = {
        t: tuple(rng.randrange(m) for m in module.moduli)
        for t in G.tuples(3)
        if e not in t
    }
    ctx = AlgebraContext(G, module, Cochain(module, 3, table), field)
    values = _values(field, "a_action")

    def block(n, m):
        return Matrix(field, [[rng.choice(values) for _ in range(m)] for _ in range(n)], ncols=m)

    mult = {
        (a, b): [
            [[rng.choice(values) for _ in range(dims[G.mul(a, b)])] for _ in range(dims[b])]
            for _ in range(dims[a])
        ]
        for a, b in G.tuples(2)
    }
    a_action = {(a, x): block(dims[a], dims[a]) for a in G.elements() for x in module.elements()}
    phi = {(b, a): block(dims[a], dims[G.conj(b, a)]) for b, a in G.tuples(2)}
    unit = [rng.choice(values) for _ in range(dims[e])]
    return TFAlgebra(ctx, dims, mult, a_action, unit, block(dims[e], dims[e]), phi)


def random_algebras():
    rng = random.Random("verify-golden-random")
    S3, Z4 = symmetric_group(3), cyclic_group(4)
    return [
        ("random/S3,Z/3 sign,F7,dims=2,1,0,1,1,2",
         _random_algebra(S3, _sign_module(S3, 3), PrimeField(7), (2, 1, 0, 1, 1, 2), rng)),
        ("random/S3,Z/2,F5,dims=1,1,1,1,1,1",
         _random_algebra(S3, cyclic_module(S3, 2), F5, (1,) * 6, rng)),
        ("random/S3,Z/2,F3,dims=1,0,1,2,1,0",
         _random_algebra(S3, cyclic_module(S3, 2), F3, (1, 0, 1, 2, 1, 0), rng)),
        ("random/Z4,Z/2,Q,dims=2,1,0,1",
         _random_algebra(Z4, cyclic_module(Z4, 2), Q, (2, 1, 0, 1), rng)),
        ("random/Z4,Z/4,F5,dims=1,2,1,1",
         _random_algebra(Z4, cyclic_module(Z4, 4), F5, (1, 2, 1, 1), rng)),
        ("random/Z4,Z/2,F5,dims=0,1,1,1",
         _random_algebra(Z4, cyclic_module(Z4, 2), F5, (0, 1, 1, 1), rng)),
    ]


def perturbation_bases():
    rng = random.Random("verify-golden-bases")
    S3 = symmetric_group(3)
    Z2_s3 = cyclic_module(S3, 2)
    Z4xZ2 = direct_product(cyclic_group(4), cyclic_group(2))
    plain = trivial_context(S3, Z2_s3, F5)
    signed = AlgebraContext(S3, Z2_s3, _sign_cocycle(Z2_s3), F5)
    klein = trivial_context(Z4xZ2, cyclic_module(Z4xZ2, 4), F5)
    return [
        ("S3,Z/2,F5,twisted-by-omega", _twisted(_simple(plain, (4,), rng), rng)),
        ("S3,Z/2,F5,sign-twisted", _simple(signed, (1,), rng)),
        ("Z4xZ2,Z/4,F5,twisted-by-omega", _twisted(_simple(klein, (2,), rng), rng)),
        ("S3,Z/3 sign,F7,twisted-by-omega",
         _twisted(_simple(trivial_context(S3, _sign_module(S3, 3), PrimeField(7)), (1,), rng), rng)),
        ("graded-truncated-poly,Z3,F3,n=3", graded_truncated_polynomial_algebra(F3, cyclic_group(3), 3)),
        ("dual-number-group-ring,F5", dual_number_group_ring(F5)),
        ("truncated-poly,Q,n=2", truncated_polynomial_algebra(Q, 2)),
    ]


def _values(F, kind):
    if isinstance(F, PrimeField):
        p = F.p
        # p itself is zero in F_p but not as an integer; it is kept out of
        # the blocks whose rank or inverse the verifier takes
        return list(range(p)) + [p + 1, -1] + ([p] if kind in ("mult", "unit") else [])
    return [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)]


def _positions(V, kind):
    G, A = V.context.group, V.context.module
    e = G.identity
    if kind == "mult":
        return [
            ((a, b), i, j, t)
            for a in G.elements()
            for b in G.elements()
            for i in range(V.dims[a])
            for j in range(V.dims[b])
            for t in range(V.dims[G.mul(a, b)])
        ]
    if kind == "a_action":
        return [
            ((a, x), i, j)
            for a in G.elements()
            for x in A.elements()
            for i in range(V.dims[a])
            for j in range(V.dims[a])
        ]
    if kind == "phi":
        return [
            ((b, a), i, j)
            for b in G.elements()
            for a in G.elements()
            for i in range(V.dims[a])
            for j in range(V.dims[G.conj(b, a)])
        ]
    if kind == "eta":
        return [(i, j) for i in range(V.dims[e]) for j in range(V.dims[e])]
    return [(i,) for i in range(V.dims[e])]


def _current(V, kind, pos):
    if kind == "mult":
        key, i, j, t = pos
        return V.mult[key][i][j][t]
    if kind == "a_action":
        key, i, j = pos
        return V.a_action[key].rows[i][j]
    if kind == "phi":
        key, i, j = pos
        return V.phi[key].rows[i][j]
    if kind == "eta":
        return V.eta.rows[pos[0]][pos[1]]
    return V.unit[pos[0]]


EDITS = {
    "mult": edit_mult,
    "a_action": edit_action,
    "phi": edit_phi,
    "eta": lambda V, i, j, value: edit_eta(V, i, j, value),
    "unit": edit_unit,
}


def perturbations(name, V):
    rng = random.Random(f"verify-golden:{name}")
    for k in range(PERTURBATIONS_PER_BASE):
        kind = KINDS[k % len(KINDS)]
        positions = _positions(V, kind)
        if not positions:
            continue
        pos = rng.choice(positions)
        old = _current(V, kind, pos)
        value = rng.choice([v for v in _values(V.context.field, kind) if v != old])
        yield f"{name}/{k}:{kind}{pos!r}={value}", EDITS[kind](V, *pos, value)


def golden_cases():
    zoo = [
        ("zoo/scalar,F5", scalar_field_algebra(F5)),
        ("zoo/scalar,Q", scalar_field_algebra(Q)),
        ("zoo/truncated-poly,F5,n=1", truncated_polynomial_algebra(F5, 1)),
        ("zoo/truncated-poly,F5,n=3", truncated_polynomial_algebra(F5, 3)),
        ("zoo/truncated-poly,Q,n=2", truncated_polynomial_algebra(Q, 2)),
        ("zoo/dual-number-group-ring,F5", dual_number_group_ring(F5)),
        ("zoo/product-field-swap,F5", product_field_swap_algebra(F5)),
        ("zoo/graded-truncated-poly,Z2,F3,n=3", graded_truncated_polynomial_algebra(F3, cyclic_group(2), 3)),
        ("zoo/graded-truncated-poly,Z3,F3,n=3", graded_truncated_polynomial_algebra(F3, cyclic_group(3), 3)),
    ]
    yield from zoo
    for m in build_mutants():
        yield f"mutant/{m.target}/base", m.base
        yield f"mutant/{m.target}/mutated", m.mutated
    yield from random_algebras()
    for name, V in perturbation_bases():
        yield f"base/{name}", V
        yield from perturbations(name, V)


def _summary(V):
    # a JSON round trip turns witness tuples into the lists the fixture holds
    return json.loads(json.dumps(verify(V).to_summary()))


CASES = list(golden_cases())


@functools.cache
def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    golden = _golden()
    assert sorted(golden) == sorted(name for name, _ in CASES)
    assert len(CASES) == len({name for name, _ in CASES})
    # the perturbations reach failing reports of every kind, not only passes
    statuses = {golden[name]["status"] for name, _ in CASES}
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("name,V", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, V):
    assert _summary(V) == _golden()[name]


def _reduced(V):
    """V with every stored entry replaced by its residue in the field."""
    F = V.context.field

    def reduced(rows):
        return [[F.add(F.zero, x) for x in row] for row in rows]

    def block(M):
        return Matrix(F, reduced(M.rows), ncols=M.ncols)

    return V.replace(
        mult={k: [reduced(row) for row in t] for k, t in V.mult.items()},
        a_action={k: block(M) for k, M in V.a_action.items()},
        phi={k: block(M) for k, M in V.phi.items()},
        eta=block(V.eta),
        unit=reduced([V.unit])[0],
    )


def test_reports_do_not_depend_on_stored_representatives():
    changed = [name for name, V in CASES if _summary(V) != _summary(_reduced(V))]
    assert not changed


def _write_fixture():
    lines = [
        f"{json.dumps(name)}: {json.dumps(_summary(V), separators=(',', ':'))}"
        for name, V in CASES
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()

"""The explicit pair listing of the normal-form route: built only when read.

``classify_simple`` needs the quotient of the pair group by its coboundary
pairs, not the pairs themselves, so ``enumerate_pairs`` lists the pair
group and its coboundary subgroup only when ``pairs`` or
``coboundary_pairs`` is first read.  These tests count ``KappaPair``
constructions and ``intmat.lattice_residues`` calls to pin that, and compare
the listings with the frozen digests in ``pairs_listing_golden.json`` on every
in-cap context of ``test_pairs.py`` and of the ``pairs-classify``
benchmark (the one out-of-cap benchmark context pins ``None``).

Regenerate the fixture only from a listing that is trusted::

    PYTHONPATH=src:tests python tests/test_pairs_listing.py
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from tfalgebra import intmat
from tfalgebra.algebra import AlgebraContext, trivial_context
from tfalgebra.cochains import Cochain
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import cyclic_module, trivial_module
from tfalgebra.groups import cyclic_group, direct_product, symmetric_group
from tfalgebra.pairs import KappaPair, classify_simple, enumerate_pairs

from test_constructions import context_I2
from test_pairs import enumeration_contexts

FIXTURE = Path(__file__).with_name("pairs_listing_golden.json")


def _sign_cocycle(A):
    """The degree-3 class of Z/2 pulled back along the sign map of S3."""
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    table = {(a, b, c): (int(odd[a] and odd[b] and odd[c]),) for a, b, c in A.group.tuples(3)}
    return Cochain(A, 3, table)


def s3_z2_f7():
    S3 = symmetric_group(3)
    return trivial_context(S3, cyclic_module(S3, 2), PrimeField(7))


def listing_contexts():
    """(name, context): the pair-test contexts, then the benchmark's five."""
    out = [(f"enumeration/{i}", ctx) for i, ctx in enumerate(enumeration_contexts())]
    out.append(("acceptance/I2", context_I2()))
    for G, name, p in (
        (cyclic_group(3), "Z3", 7),
        (cyclic_group(4), "Z4", 5),
        (symmetric_group(3), "S3", 3),
        (symmetric_group(3), "S3", 5),
    ):
        out.append((f"bridge/{name},F{p}", trivial_context(G, trivial_module(G), PrimeField(p))))
    S3, Z4 = symmetric_group(3), cyclic_group(4)
    A = cyclic_module(S3, 2)
    out += [
        ("benchmark/Z4,Z/2,F5", trivial_context(Z4, cyclic_module(Z4, 2), PrimeField(5))),
        ("benchmark/S3,Z/2,F5", trivial_context(S3, A, PrimeField(5))),
        ("benchmark/S3,Z/2,F7", s3_z2_f7()),
        ("benchmark/S3,Z/2,F5,sign-twisted", AlgebraContext(S3, A, _sign_cocycle(A), PrimeField(5))),
    ]
    Z4xZ2 = direct_product(Z4, cyclic_group(2))
    out.append(
        ("benchmark/Z4xZ2,Z/4,F5", trivial_context(Z4xZ2, cyclic_module(Z4xZ2, 4), PrimeField(5)))
    )
    return out


def _digest(listed):
    """[count, sha256 of every pair's g2 and sorted g1 items in listed order], or None."""
    if listed is None:
        return None
    if not isinstance(listed, tuple) or not all(isinstance(p, KappaPair) for p in listed):
        raise TypeError("a listing is a tuple of KappaPair")
    text = repr([(p.g2, sorted(p.g1.items())) for p in listed])
    return [len(listed), hashlib.sha256(text.encode("ascii")).hexdigest()]


def _summary(ctx):
    enum = enumerate_pairs(ctx)
    return {"pairs": _digest(enum.pairs), "coboundary_pairs": _digest(enum.coboundary_pairs)}


CASES = listing_contexts()


@functools.cache
def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_context():
    assert sorted(_golden()) == sorted(name for name, _ in CASES)
    assert len(CASES) == len({name for name, _ in CASES})


@pytest.mark.parametrize("name,ctx", CASES, ids=[name for name, _ in CASES])
def test_listing_matches_golden(name, ctx):
    assert _summary(ctx) == _golden()[name]


@pytest.fixture
def constructions(monkeypatch):
    """A one-element list counting KappaPair constructions while the test runs."""
    count = [0]
    init = KappaPair.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(KappaPair, "__init__", counting_init)
    return count


def test_classify_builds_no_listing(constructions):
    # |H| = 15552 and |B| = 3888 here; classify_simple reads neither listing,
    # so it builds only the representatives and the products of their powers
    result = classify_simple(s3_z2_f7())
    assert result.class_group.pair_group_order == 15552
    assert result.class_group.coboundary_order == 3888
    assert constructions[0] < 100


def test_listing_is_built_once_when_read(constructions):
    enum = enumerate_pairs(s3_z2_f7())
    constructions[0] = 0
    pairs = enum.pairs
    assert len(pairs) == constructions[0] == 15552
    assert enum.pairs is pairs
    assert constructions[0] == 15552
    assert len(enum.coboundary_pairs) == 3888
    assert constructions[0] == 15552 + 3888
    with pytest.raises(AttributeError):
        enum.pairs = ()


@pytest.fixture
def residue_listings(monkeypatch):
    """A one-element list counting intmat.lattice_residues calls while the test runs."""
    count = [0]
    listing = intmat.lattice_residues

    def counting_listing(*args, **kwargs):
        count[0] += 1
        return listing(*args, **kwargs)

    monkeypatch.setattr(intmat, "lattice_residues", counting_listing)
    return count


def test_classify_lists_no_lattice(residue_listings):
    # the representatives come from the class group alone, at every size
    for ctx in (s3_z2_f7(), dict(CASES)["benchmark/Z4xZ2,Z/4,F5"]):
        classify_simple(ctx)
    assert residue_listings[0] == 0
    enum = enumerate_pairs(s3_z2_f7())
    assert residue_listings[0] == 0
    assert len(enum.pairs) == 15552 and len(enum.coboundary_pairs) == 3888
    assert residue_listings[0] == 2


def _write_fixture():
    lines = [
        f"{json.dumps(name)}: {json.dumps(_summary(ctx), separators=(',', ':'))}"
        for name, ctx in CASES
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()

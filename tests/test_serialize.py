"""Round trips through the JSON instance format."""

import random

import pytest

from tfalgebra.cochains import Cochain
from tfalgebra.errors import SchemaError
from tfalgebra.fields import PrimeField, RationalField
from tfalgebra.pairs import enumerate_pairs, trivial_pair
from tfalgebra.constructions import build_simple
from tfalgebra.samples import (
    dual_number_group_ring,
    product_field_swap_algebra,
    truncated_polynomial_algebra,
)
from tfalgebra.serialize import (
    dump_json,
    emit_cochain_table,
    emit_instance,
    parse_instance,
    parse_scalar,
    emit_scalar,
)

from test_constructions import ACCEPTANCE_CONTEXTS


def test_scalar_round_trip_prime():
    F = PrimeField(7)
    for v in range(7):
        assert parse_scalar(F, emit_scalar(F, v), "t") == v
    with pytest.raises(SchemaError):
        parse_scalar(F, "3/4", "t")


def test_scalar_round_trip_rational():
    from fractions import Fraction

    Q = RationalField()
    for v in (Fraction(0), Fraction(3, 4), Fraction(-7, 2), Fraction(5)):
        assert parse_scalar(Q, emit_scalar(Q, v), "t") == v
    assert parse_scalar(Q, 3, "t") == Fraction(3)
    with pytest.raises(SchemaError):
        parse_scalar(Q, "x/y", "t")


def algebra_corpus():
    F5 = PrimeField(5)
    out = [
        truncated_polynomial_algebra(F5, 3),
        truncated_polynomial_algebra(RationalField(), 2),
        product_field_swap_algebra(F5),
        dual_number_group_ring(F5),
    ]
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        out.append(build_simple(ctx, trivial_pair(ctx)))
    return out


def test_instance_round_trip_algebras():
    import json

    for V in algebra_corpus():
        doc = emit_instance(V.context, algebra=V)
        # through actual text to catch JSON-level issues
        text = dump_json(doc)
        inst = parse_instance(json.loads(text))
        W = inst.algebra
        assert W is not None
        assert W.context == V.context
        assert W.dims == V.dims
        assert W.mult == V.mult
        assert W.a_action == V.a_action
        assert W.unit == V.unit and W.eta == V.eta and W.phi == V.phi


def test_instance_round_trip_pairs_and_omega():
    import json

    rng = random.Random(17)
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        for pair in enumerate_pairs(ctx, method="brute-force").pairs:
            omega = Cochain.random(ctx.module, 2, rng)
            doc = emit_instance(ctx, pair=pair, omega=omega)
            inst = parse_instance(json.loads(dump_json(doc)))
            assert inst.pair == pair
            assert inst.omega == omega
            assert inst.context == ctx


def test_cochain_tables_are_written_sparse():
    # only the nontrivial values are written; a missing key reads as trivial
    import json

    rng = random.Random(29)
    for make in ACCEPTANCE_CONTEXTS:
        ctx = make()
        omega = Cochain.random(ctx.module, 2, rng)
        for c in (ctx.kappa, omega, Cochain.trivial(ctx.module, 2)):
            table = emit_cochain_table(c)
            assert all(any(v) for v in table.values())
            assert len(table) == sum(map(any, c.entries()))
        doc = emit_instance(ctx, pair=trivial_pair(ctx), omega=omega)
        inst = parse_instance(json.loads(dump_json(doc)))
        assert inst.context == ctx and inst.omega == omega
        assert inst.context.kappa == ctx.kappa


def test_schema_errors_name_the_key():
    import json

    V = truncated_polynomial_algebra(PrimeField(5), 2)
    doc = emit_instance(V.context, algebra=V)

    bad = json.loads(dump_json(doc))
    del bad["algebra"]["eta"]
    with pytest.raises(SchemaError) as err:
        parse_instance(bad)
    assert "eta" in str(err.value.key)

    bad = json.loads(dump_json(doc))
    bad["group"] = [[0, 1], [1, 1]]
    with pytest.raises(SchemaError) as err:
        parse_instance(bad)
    assert err.value.key == "group"

    bad = json.loads(dump_json(doc))
    bad["field"] = {"prime": 6}
    with pytest.raises(SchemaError):
        parse_instance(bad)

    with pytest.raises(SchemaError):
        parse_instance([1, 2, 3])


def test_unnormalized_cocycle_rejected_at_parse():
    from tfalgebra.groups import cyclic_group
    from tfalgebra.gmodule import cyclic_module
    import json

    G = cyclic_group(2)
    A = cyclic_module(G, 2)
    doc = {
        "field": {"prime": 5},
        "group": [[0, 1], [1, 0]],
        "module": {"factors": [2]},
        "cocycle": {"0,1,1": [1]},
    }
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert err.value.key == "cocycle"


def test_deterministic_output():
    V = product_field_swap_algebra(PrimeField(5))
    a = dump_json(emit_instance(V.context, algebra=V))
    b = dump_json(emit_instance(V.context, algebra=V))
    assert a == b

"""End-to-end runs of the ``tfa`` command driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfalgebra
from tfalgebra.cli import main
from tfalgebra.algebra import trivial_context
from tfalgebra.cochains import Cochain
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import DEFAULT_ENUM_CAP, GModule
from tfalgebra.groups import symmetric_group
from tfalgebra.pairs import trivial_pair
from tfalgebra.constructions import build_simple
from tfalgebra.samples import truncated_polynomial_algebra
from tfalgebra.serialize import dump_json, emit_instance, emit_pair

from test_constructions import context_I1, context_I3

F5 = PrimeField(5)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def simple_instance(tmp_path):
    ctx = context_I1()
    V = build_simple(ctx, trivial_pair(ctx))
    return write(tmp_path, "simple.json", emit_instance(ctx, algebra=V)), ctx, V


def test_verify_pass_and_fail(tmp_path, simple_instance, capsys):
    path, ctx, V = simple_instance
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out

    doc = emit_instance(ctx, algebra=V)
    doc["algebra"]["eta"] = [[0]]
    bad = write(tmp_path, "bad.json", doc)
    assert main(["verify", bad]) == 1
    out = capsys.readouterr().out
    assert "eta-nondegenerate" in out


def test_verify_missing_algebra_is_input_error(tmp_path, capsys):
    ctx = context_I1()
    path = write(tmp_path, "noalg.json", emit_instance(ctx))
    assert main(["verify", path]) == 2
    assert "algebra" in capsys.readouterr().err


def test_verify_over_a_module_past_the_listing_cap_names_the_action_key(tmp_path, capsys):
    # Z/7[S3]: S3 permutes six copies of Z/7, 7^6 = 117649 elements, past the cap
    S3 = symmetric_group(3)
    n = S3.order
    action = {g: [[int(S3.mul(g, x) == y) for x in range(n)] for y in range(n)] for g in range(n)}
    ctx = trivial_context(S3, GModule(S3, (7,) * n, action), F5)
    doc = emit_instance(ctx)
    doc["algebra"] = {
        "dims": [0] * n,
        "mult": [[[] for _ in range(n)] for _ in range(n)],
        "a_action": [],
        "unit": [],
        "eta": [],
        "phi": [[[] for _ in range(n)] for _ in range(n)],
    }
    assert main(["verify", write(tmp_path, "z7s3.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "(at algebra.a_action)" in err
    assert f"module of size {7**6} exceeds the listing cap {DEFAULT_ENUM_CAP}" in err


def test_verify_writes_machine_summary(tmp_path, simple_instance):
    path, ctx, V = simple_instance
    out = tmp_path / "report.json"
    assert main(["verify", path, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert any(c["tag"] == "trace" for c in doc["checks"])


def test_cohomology_command(tmp_path, capsys):
    from tfalgebra.gmodule import cyclic_module
    from tfalgebra.groups import cyclic_group, trivial_group
    from tfalgebra.algebra import trivial_context

    ctx = trivial_context(cyclic_group(2), cyclic_module(cyclic_group(2), 2), F5)
    path = write(tmp_path, "mod.json", emit_instance(ctx))
    assert main(["cohomology", path, "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "H^3: Z/2" in out
    assert main(["cohomology", path, "--degree", "4"]) == 2
    assert main(["cohomology", path]) == 2
    capsys.readouterr()

    tiny = trivial_context(trivial_group(), cyclic_module(trivial_group(), 6), F5)
    tpath = write(tmp_path, "tiny.json", emit_instance(tiny))
    for n in (1, 2, 3):
        assert main(["cohomology", tpath, "--degree", str(n)]) == 0
        assert "trivial" in capsys.readouterr().out


def test_classify_command(tmp_path, capsys):
    ctx = context_I1()
    path = write(tmp_path, "ctx.json", emit_instance(ctx))
    out = tmp_path / "classes.json"
    emit_dir = tmp_path / "algebras"
    assert main(["classify", path, "--emit-algebras", str(emit_dir), "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "isomorphism classes of simple algebras: 8" in text
    doc = json.loads(out.read_text())
    assert doc["class_count"] == 2
    assert doc["isomorphism_class_count"] == 8
    files = sorted(os.listdir(emit_dir))
    assert files == ["class_0.json", "class_1.json"]
    # every emitted algebra passes the verifier through the CLI
    for name in files:
        assert main(["verify", str(emit_dir / name)]) == 0
        capsys.readouterr()


def test_classify_rejects_rationals(tmp_path, capsys):
    from tfalgebra.algebra import trivial_context
    from tfalgebra.fields import RationalField
    from tfalgebra.gmodule import trivial_module
    from tfalgebra.groups import cyclic_group

    G = cyclic_group(2)
    ctx = trivial_context(G, trivial_module(G), RationalField())
    path = write(tmp_path, "q.json", emit_instance(ctx))
    assert main(["classify", path]) == 2


def test_transform_round_trip(tmp_path, capsys):
    ctx = context_I3()
    V = build_simple(ctx, trivial_pair(ctx))
    from tfalgebra.cochains import Cochain

    omega = Cochain(ctx.module, 2, {(1, 1): (1,)})
    doc = emit_instance(ctx, algebra=V, omega=omega)
    path = write(tmp_path, "t.json", doc)
    out1 = tmp_path / "t1.json"
    assert main(["transform", path, "-o", str(out1)]) == 0

    # output passes verify
    assert main(["verify", str(out1)]) == 0
    capsys.readouterr()

    # transform back by the inverse and compare the algebra sections
    transformed = json.loads(out1.read_text())
    omega_inv = omega.inv()
    from tfalgebra.serialize import emit_cochain_table

    transformed["omega"] = emit_cochain_table(omega_inv)
    path2 = write(tmp_path, "t2.json", transformed)
    out2 = tmp_path / "t3.json"
    assert main(["transform", path2, "-o", str(out2)]) == 0
    final = json.loads(out2.read_text())
    original = json.loads(dump_json(emit_instance(ctx, algebra=V)))
    assert final["algebra"] == original["algebra"]
    assert final["cocycle"] == original["cocycle"]


def test_transform_rejects_unnormalized(tmp_path):
    ctx = context_I1()
    from tfalgebra.gmodule import cyclic_module
    from tfalgebra.groups import cyclic_group
    from tfalgebra.algebra import trivial_context

    G = cyclic_group(2)
    ctx = trivial_context(G, cyclic_module(G, 2), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    doc = emit_instance(ctx, algebra=V)
    doc["omega"] = {"0,1": [1]}
    path = write(tmp_path, "badomega.json", doc)
    assert main(["transform", path]) == 2


def test_check_cocycle_command(tmp_path, capsys):
    ctx = context_I3()
    path = write(tmp_path, "cc.json", emit_instance(ctx))
    assert main(["check-cocycle", path]) == 0
    assert "cocycle: yes" in capsys.readouterr().out


def test_build_extract_pipeline(tmp_path, capsys):
    ctx = context_I1()
    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 1)] = 2
    from tfalgebra.pairs import KappaPair

    pair = KappaPair(g1, ())
    doc = emit_instance(ctx, pair=pair)
    path = write(tmp_path, "pair.json", doc)
    built = tmp_path / "built.json"
    assert main(["build-simple", path, "-o", str(built)]) == 0
    assert main(["verify", str(built)]) == 0
    capsys.readouterr()
    extracted = tmp_path / "extracted.json"
    assert main(["extract-pair", str(built), "-o", str(extracted)]) == 0
    round_tripped = json.loads(extracted.read_text())["pair"]
    assert round_tripped == emit_pair(ctx, pair)


def test_rescale_command(tmp_path, capsys):
    path, ctx, V = (None, None, None)
    ctx = context_I1()
    V = build_simple(ctx, trivial_pair(ctx))
    path = write(tmp_path, "r.json", emit_instance(ctx, algebra=V))
    out = tmp_path / "r2.json"
    assert main(["rescale", path, "--z", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["algebra"]["eta"] == [[2]]
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    # rescaled unit form refuses extraction
    assert main(["extract-pair", str(out)]) == 1


def test_pairs_equal_command(tmp_path, capsys):
    ctx = context_I1()
    from tfalgebra.pairs import KappaPair, coboundary_pair, pair_mul

    base = trivial_pair(ctx)
    shifted = pair_mul(ctx, base, coboundary_pair(ctx, {0: 1, 1: 2}))
    p1 = write(tmp_path, "p1.json", emit_instance(ctx, pair=base))
    p2 = write(tmp_path, "p2.json", emit_instance(ctx, pair=shifted))
    assert main(["pairs-equal", p1, p2]) == 0
    assert "equivalent" in capsys.readouterr().out

    g1 = {(a, b): 1 for a in range(2) for b in range(2)}
    g1[(1, 1)] = 2
    p3 = write(tmp_path, "p3.json", emit_instance(ctx, pair=KappaPair(g1, ())))
    assert main(["pairs-equal", p1, p3]) == 1
    assert main(["pairs-equal", p1]) == 2


def test_pairs_equal_reads_action_entries_as_residues(tmp_path, capsys):
    # the sign module of Z2 on Z/3, written once with 2 and once with -1
    from tfalgebra.algebra import trivial_context
    from tfalgebra.gmodule import GModule
    from tfalgebra.groups import cyclic_group

    G = cyclic_group(2)
    ctx = trivial_context(G, GModule(G, (3,), action={0: [[1]], 1: [[2]]}), PrimeField(7))
    doc = emit_instance(ctx, pair=trivial_pair(ctx))
    assert doc["module"]["action"]["1"] == [[2]]
    p1 = write(tmp_path, "two.json", doc)
    doc["module"]["action"]["1"] = [[-1]]
    p2 = write(tmp_path, "minus.json", doc)
    assert main(["pairs-equal", p1, p2]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_cap_flag_is_gone_and_env_is_ignored(tmp_path, monkeypatch):
    path = write(tmp_path, "c.json", emit_instance(context_I1()))
    with pytest.raises(SystemExit) as exc:
        main(["classify", path, "--cap", "3"])
    assert exc.value.code == 2
    monkeypatch.setenv("TFA_ENUM_CAP", "not-a-number")
    assert main(["classify", path]) == 0


def test_unwritable_output_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "c.json", emit_instance(context_I1()))
    assert main(["classify", path, "-o", str(tmp_path / "missing_dir" / "out.json")]) == 2
    captured = capsys.readouterr()
    assert "input error (at -o)" in captured.err
    # refused before the classification runs, so nothing is printed
    assert captured.out == ""


def test_output_onto_a_directory_is_refused_up_front(tmp_path, capsys):
    path = write(tmp_path, "c.json", emit_instance(context_I1()))
    assert main(["classify", path, "-o", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "input error (at -o)" in captured.err
    assert captured.out == ""


def test_emit_algebras_onto_a_file_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "c.json", emit_instance(context_I1()))
    occupied = tmp_path / "occupied"
    occupied.write_text("", encoding="utf-8")
    assert main(["classify", path, "--emit-algebras", str(occupied)]) == 2
    captured = capsys.readouterr()
    assert "input error (at --emit-algebras)" in captured.err
    assert captured.out == ""
    assert occupied.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("field,z", [("F5", "0"), ("F5", "5"), ("Q", "0/1")])
def test_rescale_by_zero_is_input_error(tmp_path, capsys, field, z):
    from tfalgebra.fields import RationalField

    V = truncated_polynomial_algebra(F5 if field == "F5" else RationalField(), 2)
    path = write(tmp_path, "r.json", emit_instance(V.context, algebra=V))
    assert main(["rescale", path, "--z", z]) == 2
    assert "input error (at --z)" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(path)]) == 2


def _flatten_group(doc):
    doc["group"] = [x for row in doc["group"] for x in row]


@pytest.mark.parametrize(
    "command, key, mutate",
    [
        ("verify", "field.prime", lambda d: d["field"].update(prime="5")),
        ("verify", "field.prime", lambda d: d["field"].update(prime=5.25)),
        ("verify", "group", _flatten_group),
        ("verify", "module.factors", lambda d: d["module"].update(factors=["two"])),
        ("verify", "module.factors", lambda d: d["module"].update(factors=[2.5])),
        ("verify", "module.factors", lambda d: d["module"].update(factors=[True])),
        ("verify", "algebra.dims", lambda d: d["algebra"]["dims"].__setitem__(0, "x")),
        ("verify", "algebra.unit", lambda d: d["algebra"].update(unit=1)),
        ("build-simple", "pair.g1", lambda d: d["pair"].update(g1=d["pair"]["g1"][0])),
    ],
    ids=[
        "prime-string",
        "prime-float",
        "group-flat",
        "factors-string",
        "factors-float",
        "factors-bool",
        "dims-string",
        "unit-scalar",
        "g1-flat",
    ],
)
def test_malformed_values_are_input_errors(tmp_path, capsys, command, key, mutate):
    ctx = context_I1()
    pair = trivial_pair(ctx)
    doc = emit_instance(ctx, algebra=build_simple(ctx, pair), pair=pair)
    mutate(doc)
    path = write(tmp_path, "bad.json", doc)
    assert main([command, path, "-o", str(tmp_path / "out.json")]) == 2
    assert f"(at {key})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, mutate",
    [
        ("check-cocycle", "module.action", lambda d: d["module"].update(action={"0": [[1]], "1": [["x"]]})),
        ("check-cocycle", "module.action", lambda d: d["module"].update(action={"0": [[1]], "1": [[1.5]]})),
        ("check-cocycle", "module.action", lambda d: d["module"].update(action={"0": [[1]], "1": [[True]]})),
        ("check-cocycle", "cocycle[1,1,1]", lambda d: d["cocycle"].update({"1,1,1": [1.5]})),
        ("check-cocycle", "cocycle[1,1,1]", lambda d: d["cocycle"].update({"1,1,1": [True]})),
        ("check-cocycle", "cocycle[1,1,1]", lambda d: d["cocycle"].update({"1,1,1": ["1"]})),
        ("transform", "omega[1,1]", lambda d: d["omega"].update({"1,1": [1.5]})),
    ],
    ids=[
        "action-string",
        "action-float",
        "action-bool",
        "cocycle-float",
        "cocycle-bool",
        "cocycle-string",
        "omega-float",
    ],
)
def test_module_entries_must_be_integers(tmp_path, capsys, command, key, mutate):
    # a float or a bool is not read as the integer it truncates to
    ctx = context_I3()
    omega = Cochain(ctx.module, 2, {(1, 1): (1,)})
    doc = emit_instance(ctx, algebra=build_simple(ctx, trivial_pair(ctx)), omega=omega)
    mutate(doc)
    path = write(tmp_path, "bad.json", doc)
    assert main([command, path, "-o", str(tmp_path / "out.json")]) == 2
    assert f"(at {key})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, mutate",
    [
        ("verify", "algebra.mult[0][0]", lambda d: d["algebra"]["mult"][0].__setitem__(0, [[[]]])),
        ("verify", "algebra.mult[0][0]", lambda d: d["algebra"]["mult"][0].__setitem__(0, [[]])),
        ("verify", "algebra.phi[1][0]", lambda d: d["algebra"]["phi"][1].__setitem__(0, [])),
        ("verify", "algebra.phi[1][0]", lambda d: d["algebra"]["phi"][1].__setitem__(0, [[1, 0]])),
        ("verify", "algebra.eta", lambda d: d["algebra"].update(eta=[[1, 0, 0], [0, 1, 0]])),
        ("verify", "algebra.unit", lambda d: d["algebra"].update(unit=[])),
        ("verify", "algebra.a_action[0][0]", lambda d: d["algebra"]["a_action"][0].__setitem__(0, [[1, 0]])),
        ("verify", "algebra.dims", lambda d: d["algebra"].update(dims=[-1, 1])),
        ("build-simple", "pair.g1", lambda d: d["pair"].update(g1={"1,1": 1})),
        ("check-cocycle", "module.action", lambda d: d["module"].update(action={"0": [[1]], "1": [[1, 0]]})),
        ("check-cocycle", "module.factors", lambda d: d["module"].update(factors=2)),
    ],
    ids=[
        "mult-short-vector",
        "mult-short-row",
        "phi-short",
        "phi-wide",
        "eta-2x3",
        "unit-short",
        "a-action-not-square",
        "dims-negative",
        "g1-dict",
        "action-ragged",
        "factors-not-list",
    ],
)
def test_malformed_arrays_name_their_block(tmp_path, capsys, command, key, mutate):
    # each array is shape-checked on reading, under the key of its block
    ctx = context_I3()
    pair = trivial_pair(ctx)
    doc = emit_instance(ctx, algebra=build_simple(ctx, pair), pair=pair)
    mutate(doc)
    path = write(tmp_path, "bad.json", doc)
    assert main([command, path, "-o", str(tmp_path / "out.json")]) == 2
    assert f"(at {key})" in capsys.readouterr().err


def test_action_keys_must_be_element_indices(tmp_path, capsys):
    # "7" and "-1" are integers but no element of Z2: the action is refused,
    # not read on its valid keys only
    ctx = context_I3()
    doc = emit_instance(ctx)
    doc["module"]["action"] = {"0": [[1]], "1": [[1]], "7": [[1]], "-1": [[1]]}
    path = write(tmp_path, "stray.json", doc)
    assert main(["check-cocycle", path]) == 2
    out, err = capsys.readouterr()
    assert "(at module.action)" in err
    assert "cocycle: yes" not in out


def test_ragged_block_is_an_input_error_under_optimize(tmp_path):
    # python -O strips asserts: the shape check must still name the key
    V = truncated_polynomial_algebra(F5, 3)
    doc = emit_instance(V.context, algebra=V)
    doc["algebra"]["a_action"][0][0] = [[1, 0, 0], [0, 1, 0], [0, 1]]
    path = write(tmp_path, "ragged.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(tfalgebra.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "tfalgebra.cli", "verify", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert "(at algebra.a_action[0][0])" in out.stderr

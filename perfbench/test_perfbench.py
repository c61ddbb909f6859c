"""Tests of the benchmark itself: pinned answers, corpus, tracer and entry point.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

The pinned answers are cross-checked here, outside the timed path, against
the brute-force oracles wherever the problem fits their enumeration cap.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batch  # noqa: E402
import classify  # noqa: E402
import harness  # noqa: E402
import ladder  # noqa: E402
import malformed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from tfalgebra import brute_force_cohomology, enumerate_pairs  # noqa: E402
from tfalgebra.errors import TooLarge  # noqa: E402


def _brute_cohomology(module, degree):
    try:
        return brute_force_cohomology(module, degree)
    except TooLarge:
        return None


def test_ladder_pins_agree_with_brute_force_where_it_fits():
    checked = 0
    for name, group_name, coeff, degree, pin in ladder.RUNGS:
        H = _brute_cohomology(ladder.build_module(group_name, coeff), degree)
        if H is None:
            continue
        assert ladder.check_group(H, pin) is None, name
        checked += 1
    assert checked >= 2


def test_ladder_orders_are_consistent():
    # |H| |B| = |Z| for every rung, and the two encodings of the sign module agree
    for name, _, _, _, (factors, z_order, b_order) in ladder.RUNGS:
        order = 1
        for d in factors:
            order *= d
        assert order * b_order == z_order, name
    pins = {name: pin for name, _, _, _, pin in ladder.RUNGS}
    assert pins["H2(S3,Z/3-sign[-1])"] == pins["H2(S3,Z/3-sign[2])"]


def test_sign_module_encodings_are_the_same_module():
    a = ladder.build_module("S3", "Z/3-sign[-1]")
    b = ladder.build_module("S3", "Z/3-sign[2]")
    for g in a.group.elements():
        for x in a.elements():
            assert a.act(g, x) == b.act(g, x)


def _cohomology_commands(corpus):
    for name, argv, code, file_check, _ in corpus.commands:
        if argv[0] == "cohomology" and file_check is not None:
            yield name, argv, file_check


def test_batch_cohomology_pins_agree_with_brute_force(tmp_path):
    state = _batch_state(tmp_path, seed=3)
    checked = 0
    for name, argv, (out, check) in _cohomology_commands(state["corpus"]):
        cmd = batch.run_in_process(argv)
        assert cmd.code == 0, (name, cmd.stderr)
        inst = state["package"].serialize.load_instance(argv[1])
        H = _brute_cohomology(inst.context.module, int(argv[3]))
        if H is None:
            continue
        doc = json.loads(Path(out).read_text())
        assert doc["invariant_factors"] == list(H.invariant_factors), name
        assert doc["cocycle_order"] == H.cocycle_order, name
        assert doc["coboundary_order"] == H.coboundary_order, name
        checked += 1
    assert checked >= 8


def test_classify_pins_agree_with_brute_force_where_it_fits(tmp_path):
    state = _batch_state(tmp_path, seed=3)
    checked = 0
    for name, argv, code, file_check, _ in state["corpus"].commands:
        if argv[0] != "classify":
            continue
        inst = state["package"].serialize.load_instance(argv[1])
        cg = enumerate_pairs(inst.context, method="brute-force").class_group
        out, check = file_check
        Path(out).write_text(json.dumps({
            "invariant_factors": list(cg.invariant_factors),
            "pair_group_order": cg.pair_group_order,
            "coboundary_order": cg.coboundary_order,
            "class_count": cg.order,
            "isomorphism_class_count": cg.order * (inst.context.field.p - 1),
        }))
        assert check(out) is None, name
        checked += 1
    assert checked == 4
    # the classify-workload contexts all exceed the brute-force cap
    for name, ctx, pin in classify.setup(0)["contexts"]:
        with pytest.raises(TooLarge):
            enumerate_pairs(ctx, method="brute-force")
        factors, h_order, b_order = pin
        assert h_order % b_order == 0


def _batch_state(tmp_path, seed):
    import tfalgebra

    corpus = batch.build_corpus(tfalgebra, tmp_path / "corpus", seed)
    return {"package": tfalgebra, "corpus": corpus, "env": batch._child_env()}


def _malformed_failures(tmp_path, seed):
    state = _batch_state(tmp_path / str(seed), seed)
    failures = set()
    for name, argv, code, _, robustness in state["corpus"].commands:
        if robustness and batch.run_in_process(argv).code != code:
            failures.add(name)
    return failures


def test_malformed_failures_do_not_depend_on_the_seed(tmp_path):
    first = _malformed_failures(tmp_path, 1)
    assert first  # the known crashes are still there; update when they are fixed
    assert _malformed_failures(tmp_path, 2) == first


def test_every_malformed_case_changes_the_instance():
    base = {"field": {"prime": 5}, "group": [[0, 1], [1, 0]],
            "module": {"factors": [2], "action": {"0": [[1]], "1": [[1]]}},
            "cocycle": {}, "algebra": {"dims": [1, 1], "mult": [[[[[1]]], [[[1]]]], [[[[1]]], [[[1]]]]],
                                       "a_action": [[[[1]], [[1]]], [[[1]], [[1]]]], "unit": [1],
                                       "eta": [[1]], "phi": [[[[1]], [[1]]], [[[1]], [[1]]]]},
            "pair": {"g1": [[1, 1], [1, 1]], "g2": [1]}, "omega": {"1,1": [1]}}
    names = set()
    for name, command, mutate in malformed._cases(2, 5, random.Random(0)):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        assert doc != base, name
        assert name not in names
        names.add(name)


def test_every_batch_command_passes_in_process(tmp_path):
    state = _batch_state(tmp_path, seed=5)
    outcomes = harness.run_pass(batch.ops(state, in_process=True))
    assert len(outcomes) >= 100
    wrong = [o for o in outcomes if o.failed and not o.robustness]
    assert not wrong, wrong


def test_tracer_patches_names_where_callers_look_them_up(tmp_path):
    import tfalgebra.cli as cli

    original = cli.verify
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.verify is not original
        assert cli._COMMANDS["verify"] is not cli.cmd_verify.__wrapped__
        state = _batch_state(tmp_path, seed=7)
        tracer.active = True
        name, argv, code, _, _ = state["corpus"].commands[0]
        assert batch.run_in_process(argv).code == code
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cli.verify is original
    assert tracer.calls["cli"] >= 2 and tracer.calls["verify"] >= 1
    assert tracer.calls["serialize"] >= 1 and tracer.counters["serialize.bytes_in"] > 0
    assert sum(tracer.self_s.values()) > 0


def test_budget_interrupts_a_busy_op():
    def spin():
        while True:
            pass

    t0 = time.perf_counter()
    result, seconds, cpu, error = harness.call_with_budget(spin, 0.2)
    assert error == harness.TIMEOUT and result is None
    assert 0.2 <= seconds < 2 and cpu < 2 and time.perf_counter() - t0 < 2


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tfa-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""tfa-batch: the ``tfa`` command line over a generated corpus, one command at a time.

This is the user-facing path: interpreter start-up, ``serialize``, ``cli``
and ``verify`` dominate it, while ``intmat`` and ``pairs`` barely run.
Commands that write instances (``build-simple``, ``extract-pair``,
``transform``, ``rescale``, ``classify --emit-algebras``) sit beside
commands that only read them.

Untraced, every command runs as ``python -m tfalgebra.cli`` from the
checkout with ``PYTHONPATH=src``, and the next starts only after it exits.
Traced, the same argument lists go to ``tfalgebra.cli.main`` in this
process, so the tracer sees the layers.

Every command pins its exit code and the key fields of its ``-o`` output.
The malformed-instance corpus (``malformed.py``) expects exit code 2 for
every case; the cases that exit otherwise are failures, reported by name.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import malformed
from harness import ROOT, SRC, Op

BUDGET_S = 30.0
WORK = ROOT / ".perfbench-work"


@dataclass
class Cmd:
    code: int
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TFA_ENUM_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(argv: list[str], env: dict) -> Cmd:
    proc = subprocess.run(
        [sys.executable, "-m", "tfalgebra.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=BUDGET_S + 5,
    )
    return Cmd(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(argv: list[str]) -> Cmd:
    """``tfalgebra.cli.main`` with the exit code a process would have had."""
    import tfalgebra.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception makes the interpreter exit 1
            traceback.print_exc()
            code = 1
    return Cmd(code, out.getvalue(), err.getvalue())


# -- corpus ---------------------------------------------------------------------


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def seeded_pair(pkg, ctx, rng):
    """A valid pair: a seeded class representative times a seeded coboundary pair."""
    F, G = ctx.field, ctx.group
    if ctx.kappa.is_trivial():
        # with a trivial cocycle any character pairs with any coboundary table
        g2 = tuple(
            rng.choice([u for u in F.units() if F.power(u, m) == F.one])
            for m in ctx.module.moduli
        )
        base = pkg.pairs.KappaPair(pkg.pairs.trivial_pair(ctx).g1, g2)
    else:
        reps = pkg.enumerate_pairs(ctx).class_group.representatives
        base = rng.choice(list(reps) + [pkg.pairs.trivial_pair(ctx)])
    psi = {a: F.one if a == G.identity else rng.choice(F.units()) for a in G.elements()}
    return pkg.pairs.pair_mul(ctx, base, pkg.coboundary_pair(ctx, psi))


def other_class_pair(pkg, ctx, pair):
    """The pair with another first character value, hence another class.

    Valid for a trivial cocycle, where any character pairs with any table.
    """
    F, m = ctx.field, ctx.module.moduli[0]
    other = next(u for u in F.units() if F.power(u, m) == F.one and u != pair.g2[0])
    return pkg.pairs.KappaPair(dict(pair.g1), (other,) + tuple(pair.g2[1:]))


class Corpus:
    """Instance files and the commands over them, with their pinned answers."""

    def __init__(self, pkg, directory: Path, rng: random.Random):
        self.pkg = pkg
        self.dir = directory
        self.out = directory / "out"
        self.out.mkdir(parents=True)
        self.rng = rng
        self.commands: list[tuple] = []  # (name, argv, expected code, check, robustness)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def outpath(self, name: str) -> str:
        return str(self.out / name)

    def add(self, name, argv, code, check=None, robustness=False):
        self.commands.append((name, argv, code, check, robustness))

    def instance(self, name: str, ctx, **sections) -> str:
        doc = self.pkg.serialize.emit_instance(ctx, **sections)
        return _write(self.dir / name, doc)


def _read(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expect_summary(**fields):
    def check(path):
        doc = _read(path)
        for key, want in fields.items():
            if doc.get(key) != want:
                return f"{key} = {doc.get(key)!r}, expected {want!r}"
        return None

    return check


def expect_verify(passed: bool, failing_tag: str | None = None):
    def check(path):
        doc = _read(path)
        want = "pass" if passed else "fail"
        if doc.get("status") != want:
            return f"status {doc.get('status')!r}, expected {want!r}"
        if failing_tag is not None:
            failing = [c["tag"] for c in doc["checks"] if not c["passed"]]
            if failing_tag not in failing:
                return f"{failing_tag} not among failing checks {failing}"
        return None

    return check


def build_corpus(pkg, directory: Path, seed: int) -> Corpus:
    import tfalgebra.serialize  # noqa: F401  (reached as pkg.serialize)
    from tfalgebra import samples
    from tfalgebra.algebra import trivial_context

    rng = random.Random(f"{seed}:tfa-batch")
    c = Corpus(pkg, directory, rng)
    F3, F5, F7 = pkg.PrimeField(3), pkg.PrimeField(5), pkg.PrimeField(7)
    Z2, Z3, Z4 = pkg.cyclic_group(2), pkg.cyclic_group(3), pkg.cyclic_group(4)
    S3, S4 = pkg.symmetric_group(3), pkg.symmetric_group(4)
    A2 = pkg.cyclic_module(Z2, 2)
    contexts = {
        "z2": trivial_context(Z2, A2, F5),
        "z3": trivial_context(Z3, pkg.cyclic_module(Z3, 3), F7),
        "z2tw": pkg.AlgebraContext(Z2, A2, pkg.Cochain(A2, 3, {(1, 1, 1): (1,)}), F5),
        "s3": trivial_context(S3, pkg.cyclic_module(S3, 2), F5),
        "s4": trivial_context(S4, pkg.cyclic_module(S4, 2), F5),
    }

    # verify: the samples zoo and the S3/S4 graded algebras pass
    algebras = {
        "scalar-field": samples.scalar_field_algebra(F5),
        "truncated-poly-3": samples.truncated_polynomial_algebra(F5, 3),
        "truncated-poly-4-F7": samples.truncated_polynomial_algebra(F7, 4),
        "product-field-swap": samples.product_field_swap_algebra(F5),
        "dual-number-group-ring": samples.dual_number_group_ring(F5),
        "graded-poly-Z3": samples.graded_truncated_polynomial_algebra(F5, Z3, 5),
        "graded-poly-S3": samples.graded_truncated_polynomial_algebra(F5, S3, 5),
        "graded-poly-S4": samples.graded_truncated_polynomial_algebra(F5, S4, 5),
    }
    for ctx_name in ("s3", "s4"):
        ctx = contexts[ctx_name]
        algebras[f"simple-{ctx_name}-trivial"] = pkg.build_simple(ctx, pkg.pairs.trivial_pair(ctx))
        algebras[f"simple-{ctx_name}-seeded"] = pkg.build_simple(ctx, seeded_pair(pkg, ctx, rng))
    docs = {}
    for name, V in algebras.items():
        docs[name] = pkg.serialize.emit_instance(V.context, algebra=V)
        path = _write(directory / f"{name}.json", docs[name])
        out = c.outpath(f"verify-{name}.json")
        c.add(f"verify[{name}]", ["verify", path, "-o", out], 0, (out, expect_verify(True)))

    # verify: damaged copies fail, and name the broken law
    for name in ("scalar-field", "truncated-poly-3", "product-field-swap", "dual-number-group-ring",
                 "graded-poly-S3", "simple-s3-seeded"):
        V = algebras[name]
        F, e = V.context.field, V.context.group.identity
        doc = json.loads(json.dumps(docs[name]))
        dim = len(doc["algebra"]["eta"])
        doc["algebra"]["eta"] = [[0] * dim for _ in range(dim)]
        path = _write(directory / f"damaged-eta-{name}.json", doc)
        out = c.outpath(f"verify-damaged-eta-{name}.json")
        c.add(f"verify[damaged-eta:{name}]", ["verify", path, "-o", out], 1,
              (out, expect_verify(False, "eta-nondegenerate")))

        doc = json.loads(json.dumps(docs[name]))
        k = rng.randrange(2, F.p)
        tensor = doc["algebra"]["mult"][e][e]
        doc["algebra"]["mult"][e][e] = [[[(k * x) % F.p for x in vec] for vec in row] for row in tensor]
        path = _write(directory / f"damaged-unit-{name}.json", doc)
        out = c.outpath(f"verify-damaged-unit-{name}.json")
        c.add(f"verify[damaged-unit:{name}]", ["verify", path, "-o", out], 1,
              (out, expect_verify(False, "unit")))

    # check-cocycle: coboundaries pass; adding v at (1,1,1) breaks d3 at (1,1,1,1)
    A3 = contexts["z3"].module
    for i in range(4):
        omega = _random_normalized(pkg, A3, 2, rng)
        kappa = pkg.coboundary(omega)
        ctx = pkg.AlgebraContext(Z3, A3, kappa, F7)
        path = c.instance(f"cocycle-{i}.json", ctx)
        out = c.outpath(f"check-cocycle-{i}.json")
        c.add(f"check-cocycle[coboundary-{i}]", ["check-cocycle", path, "-o", out], 0,
              (out, expect_summary(cocycle=True, normalized=True, status="pass")))
        table = dict(kappa.table)
        table[(1, 1, 1)] = ((table[(1, 1, 1)][0] + rng.randrange(1, 3)) % 3,)
        broken = pkg.AlgebraContext(Z3, A3, pkg.Cochain(A3, 3, table), F7)
        path = c.instance(f"cocycle-broken-{i}.json", broken)
        out = c.outpath(f"check-cocycle-broken-{i}.json")
        c.add(f"check-cocycle[broken-{i}]", ["check-cocycle", path, "-o", out], 1,
              (out, expect_summary(cocycle=False, normalized=True, status="fail")))

    # cohomology on small groups: |B^n| = |C^{n-1}| / |Z^{n-1}|, |Z^n| = |H^n| |B^n|
    cohomology_rungs = (
        ("Z2,Z/2", trivial_context(Z2, A2, F5), ((0, (2,), 2, 1), (1, (2,), 2, 1), (2, (2,), 4, 2), (3, (2,), 8, 4))),
        ("Z3,Z/3", contexts["z3"], ((1, (3,), 3, 1), (2, (3,), 27, 9), (3, (3,), 3**7, 3**6))),
        ("Z2,Z/4", trivial_context(Z2, pkg.cyclic_module(Z2, 4), F5), ((2, (2,), 16, 8), (3, (2,), 32, 16))),
        ("S3,Z/2", contexts["s3"], ((1, (2,), 2, 1),)),
        ("Z4,Z/2", trivial_context(Z4, pkg.cyclic_module(Z4, 2), F5), ((2, (2,), 16, 8),)),
    )
    for label, ctx, rows in cohomology_rungs:
        path = c.instance(f"module-{label.replace('/', '')}.json", ctx)
        for degree, factors, z_order, b_order in rows:
            out = c.outpath(f"cohomology-{label.replace('/', '')}-{degree}.json")
            c.add(f"cohomology[H{degree}({label})]", ["cohomology", path, "--degree", str(degree), "-o", out], 0,
                  (out, expect_summary(invariant_factors=list(factors), cocycle_order=z_order,
                                       coboundary_order=b_order)))
    c.add("cohomology[degree-4]", ["cohomology", c.path("module-Z2,Z2.json"), "--degree", "4"], 2)

    # classify on small groups; the counts are cross-checked against brute force in the tests
    classify_rungs = (
        ("Z2,Z/2,F5", contexts["z2"], (2, 2), 8, 2),
        ("Z2,Z/2,F3", trivial_context(Z2, A2, F3), (2, 2), 4, 1),
        ("Z3,Z/3,F7", contexts["z3"], (3, 3), 108, 12),
        ("Z2,Z/2,F5,twisted", contexts["z2tw"], (2,), 4, 2),
    )
    for label, ctx, factors, h_order, b_order in classify_rungs:
        path = c.instance(f"classify-{label.replace('/', '')}.json", ctx)
        out = c.outpath(f"classify-{label.replace('/', '')}.json")
        classes = h_order // b_order
        argv = ["classify", path, "-o", out]
        if label == "Z2,Z/2,F5":
            argv += ["--emit-algebras", c.outpath("classes")]
        c.add(f"classify[{label}]", argv, 0,
              (out, expect_summary(invariant_factors=list(factors), pair_group_order=h_order,
                                   coboundary_order=b_order, class_count=classes,
                                   isomorphism_class_count=classes * (ctx.field.p - 1))))

    # build, extract, compare, twist and rescale, chained through the files they write
    # (not over S4: there pairs_equivalent alone takes most of a minute)
    for ctx_name in ("z2", "z3", "z2tw", "s3"):
        ctx = contexts[ctx_name]
        _pipeline(c, ctx_name, ctx, seeded_pair(pkg, ctx, rng))

    malformed.add_cases(c, contexts["z2"], rng)
    return c


def _random_normalized(pkg, module, degree, rng):
    e = module.group.identity
    table = {
        key: tuple(rng.randrange(m) for m in module.moduli)
        for key in module.group.tuples(degree)
        if e not in key
    }
    return pkg.Cochain(module, degree, table)


def _pipeline(c: Corpus, name: str, ctx, pair) -> None:
    pkg, rng = c.pkg, c.rng
    F = ctx.field
    emit_pair = pkg.serialize.emit_pair
    pair_doc = emit_pair(ctx, pair)
    pair_path = c.instance(f"pair-{name}.json", ctx, pair=pair)

    algebra = c.outpath(f"algebra-{name}.json")
    c.add(f"build-simple[{name}]", ["build-simple", pair_path, "-o", algebra], 0,
          (algebra, lambda p, n=ctx.group.order: None if _read(p)["algebra"]["dims"] == [1] * n
           else "built algebra is not one-dimensional per component"))
    report = c.outpath(f"verify-algebra-{name}.json")
    c.add(f"verify[built-{name}]", ["verify", algebra, "-o", report], 0, (report, expect_verify(True)))

    extracted = c.outpath(f"pair-extracted-{name}.json")
    c.add(f"extract-pair[{name}]", ["extract-pair", algebra, "-o", extracted], 0,
          (extracted, lambda p, want=pair_doc: None if _read(p)["pair"] == want
           else "extracted pair differs from the pair it was built from"))
    summary = c.outpath(f"pairs-equal-roundtrip-{name}.json")
    c.add(f"pairs-equal[roundtrip-{name}]", ["pairs-equal", pair_path, extracted, "-o", summary], 0,
          (summary, expect_summary(status="pass", equivalent=True)))

    G = ctx.group
    psi = {a: F.one if a == G.identity else rng.choice(F.units()) for a in G.elements()}
    multiple = pkg.pairs.pair_mul(ctx, pair, pkg.coboundary_pair(ctx, psi))
    multiple_path = c.instance(f"pair-multiple-{name}.json", ctx, pair=multiple)
    summary = c.outpath(f"pairs-equal-multiple-{name}.json")
    c.add(f"pairs-equal[multiple-{name}]", ["pairs-equal", pair_path, multiple_path, "-o", summary], 0,
          (summary, expect_summary(status="pass", equivalent=True)))
    if ctx.kappa.is_trivial():
        other_path = c.instance(f"pair-other-{name}.json", ctx, pair=other_class_pair(pkg, ctx, pair))
        summary = c.outpath(f"pairs-equal-other-{name}.json")
        c.add(f"pairs-equal[other-class-{name}]", ["pairs-equal", pair_path, other_path, "-o", summary], 1,
              (summary, expect_summary(status="fail", equivalent=False)))

    V = pkg.build_simple(ctx, pair)
    omega = _random_normalized(pkg, ctx.module, 2, rng)
    want_kappa = pkg.serialize.emit_cochain_table(pkg.coboundary(omega).mul(ctx.kappa))
    twist_in = c.instance(f"algebra-omega-{name}.json", ctx, algebra=V, omega=omega)
    twisted = c.outpath(f"algebra-twisted-{name}.json")
    c.add(f"transform[{name}]", ["transform", twist_in, "-o", twisted], 0,
          (twisted, lambda p, want=want_kappa: None if _read(p)["cocycle"] == want
           else "twisted instance carries the wrong cocycle"))
    report = c.outpath(f"verify-twisted-{name}.json")
    c.add(f"verify[twisted-{name}]", ["verify", twisted, "-o", report], 0, (report, expect_verify(True)))

    z = rng.randrange(2, F.p)
    rescaled = c.outpath(f"algebra-rescaled-{name}.json")
    want_eta = [[(z * pair.g1[(G.identity, G.identity)]) % F.p]]
    c.add(f"rescale[{name}]", ["rescale", algebra, "--z", str(z), "-o", rescaled], 0,
          (rescaled, lambda p, want=want_eta: None if _read(p)["algebra"]["eta"] == want
           else "rescaled inner product is wrong"))
    report = c.outpath(f"verify-rescaled-{name}.json")
    c.add(f"verify[rescaled-{name}]", ["verify", rescaled, "-o", report], 0, (report, expect_verify(True)))
    refused = c.outpath(f"pair-refused-{name}.json")
    c.add(f"extract-pair[rescaled-{name}]", ["extract-pair", rescaled, "-o", refused], 1)


# -- the workload ------------------------------------------------------------------


def setup(seed: int):
    import tfalgebra
    import tfalgebra.cli  # noqa: F401  (the traced run calls it in-process)

    WORK.mkdir(exist_ok=True)
    directory = WORK / f"{os.getpid()}"
    if directory.exists():
        shutil.rmtree(directory)
    corpus = build_corpus(tfalgebra, directory, seed)
    return {"package": tfalgebra, "corpus": corpus, "env": _child_env()}


def cleanup(state) -> None:
    if state is not None:
        shutil.rmtree(state["corpus"].dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def _check(cmd: Cmd, want_code: int, file_check) -> str | None:
    if cmd.code != want_code:
        tail = cmd.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {cmd.code}, expected {want_code} ({tail[0][:160]})"
    if file_check is not None:
        path, check = file_check
        try:
            return check(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output {os.path.basename(path)}: {type(exc).__name__}: {exc}"
    return None


def ops(state, in_process: bool = False):
    env = state["env"]
    for name, argv, code, file_check, robustness in state["corpus"].commands:
        if in_process:
            run = lambda argv=argv: run_in_process(argv)
        else:
            run = lambda argv=argv: run_subprocess(argv, env)
        yield Op(
            name,
            run,
            lambda cmd, code=code, fc=file_check: _check(cmd, code, fc),
            BUDGET_S,
            "cli",
            robustness,
        )

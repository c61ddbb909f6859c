"""The ``tfa`` command line driver.

Usage pattern::

    tfa <command> [--degree N] [--z SCALAR] [--emit-algebras DIR]
                  INPUT [INPUT2] [-o OUTPUT]

Commands

``verify``          run the axiom verifier on the instance's algebra
``cohomology``      invariant factors and representatives of H^degree
``classify``        enumerate pair classes and count simple algebras
``transform``       apply the 2-cochain twist to the instance's algebra
``check-cocycle``   cocycle and normalization test of the instance cocycle
``build-simple``    build the algebra of the instance's pair
``extract-pair``    read the pair off the instance's algebra
``rescale``         multiply the inner product by --z
``pairs-equal``     coset test between the pairs of two instances

Exit codes: 0 = pass/success, 1 = kernel verdict fail (axioms violated,
pairs inequivalent, extraction refused), 2 = the input never reached the
kernel (schema errors, unsupported degree or field, unnormalized omega,
a zero --z, an -o or --emit-algebras path that cannot be written).  An -o
path that is a directory or lies in no existing directory, and an
--emit-algebras path that is a file, are refused before the command runs.
Machine-readable summaries or output instances are written to -o; report
commands print a human-readable account on stdout either way.  All output
is deterministic for identical input.

A command imports only what it runs.  At the top this module imports the
instance parser and what it needs (``serialize``, ``algebra``, ``cochains``,
``linalg``, ``fields``, ``gmodule``, ``groups``, ``errors``), which is all
that ``check-cocycle`` and ``rescale`` use.  Every other handler imports its
command's module after the input checks, so refused input never loads it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import z_rescale
from .cochains import is_cocycle, is_normalized
from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    NonCyclicUnits,
    NotNormalized,
    NotPointed,
    SchemaError,
    TFAError,
    TooLarge,
)
from .fields import PrimeField
from .serialize import (
    dump_json,
    emit_cochain_table,
    emit_instance,
    emit_pair,
    emit_scalar,
    load_instance,
    parse_scalar,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _write(args, document: dict, stdout: bool = False) -> None:
    """``document`` to ``-o``; with no ``-o``, to stdout if ``stdout`` is set."""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dump_json(document))
        except OSError as err:
            raise _unwritable(err, "-o")
    elif stdout:
        sys.stdout.write(dump_json(document))


def _unwritable(err: OSError, key: str) -> SchemaError:
    return SchemaError(f"{key}: cannot write {err.filename}: {err.strerror}", key=key)


def _refuse_unwritable_paths(args) -> None:
    """Refuse an output path that cannot be written before the command runs."""
    if args.output:
        if os.path.isdir(args.output):
            raise SchemaError(f"-o: cannot write {args.output}: it is a directory", key="-o")
        parent = os.path.dirname(args.output) or "."
        if not os.path.isdir(parent):
            raise SchemaError(f"-o: cannot write {args.output}: no directory {parent}", key="-o")
    if args.emit_algebras and os.path.isfile(args.emit_algebras):
        raise SchemaError(
            f"--emit-algebras: cannot write {args.emit_algebras}: it is a file", key="--emit-algebras"
        )


def _section(inst, name: str):
    """The instance's ``name`` section, which the command needs."""
    value = getattr(inst, name)
    if value is None:
        raise SchemaError(f"instance has no '{name}' section", key=name)
    return value


def cmd_verify(args) -> int:
    V = _section(load_instance(args.input), "algebra")
    from .verify import verify

    report = verify(V)
    for line in report.to_lines():
        print(line)
    _write(args, report.to_summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_cohomology(args) -> int:
    inst = load_instance(args.input)
    if args.degree is None:
        raise SchemaError("--degree is required", key="<args>")
    if not (0 <= args.degree <= 3):
        raise DegreeOutOfRange(f"--degree must be 0..3, got {args.degree}")
    from .cohomology import cohomology_group

    H = cohomology_group(inst.context.module, args.degree)
    print(f"H^{args.degree}: {H.describe()}")
    print(f"cocycles: {H.cocycle_order}, coboundaries: {H.coboundary_order}")
    reps = []
    for i, rep in enumerate(H.representatives):
        print(f"generator {i} (order {H.invariant_factors[i]}):")
        for key, val in zip(inst.context.group.tuples(args.degree), rep.entries()):
            if any(val):
                print(f"  {','.join(map(str, key))} -> {list(val)}")
        reps.append(emit_cochain_table(rep))
    _write(
        args,
        {
            "status": "pass",
            "degree": args.degree,
            "invariant_factors": list(H.invariant_factors),
            "cocycle_order": H.cocycle_order,
            "coboundary_order": H.coboundary_order,
            "representatives": reps,
        },
    )
    return EXIT_PASS


def cmd_classify(args) -> int:
    inst = load_instance(args.input)
    if not isinstance(inst.context.field, PrimeField):
        raise NonCyclicUnits("classification requires a prime field")
    from .pairs import classify_simple

    result = classify_simple(inst.context)
    cg = result.class_group
    print(f"pair group order: {cg.pair_group_order}")
    print(f"coboundary subgroup order: {cg.coboundary_order}")
    print(f"class group: {cg.describe()}  (order {cg.order})")
    print(f"rescaling parameters: {result.rescaling_count}")
    print(f"isomorphism classes of simple algebras: {result.isomorphism_class_count}")
    rows = []
    for i, pair in enumerate(result.class_pairs):
        g2 = [str(v) for v in pair.g2]
        print(f"class {i}: g2 = [{', '.join(g2)}]")
        rows.append(emit_pair(inst.context, pair))
    if args.emit_algebras:
        try:
            os.makedirs(args.emit_algebras, exist_ok=True)
            for i, algebra in enumerate(result.algebras):
                path = os.path.join(args.emit_algebras, f"class_{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dump_json(emit_instance(inst.context, algebra=algebra)))
        except OSError as err:
            raise _unwritable(err, "--emit-algebras")
        print(f"wrote {len(result.algebras)} algebra files to {args.emit_algebras}")
    _write(
        args,
        {
            "status": "pass",
            "pair_group_order": cg.pair_group_order,
            "coboundary_order": cg.coboundary_order,
            "invariant_factors": list(cg.invariant_factors),
            "class_count": cg.order,
            "rescaling_count": result.rescaling_count,
            "isomorphism_class_count": result.isomorphism_class_count,
            "classes": rows,
        },
    )
    return EXIT_PASS


def cmd_transform(args) -> int:
    inst = load_instance(args.input)
    V, omega = _section(inst, "algebra"), _section(inst, "omega")
    from .constructions import coboundary_transform

    W = coboundary_transform(V, omega)
    _write(args, emit_instance(W.context, algebra=W), stdout=True)
    return EXIT_PASS


def cmd_check_cocycle(args) -> int:
    inst = load_instance(args.input)
    kappa = inst.context.kappa
    ok, witness = is_cocycle(kappa)
    normalized = is_normalized(kappa)
    print(f"cocycle: {'yes' if ok else f'no (violated at {witness})'}")
    print(f"normalized: {'yes' if normalized else 'no'}")
    _write(
        args,
        {
            "status": "pass" if ok and normalized else "fail",
            "cocycle": ok,
            "witness": list(witness) if witness else None,
            "normalized": normalized,
        },
    )
    return EXIT_PASS if ok and normalized else EXIT_FAIL


def cmd_build_simple(args) -> int:
    inst = load_instance(args.input)
    pair = _section(inst, "pair")
    from .constructions import build_simple

    V = build_simple(inst.context, pair)
    _write(args, emit_instance(inst.context, algebra=V), stdout=True)
    return EXIT_PASS


def cmd_extract_pair(args) -> int:
    inst = load_instance(args.input)
    V = _section(inst, "algebra")
    from .constructions import extract_kappa_pair

    pair, _basis = extract_kappa_pair(V)
    _write(args, {**emit_instance(inst.context), "pair": emit_pair(inst.context, pair)}, stdout=True)
    return EXIT_PASS


def cmd_rescale(args) -> int:
    inst = load_instance(args.input)
    V = _section(inst, "algebra")
    if args.z is None:
        raise SchemaError("--z is required", key="<args>")
    z = parse_scalar(inst.context.field, _scalar_arg(args.z, inst.context.field), "--z")
    if inst.context.field.is_zero(z):
        raise SchemaError("--z: rescaling scalar must be nonzero", key="--z")
    _write(args, emit_instance(inst.context, algebra=z_rescale(V, z)), stdout=True)
    return EXIT_PASS


def _scalar_arg(raw: str, field):
    if isinstance(field, PrimeField):
        try:
            return int(raw)
        except ValueError:
            raise SchemaError(f"--z: not an integer scalar: {raw!r}", key="--z")
    return raw


def cmd_pairs_equal(args) -> int:
    if not args.input2:
        raise SchemaError("pairs-equal needs two instance files", key="<args>")
    inst1 = load_instance(args.input)
    inst2 = load_instance(args.input2)
    if inst1.pair is None or inst2.pair is None:
        raise SchemaError("both instances need a 'pair' section", key="pair")
    if inst1.context != inst2.context:
        raise ContextMismatch("the two instances have different contexts")
    from .pairs import pairs_equivalent

    psi = pairs_equivalent(inst1.context, inst1.pair, inst2.pair)
    if psi is None:
        print("pairs: not equivalent")
        _write(args, {"status": "fail", "equivalent": False})
        return EXIT_FAIL
    shown = {str(a): emit_scalar(inst1.context.field, v) for a, v in sorted(psi.items())}
    print(f"pairs: equivalent via psi = {shown}")
    _write(args, {"status": "pass", "equivalent": True, "psi": shown})
    return EXIT_PASS


_COMMANDS = {
    "verify": cmd_verify,
    "cohomology": cmd_cohomology,
    "classify": cmd_classify,
    "transform": cmd_transform,
    "check-cocycle": cmd_check_cocycle,
    "build-simple": cmd_build_simple,
    "extract-pair": cmd_extract_pair,
    "rescale": cmd_rescale,
    "pairs-equal": cmd_pairs_equal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfa",
        description="Exact verification and classification of twisted graded Frobenius algebras.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="instance file (JSON)")
    parser.add_argument("input2", nargs="?", default=None, help="second instance (pairs-equal)")
    parser.add_argument("--degree", type=int, default=None, help="cohomology degree (0..3)")
    parser.add_argument("--z", default=None, help="rescaling scalar")
    parser.add_argument("--emit-algebras", default=None, metavar="DIR")
    parser.add_argument("-o", "--output", default=None, help="output file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        _refuse_unwritable_paths(args)
        return handler(args)
    except (SchemaError, DegreeOutOfRange, NonCyclicUnits, NotNormalized, NotPointed, TooLarge) as err:
        key = getattr(err, "key", None)
        at = f" (at {key})" if key else ""
        print(f"input error{at}: {err}", file=sys.stderr)
        return EXIT_INPUT
    except TFAError as err:
        print(f"failed: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

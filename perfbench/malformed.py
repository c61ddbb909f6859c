"""The malformed-instance corpus: every key of a valid instance, perturbed.

Each case takes a valid instance (Z/2 grading, Z/2 coefficients, F5, with an
algebra, a pair and an omega section), breaks one key in one way (wrong type,
ragged, out of range) and expects the exit code 2 that the README promises
for input that never reaches the kernel.  The command is one that reads the
broken key.  The seed draws the concrete bad values inside each case's
kind, never the kind itself, so the set of cases that fail does not depend
on the seed.
"""

from __future__ import annotations

import copy
import json


def _cases(n: int, p: int, rng):
    """(name, command, mutate) for every perturbation; mutate edits a copy."""
    big = n + rng.randrange(1, 100)
    composite = rng.choice([4, 6, 8, 9, 10, 12, 14, 15])
    frac = rng.choice([0.25, 0.5, 0.75])
    word = rng.choice(["x", "two", "?", "1e"])

    def setter(path, value):
        def mutate(d):
            target = d
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value(target[path[-1]]) if callable(value) else value

        return mutate

    def deleter(path):
        def mutate(d):
            target = d
            for key in path[:-1]:
                target = target[key]
            del target[path[-1]]

        return mutate

    return [
        # field
        ("field:not-object", "verify", setter(["field"], p)),
        ("field:empty", "verify", setter(["field"], {})),
        ("field.prime:string", "verify", setter(["field", "prime"], str(p))),
        ("field.prime:float", "verify", setter(["field", "prime"], p + frac)),
        ("field.prime:composite", "verify", setter(["field", "prime"], composite)),
        ("field.prime:negative", "verify", setter(["field", "prime"], -p)),
        # group
        ("group:not-list", "verify", setter(["group"], word)),
        ("group:flat", "verify", setter(["group"], lambda g: [x for row in g for x in row])),
        ("group:ragged", "verify", setter(["group"], lambda g: [g[0], g[1][:-1]])),
        ("group:out-of-range", "verify", setter(["group"], lambda g: [[big if x else 0 for x in row] for row in g])),
        ("group:string-entries", "verify", setter(["group"], lambda g: [[str(x) for x in row] for row in g])),
        ("group:not-a-group", "verify", setter(["group"], lambda g: [[0] * len(row) for row in g])),
        # module
        ("module:not-object", "verify", setter(["module"], [2])),
        ("module.factors:not-list", "verify", setter(["module", "factors"], 2)),
        ("module.factors:string-entry", "verify", setter(["module", "factors"], [word])),
        ("module.factors:float-entry", "verify", setter(["module", "factors"], [2 + frac])),
        ("module.factors:zero", "verify", setter(["module", "factors"], [0])),
        ("module.action:not-object", "verify", setter(["module", "action"], [[1]])),
        ("module.action:bad-key", "verify", setter(["module", "action"], {word: [[1]]})),
        ("module.action:ragged", "verify", setter(["module", "action"], {"0": [[1]], "1": [[1, 0]]})),
        ("module.action:missing-element", "verify", setter(["module", "action"], {"0": [[1]]})),
        # cocycle
        ("cocycle:not-object", "verify", setter(["cocycle"], [1])),
        ("cocycle:short-key", "verify", setter(["cocycle"], {"1,1": [1]})),
        ("cocycle:out-of-range-index", "verify", setter(["cocycle"], {f"1,1,{big}": [1]})),
        ("cocycle:wrong-length", "verify", setter(["cocycle"], {"1,1,1": [1, 1]})),
        ("cocycle:string-value", "verify", setter(["cocycle"], {"1,1,1": [word]})),
        ("cocycle:not-normalized", "verify", setter(["cocycle"], {"0,1,1": [1]})),
        # algebra
        ("algebra:not-object", "verify", setter(["algebra"], [1])),
        ("algebra.dims:missing", "verify", deleter(["algebra", "dims"])),
        ("algebra.dims:wrong-length", "verify", setter(["algebra", "dims"], lambda d: d + [1])),
        ("algebra.dims:string-entry", "verify", setter(["algebra", "dims"], lambda d: [word] + d[1:])),
        ("algebra.mult:ragged", "verify", setter(["algebra", "mult"], lambda m: [m[0], m[1][:-1]])),
        ("algebra.mult:string-scalar", "verify",
         setter(["algebra", "mult"], lambda m: [[[[[word]]] for _ in row] for row in m])),
        ("algebra.a_action:wrong-length", "verify", setter(["algebra", "a_action"], lambda a: a[:-1])),
        ("algebra.unit:scalar", "verify", setter(["algebra", "unit"], 1)),
        ("algebra.unit:string-entry", "verify", setter(["algebra", "unit"], [word])),
        ("algebra.eta:ragged", "verify", setter(["algebra", "eta"], [[1, 0], [0]])),
        ("algebra.phi:wrong-length", "verify", setter(["algebra", "phi"], lambda ph: ph[:-1])),
        # pair
        ("pair:not-object", "build-simple", setter(["pair"], [1])),
        ("pair.g1:flat", "build-simple", setter(["pair", "g1"], lambda g: g[0])),
        ("pair.g1:ragged", "build-simple", setter(["pair", "g1"], lambda g: [g[0], g[1][:-1]])),
        ("pair.g2:wrong-length", "build-simple", setter(["pair", "g2"], lambda g: g + [1])),
        ("pair.g2:string-entry", "build-simple", setter(["pair", "g2"], [word])),
        # omega
        ("omega:not-object", "transform", setter(["omega"], [1])),
        ("omega:short-key", "transform", setter(["omega"], {"1": [1]})),
        ("omega:not-normalized", "transform", setter(["omega"], {"0,1": [1]})),
    ]


def add_cases(corpus, ctx, rng) -> None:
    """Write every case of the corpus and add its command, expecting exit 2."""
    pkg = corpus.pkg
    pair = pkg.pairs.trivial_pair(ctx)
    V = pkg.build_simple(ctx, pair)
    omega = pkg.Cochain(ctx.module, 2, {(1, 1): (1,)})
    base = pkg.serialize.emit_instance(ctx, algebra=V, pair=pair, omega=omega)
    base["module"]["action"] = {str(g): [[1]] for g in ctx.group.elements()}
    # the unbroken base must pass every command used below
    base_path = corpus.dir / "malformed-base.json"
    base_path.write_text(json.dumps(base, sort_keys=True), encoding="utf-8")
    for command in ("verify", "build-simple", "transform"):
        out = corpus.outpath(f"malformed-base-{command}.json")
        corpus.add(f"malformed-base[{command}]", [command, str(base_path), "-o", out], 0)

    for name, command, mutate in _cases(ctx.group.order, ctx.field.p, rng):
        doc = copy.deepcopy(base)
        mutate(doc)
        path = corpus.dir / f"malformed-{name.replace(':', '-')}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        out = corpus.outpath(f"malformed-{name.replace(':', '-')}-out.json")
        corpus.add(f"malformed[{name}]", [command, str(path), "-o", out], 2, robustness=True)

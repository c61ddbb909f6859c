"""pairs-classify: the classification of simple algebras, then every class.

``classify_simple`` runs on five contexts that cover both paths of
``enumerate_pairs``: the explicit listing (|H| within the enumeration cap,
as for S3 over F7) and the lexicographic-minimum path (|H| = 131072 for
Z4 x Z2).  Every class algebra is then verified, its pair extracted and
compared with a seeded multiple of itself (``pairs_equivalent``), and it is
twisted by a seeded 2-cochain (``coboundary_transform``) and verified again.
The run is dominated by ``pairs``, with ``intmat`` second; it never touches
``cohomology``.

The seed draws the pointed maps psi behind the pair multiples and the
2-cochains omega of the twists.  Pinned per context: the invariant factors,
|H|, |B| and the class count |H| / |B|, times p - 1 for the isomorphism
classes.
"""

from __future__ import annotations

import itertools
import random

from harness import Op

BUDGET_S = 30.0

# name, group, modulus, prime, twisted, (factors, |H|, |B|)
CONTEXTS = (
    ("Z4,Z/2,F5", "Z4", 2, 5, False, ((2, 4), 128, 16)),
    ("S3,Z/2,F5", "S3", 2, 5, False, ((2, 2), 2048, 512)),
    ("S3,Z/2,F7", "S3", 2, 7, False, ((2, 2), 15552, 3888)),
    ("S3,Z/2,F5,sign-twisted", "S3", 2, 5, True, ((2,), 1024, 512)),
    ("Z4xZ2,Z/4,F5", "Z4xZ2", 4, 5, False, ((2, 2, 4, 4), 131072, 2048)),
)


def sign_inflated_cocycle(module):
    """The degree-3 class of Z/2 pulled back along the sign map of S3."""
    from tfalgebra.cochains import Cochain

    G = module.group
    perms = sorted(itertools.permutations(range(3)))
    odd = [sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2 for p in perms]
    table = {
        (a, b, c): (1,) if odd[a] and odd[b] and odd[c] else (0,)
        for a in G.elements()
        for b in G.elements()
        for c in G.elements()
    }
    return Cochain(module, 3, table)


def setup(seed: int):
    import tfalgebra
    from tfalgebra import (
        AlgebraContext,
        PrimeField,
        cyclic_group,
        cyclic_module,
        direct_product,
        symmetric_group,
    )
    from tfalgebra.cochains import Cochain

    groups = {
        "Z4": cyclic_group(4),
        "S3": symmetric_group(3),
        "Z4xZ2": direct_product(cyclic_group(4), cyclic_group(2)),
    }
    contexts = []
    for name, group_name, m, p, twisted, pin in CONTEXTS:
        A = cyclic_module(groups[group_name], m)
        kappa = sign_inflated_cocycle(A) if twisted else Cochain.trivial(A, 3)
        contexts.append((name, AlgebraContext(A.group, A, kappa, PrimeField(p)), pin))
    return {"package": tfalgebra, "contexts": contexts, "seed": seed}


def random_pointed_map(context, rng):
    F, G = context.field, context.group
    units = F.units()
    return {a: F.one if a == G.identity else rng.choice(units) for a in G.elements()}


def random_normalized_2cochain(module, rng):
    from tfalgebra.cochains import Cochain

    e = module.group.identity
    table = {
        (a, b): tuple(rng.randrange(m) for m in module.moduli)
        for a, b in module.group.tuples(2)
        if a != e and b != e
    }
    return Cochain(module, 2, table)


def check_classification(result, pin, p) -> str | None:
    factors, h_order, b_order = pin
    cg = result.class_group
    got = (tuple(cg.invariant_factors), cg.pair_group_order, cg.coboundary_order)
    if got != (tuple(factors), h_order, b_order):
        return f"got factors/|H|/|B| {got}, expected {(tuple(factors), h_order, b_order)}"
    classes = h_order // b_order
    if cg.order != classes or len(result.algebras) != classes or len(result.class_pairs) != classes:
        return f"expected {classes} classes, got {cg.order} / {len(result.algebras)} algebras"
    if result.isomorphism_class_count != classes * (p - 1):
        return f"isomorphism classes {result.isomorphism_class_count}, expected {classes * (p - 1)}"
    return None


def _passed(report) -> str | None:
    return None if report.passed else f"verifier failed: {report.failing_tags()}"


def ops(state, in_process: bool = True):
    pkg = state["package"]
    pairs_mod = pkg.pairs
    for name, ctx, pin in state["contexts"]:
        rng = random.Random(f"{state['seed']}:{name}")
        result = yield Op(
            f"classify[{name}]",
            lambda ctx=ctx: pkg.classify_simple(ctx),
            lambda r, pin=pin, p=ctx.field.p: check_classification(r, pin, p),
            BUDGET_S,
            "pairs",
        )
        if result is None:
            continue
        for i, (V, pair) in enumerate(zip(result.algebras, result.class_pairs)):
            tag = f"{name}#{i}"
            yield Op(f"verify[{tag}]", lambda V=V: pkg.verify(V), _passed, BUDGET_S, "verify")
            yield Op(
                f"extract[{tag}]",
                lambda V=V: pkg.extract_kappa_pair(V),
                lambda got, pair=pair: None if got[0] == pair else "extracted pair differs",
                BUDGET_S,
                "constructions",
            )
            multiple = pairs_mod.pair_mul(
                ctx, pair, pkg.coboundary_pair(ctx, random_pointed_map(ctx, rng))
            )
            yield Op(
                f"equivalent[{tag}]",
                lambda ctx=ctx, pair=pair, multiple=multiple: pkg.pairs_equivalent(ctx, multiple, pair),
                lambda psi: None if psi is not None else "a coboundary multiple was not equivalent",
                BUDGET_S,
                "pairs",
            )
            omega = random_normalized_2cochain(ctx.module, rng)
            kappa_new = pkg.coboundary(omega).mul(ctx.kappa)
            W = yield Op(
                f"transform[{tag}]",
                lambda V=V, omega=omega: pkg.coboundary_transform(V, omega),
                lambda W, kappa_new=kappa_new, dims=V.dims: (
                    None
                    if W.context.kappa == kappa_new and W.dims == dims
                    else "twisted algebra has the wrong cocycle or grading"
                ),
                BUDGET_S,
                "constructions",
            )
            if W is not None:
                yield Op(f"verify-twisted[{tag}]", lambda W=W: pkg.verify(W), _passed, BUDGET_S, "verify")
        if len(result.class_pairs) > 1:
            other = pairs_mod.pair_mul(
                ctx,
                result.class_pairs[1],
                pkg.coboundary_pair(ctx, random_pointed_map(ctx, rng)),
            )
            yield Op(
                f"inequivalent[{name}]",
                lambda ctx=ctx, a=result.class_pairs[0], b=other: pkg.pairs_equivalent(ctx, a, b),
                lambda psi: None if psi is None else "pairs of distinct classes were equivalent",
                BUDGET_S,
                "pairs",
            )

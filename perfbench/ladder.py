"""cohomology-ladder: ``cohomology_group`` on a fixed ladder of rungs.

The run is dominated by ``intmat`` (Hermite and Smith normal forms) and the
coset walk in ``cohomology``; it never touches ``pairs``, ``verify`` or
``serialize``.  The rungs are fixed; the seed changes nothing here.

Every rung pins its invariant factors and, where known, the orders of the
cocycle and coboundary groups.  The factors follow from the universal
coefficient and Kunneth theorems (H^n(Z/m, Z/k) = Z/gcd(m, k) for n >= 1,
dim H^n(Z2^r, F2) = C(n + r - 1, n), |H^3(S3, F2)| = 2); the orders are
|C^{n-1}| / |Z^{n-1}| for the coboundaries and |H^n| |B^n| for the
cocycles.  ``test_perfbench.py`` checks the rungs that fit the enumeration
cap against ``brute_force_cohomology``.

Two rungs time out today and stay in the ladder: H^3(S3, Z/2), and H^2 of
S3 on the sign module Z/3 when odd permutations act by 2, the encoding the
test suite uses.  The same module encoded with -1 finishes, so the second
rung pins the cost of coefficient growth in the Smith form, not the size of
the problem.
"""

from __future__ import annotations

from harness import Op

# Every rung that finishes gets a budget far above its time (the slowest,
# H^2(Z2^3, Z/2), takes 6 to 10 s on a 2-core machine), so that a slow machine
# does not turn it into a timeout.  The two rungs that run past any sane
# budget today are stopped after STUCK_BUDGET_S, charged that time and
# counted as timeouts; the shorter budget keeps them from dominating the run.
# By 10 s their memory has levelled off, so the peak memory of a run does
# not depend on how fast the machine happened to be.
BUDGET_S = 30.0
STUCK_BUDGET_S = 10.0
STUCK = {"H2(S3,Z/3-sign[2])", "H3(S3,Z/2)"}

# name, group, coefficient module, degree, (factors, cocycle order, coboundary order)
RUNGS = (
    ("H2(Z4,Z/2)", "Z4", "Z/2", 2, ((2,), 16, 8)),
    ("H3(Z4,Z/2)", "Z4", "Z/2", 3, ((2,), 2**13, 2**12)),
    ("H2(Z4,Z/4)", "Z4", "Z/4", 2, ((4,), 256, 64)),
    ("H3(Z4,Z/4)", "Z4", "Z/4", 3, ((4,), 4**13, 4**12)),
    ("H2(Z2^2,Z/2)", "Z2^2", "Z/2", 2, ((2, 2, 2), 32, 4)),
    ("H3(Z2^2,Z/2)", "Z2^2", "Z/2", 3, ((2, 2, 2, 2), 2**15, 2**11)),
    ("H2(Z2^2,Z/4)", "Z2^2", "Z/4", 2, ((2, 2, 2), 512, 64)),
    ("H3(Z2^2,Z/4)", "Z2^2", "Z/4", 3, ((2, 2, 2, 2), 2**27, 2**23)),
    ("H2(S3,Z/2)", "S3", "Z/2", 2, ((2,), 64, 32)),
    ("H2(S3,Z/4)", "S3", "Z/4", 2, ((2,), 4096, 2048)),
    ("H2(S3,Z/3-sign[-1])", "S3", "Z/3-sign[-1]", 2, ((3,), 3**5, 3**4)),
    ("H2(S3,Z/3-sign[2])", "S3", "Z/3-sign[2]", 2, ((3,), 3**5, 3**4)),
    ("H2(Z2^3,Z/2)", "Z2^3", "Z/2", 2, ((2,) * 6, 2**11, 2**5)),
    ("H3(S3,Z/2)", "S3", "Z/2", 3, ((2,), 2**31, 2**30)),
)


def _parity(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]) % 2


def build_module(group_name: str, coeff: str):
    """The coefficient module of a rung, built through the public API."""
    import itertools

    from tfalgebra import cyclic_group, cyclic_module, direct_product, symmetric_group
    from tfalgebra.gmodule import GModule

    Z2 = cyclic_group(2)
    groups = {
        "Z4": lambda: cyclic_group(4),
        "Z2^2": lambda: direct_product(Z2, Z2),
        "Z2^3": lambda: direct_product(direct_product(Z2, Z2), Z2),
        "S3": lambda: symmetric_group(3),
    }
    G = groups[group_name]()
    if coeff.startswith("Z/3-sign"):
        odd = -1 if coeff.endswith("[-1]") else 2
        perms = sorted(itertools.permutations(range(3)))
        action = {g: [[odd if _parity(perms[g]) else 1]] for g in G.elements()}
        return GModule(G, (3,), action=action)
    return cyclic_module(G, int(coeff[2:]))


def setup(seed: int):
    """The rungs with their modules; the seed is unused because rungs are fixed."""
    import tfalgebra

    modules = {}
    rungs = []
    for name, group_name, coeff, degree, pin in RUNGS:
        key = (group_name, coeff)
        if key not in modules:
            modules[key] = build_module(group_name, coeff)
        rungs.append((name, modules[key], degree, pin))
    return {"package": tfalgebra, "rungs": rungs}


def check_group(H, pin) -> str | None:
    factors, z_order, b_order = pin
    got = (tuple(H.invariant_factors), H.cocycle_order, H.coboundary_order)
    if got != (tuple(factors), z_order, b_order):
        return f"got factors/cocycles/coboundaries {got}, expected {(tuple(factors), z_order, b_order)}"
    if len(H.representatives) != len(factors):
        return f"{len(H.representatives)} representatives for {len(factors)} factors"
    return None


def ops(state, in_process: bool = True):
    """One op per rung, in ladder order."""
    cohomology_group = state["package"].cohomology_group
    for name, module, degree, pin in state["rungs"]:
        yield Op(
            name=name,
            run=lambda module=module, degree=degree: cohomology_group(module, degree),
            check=lambda H, pin=pin: check_group(H, pin),
            budget=STUCK_BUDGET_S if name in STUCK else BUDGET_S,
            layer="cohomology",
        )

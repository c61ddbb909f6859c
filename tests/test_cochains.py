"""Coboundary formulas, cocycle and normalization predicates, normalization."""

import random

import pytest

from tfalgebra.algebra import AlgebraContext
from tfalgebra.cochains import (
    Cochain,
    coboundary,
    is_cocycle,
    is_normalized,
    normalize_cocycle,
)
from tfalgebra.errors import (
    ContextMismatch,
    DegreeOutOfRange,
    NotACocycle,
    ShapeMismatch,
    TFAError,
)
from tfalgebra.fields import PrimeField
from tfalgebra.gmodule import GModule, cyclic_module
from tfalgebra.groups import cyclic_group, symmetric_group
from tfalgebra.serialize import dump_json, emit_instance, load_instance


def sign_action_module(group, m):
    """Z/m with inversion on odd permutations (trivial when m <= 2)."""
    action = {}
    for g in group.elements():
        # in S3 with lexicographic permutation order, parity comes from the table
        action[g] = [[1]]
    return GModule(group, (m,), action=action)


def s3_sign_module(m):
    """Z/m with g acting by inversion iff g is an odd permutation of S3."""
    import itertools

    G = symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))

    def parity(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return inv % 2

    action = {g: [[(m - 1) if parity(perms[g]) else 1]] for g in G.elements()}
    return GModule(G, (m,), action=action)


CONTEXTS = [
    cyclic_module(cyclic_group(2), 4),
    cyclic_module(cyclic_group(3), 3),
    s3_sign_module(2),
]


def test_constant_trivial_cochain_has_trivial_coboundary():
    for A in CONTEXTS:
        for n in range(4):
            c = Cochain.trivial(A, n)
            assert coboundary(c).is_trivial()


def test_degree_two_normalized_example():
    # Z/2, Z/2 coefficients: normalized table with w(s, s) = a has
    # d2(w)(s, s, s) = w(s,s) - w(0,s) + w(s,0) - w(s,s) = 0
    A = cyclic_module(cyclic_group(2), 2)
    w = Cochain(A, 2, {(1, 1): (1,)})
    d = coboundary(w)
    assert d.table[(1, 1, 1)] == (0,)


def test_coboundary_squares_to_trivial():
    rng = random.Random(20240803)
    count = 0
    for A in CONTEXTS:
        for n in (0, 1, 2):
            for _ in range(25):
                c = Cochain.random(A, n, rng)
                assert coboundary(coboundary(c)).is_trivial()
                count += 1
    assert count == 225


def test_coboundary_squares_to_trivial_exhaustive_tiny():
    """On instances small enough, run over every cochain rather than a sample."""
    import itertools

    tiny = [
        cyclic_module(cyclic_group(2), 2),
        GModule(cyclic_group(2), (3,), action={0: [[1]], 1: [[2]]}),
    ]
    for A in tiny:
        for n in (0, 1, 2):
            keys = list(A.group.tuples(n))
            if A.size ** len(keys) > 1 << 12:
                continue
            for values in itertools.product(list(A.elements()), repeat=len(keys)):
                c = Cochain(A, n, dict(zip(keys, values)))
                assert coboundary(coboundary(c)).is_trivial()


def reference_coboundary(c):
    """The four formulas of the ``cochains`` docstring, written out pointwise."""
    A, G, f = c.module, c.module.group, c.value
    act, mul, inv, g = A.act, A.mul, A.inv, G.mul
    table = {}
    if c.degree == 0:
        for (x,) in G.tuples(1):
            table[(x,)] = mul(act(x, f()), inv(f()))
    elif c.degree == 1:
        for x, y in G.tuples(2):
            table[(x, y)] = mul(mul(act(x, f(y)), inv(f(g(x, y)))), f(x))
    elif c.degree == 2:
        for x, y, z in G.tuples(3):
            v = mul(act(x, f(y, z)), inv(f(g(x, y), z)))
            table[(x, y, z)] = mul(mul(v, f(x, g(y, z))), inv(f(x, y)))
    else:
        for x, y, z, w in G.tuples(4):
            v = mul(act(x, f(y, z, w)), inv(f(g(x, y), z, w)))
            v = mul(mul(v, f(x, g(y, z), w)), inv(f(x, y, g(z, w))))
            table[(x, y, z, w)] = mul(v, f(x, y, z))
    return Cochain(A, c.degree + 1, table)


def test_coboundary_matches_the_written_formulas():
    rng = random.Random(314)
    modules = [
        s3_sign_module(3),
        GModule(cyclic_group(2), (2, 2), action={0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 0]]}),
    ]
    for A in modules:
        for n in range(4):
            for _ in range(5):
                c = Cochain.random(A, n, rng)
                assert coboundary(c) == reference_coboundary(c), (A, n)


def test_degree_cap():
    A = cyclic_module(cyclic_group(2), 2)
    top = Cochain.trivial(A, 4)
    with pytest.raises(DegreeOutOfRange):
        coboundary(top)


def test_mismatched_cochains_raise_library_errors():
    G = cyclic_group(2)
    c2 = Cochain.trivial(cyclic_module(G, 2), 2)
    with pytest.raises(ShapeMismatch):
        c2.value(1, 1, 1)
    with pytest.raises(ShapeMismatch):
        c2.mul(Cochain.trivial(cyclic_module(G, 2), 3))
    with pytest.raises(ContextMismatch):
        c2.mul(Cochain.trivial(cyclic_module(G, 4), 2))


def test_bad_cochain_input_raises_library_errors(tmp_path):
    # all are bad mathematical input, so ``except TFAError`` must catch them
    A = cyclic_module(cyclic_group(2), 2)
    bad = Cochain(A, 3, {(1, 1, 0): (1,)})
    with pytest.raises(TFAError) as err:
        normalize_cocycle(bad)
    assert isinstance(err.value, NotACocycle)
    assert err.value.witness == is_cocycle(bad)[1]
    # a value outside the module, a key outside G^n or of the wrong arity, and
    # a bool, which is no module entry (it would be written as JSON true)
    for table in ({(1, 1): (2,)}, {(5, 7): (1,)}, {(1, 1, 1): (1,)}, {(1, 1): (True,)}):
        with pytest.raises(TFAError) as err:
            Cochain(A, 2, table)
        assert isinstance(err.value, ShapeMismatch), table
    # the flat constructor takes exactly |G|^n * rank integers
    for vec in ([1, 0, 1], [1, 0, 1, 1, 0], [1, 0, 1, True]):
        with pytest.raises(ShapeMismatch):
            Cochain.from_vector(A, 2, vec)
    # what is accepted is written and read back unchanged
    G = A.group
    ctx = AlgebraContext(G, A, Cochain(A, 3, {(1, 1, 1): (1,)}), PrimeField(5))
    path = tmp_path / "z2.json"
    path.write_text(dump_json(emit_instance(ctx)), encoding="utf-8")
    assert load_instance(str(path)).context == ctx


def test_is_cocycle_nontrivial_example():
    # the nontrivial class on Z/2 with Z/2 coefficients: value a at (s,s,s)
    A = cyclic_module(cyclic_group(2), 2)
    kappa = Cochain(A, 3, {(1, 1, 1): (1,)})
    ok, witness = is_cocycle(kappa)
    assert ok and witness is None
    # a one-entry table that is not a cocycle, with witness
    bad = Cochain(A, 3, {(1, 1, 0): (1,)})
    ok, witness = is_cocycle(bad)
    assert not ok and witness is not None


def test_is_normalized():
    A = cyclic_module(cyclic_group(2), 2)
    assert is_normalized(Cochain.trivial(A, 3))
    assert is_normalized(Cochain(A, 3, {(1, 1, 1): (1,)}))
    assert not is_normalized(Cochain(A, 2, {(0, 1): (1,)}))
    with pytest.raises(DegreeOutOfRange):
        is_normalized(Cochain.trivial(A, 1))


def test_normalize_already_normalized_is_identity():
    A = cyclic_module(cyclic_group(2), 2)
    kappa = Cochain(A, 3, {(1, 1, 1): (1,)})
    k2, omega = normalize_cocycle(kappa)
    assert k2 == kappa
    assert omega.is_trivial()


def test_normalize_random_cocycles():
    """Shift normalized cocycles by random coboundaries and re-normalize."""
    rng = random.Random(99)
    for A in CONTEXTS:
        base = Cochain.trivial(A, 3)
        for _ in range(10):
            shift = coboundary(Cochain.random(A, 2, rng))
            kappa = shift.mul(base)
            assert is_cocycle(kappa)[0]
            k2, omega = normalize_cocycle(kappa)
            assert is_normalized(k2)
            assert is_cocycle(k2)[0]
            assert k2 == coboundary(omega).mul(kappa)


def test_normalize_preserves_class_with_nontrivial_start():
    A = cyclic_module(cyclic_group(2), 2)
    rng = random.Random(5)
    kappa0 = Cochain(A, 3, {(1, 1, 1): (1,)})
    for _ in range(10):
        shift = coboundary(Cochain.random(A, 2, rng))
        kappa = shift.mul(kappa0)
        k2, omega = normalize_cocycle(kappa)
        assert is_normalized(k2) and is_cocycle(k2)[0]
        # same class: the ratio to kappa0 must be a coboundary; over this tiny
        # module just enumerate all 2-cochains
        ratio = k2.mul(kappa0.inv())
        all_coboundaries = set()
        for bits in range(2 ** 4):
            table = {}
            for i, key in enumerate(A.group.tuples(2)):
                table[key] = ((bits >> i) & 1,)
            all_coboundaries.add(coboundary(Cochain(A, 2, table)))
        assert ratio in all_coboundaries

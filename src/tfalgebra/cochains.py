"""Cochains on a finite group with coefficients in a finite module.

A degree-n cochain is a function G^n -> A stored as one flat tuple of ints,
``values``: the exponent vectors of its values, tuple after tuple in
``G.tuples(n)`` order, so the value at the T-th tuple is
``values[T*k:(T+1)*k]`` for a module of rank k.  The normal-form route of
:mod:`cohomology` works on the normalized cochains, which vanish at every
tuple with the unit in some slot, in the same order restricted to the other
tuples, and zero-pads its representatives back to this layout.  Degrees
0..4 are supported; the coboundary is defined for degrees 0..3 (degree 4
exists only so that degree-3 coboundaries have a home).

The coefficient group is written multiplicatively to match the algebra
layer, so the coboundary alternates between a value, its inverse, and the
group action on the leading slot:

    d0(a)(x)        = (x.a) * a^-1
    d1(f)(x,y)      = (x.f(y)) * f(xy)^-1 * f(x)
    d2(f)(x,y,z)    = (x.f(y,z)) * f(xy,z)^-1 * f(x,yz) * f(x,y)^-1
    d3(f)(x,y,z,w)  = (x.f(y,z,w)) * f(xy,z,w)^-1 * f(x,yz,w) * f(x,y,zw)^-1 * f(x,y,z)

All four are summed from the cochain's nonzero values by
:func:`coboundary_values`: the value at u reaches (g, u) through the leading
face, acted on by g, every target whose slots i-1 and i multiply to u[i-1]
through face i with sign (-1)^i, and (u, g) through the last face with sign
(-1)^(n+1).
"""

from __future__ import annotations

from itertools import islice
from types import MappingProxyType

from .errors import ContextMismatch, DegreeOutOfRange, NotACocycle, NotNormalized, ShapeMismatch
from .gmodule import GModule

MAX_DEGREE = 4


def _check_degree(degree: int) -> None:
    if not (0 <= degree <= MAX_DEGREE):
        raise DegreeOutOfRange(f"degree {degree} outside 0..{MAX_DEGREE}")


def _tuple_index(order: int, degree: int, key) -> int:
    """The position of ``key`` in ``G.tuples(degree)`` order."""
    if not (
        isinstance(key, tuple)
        and len(key) == degree
        and all(type(a) is int and 0 <= a < order for a in key)
    ):
        raise ShapeMismatch(f"{key!r} is not a {degree}-tuple of group elements")
    T = 0
    for a in key:
        T = T * order + a
    return T


class Cochain:
    """A map G^n -> A as a flat exponent vector."""

    __slots__ = ("module", "degree", "values")

    def __init__(self, module: GModule, degree: int, table: dict):
        """The cochain with the given values; tuples left out map to the unit."""
        _check_degree(degree)
        G, k = module.group, module.rank
        values = [0] * (k * G.order**degree)
        for key, value in table.items():
            T = _tuple_index(G.order, degree, key)
            if not (
                isinstance(value, tuple)
                and len(value) == k
                and all(type(x) is int and 0 <= x < m for x, m in zip(value, module.moduli))
            ):
                raise ShapeMismatch(f"cochain value {value!r} at {key} is not in the module")
            values[T * k : T * k + k] = value
        self.module, self.degree, self.values = module, degree, tuple(values)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_vector(cls, module: GModule, degree: int, vec) -> "Cochain":
        """The cochain with flat exponent vector ``vec``, each entry reduced."""
        _check_degree(degree)
        mvec = module.moduli * module.group.order**degree
        if len(vec) != len(mvec) or any(type(x) is not int for x in vec):
            raise ShapeMismatch(f"a {degree}-cochain needs {len(mvec)} integers")
        c = cls.__new__(cls)
        c.module, c.degree = module, degree
        c.values = tuple(x % m for x, m in zip(vec, mvec))
        return c

    @classmethod
    def trivial(cls, module: GModule, degree: int) -> "Cochain":
        return cls(module, degree, {})

    @classmethod
    def random(cls, module: GModule, degree: int, rng) -> "Cochain":
        count = module.group.order**degree
        return cls.from_vector(
            module, degree, [rng.randrange(m) for _ in range(count) for m in module.moduli]
        )

    # -- reading ----------------------------------------------------------------
    def value(self, *args) -> tuple[int, ...]:
        k = self.module.rank
        T = _tuple_index(self.module.group.order, self.degree, args)
        return self.values[T * k : T * k + k]

    def entries(self) -> list[tuple[int, ...]]:
        """The value at each tuple, in ``G.tuples(degree)`` order."""
        k, v = self.module.rank, self.values
        return [v[T * k : T * k + k] for T in range(self.module.group.order**self.degree)]

    @property
    def table(self):
        """A read-only view {n-tuple: value}."""
        return MappingProxyType(dict(zip(self.module.group.tuples(self.degree), self.entries())))

    # -- pointwise group structure ----------------------------------------------
    def mul(self, other: "Cochain") -> "Cochain":
        if other.module != self.module:
            raise ContextMismatch("cochains over different modules")
        if other.degree != self.degree:
            raise ShapeMismatch(f"cochains of degrees {self.degree} and {other.degree}")
        vec = [x + y for x, y in zip(self.values, other.values)]
        return Cochain.from_vector(self.module, self.degree, vec)

    def inv(self) -> "Cochain":
        return Cochain.from_vector(self.module, self.degree, [-x for x in self.values])

    def is_trivial(self) -> bool:
        return not any(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and other.module == self.module
            and other.degree == self.degree
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.degree, self.values))

    def __repr__(self):
        return f"Cochain(degree={self.degree}, support={sum(map(any, self.entries()))})"


def coboundary_values(module: GModule, degree: int, vec) -> list[int]:
    """The flat exponent vector of d(vec), reduced, summed from vec's nonzero coordinates.

    The value v at source tuple u reaches |G| targets per face: (g, u) by
    g.v, and for face p the targets whose slot p-1 is g and whose face p is
    u by (-1)^p v.  A target that no nonzero coordinate reaches is 0.
    """
    G, k, n = module.group, module.rank, degree
    q, table, inverse = G.order, G.table, G.inverse
    out = [0] * (k * q ** (n + 1))
    # per source factor j: the offset of (g, u)'s factor i from u's j, and g.e_j's entry i
    lead = [[(g * q**n * k + i - j, M[i][j]) for g, M in module.action.items() for i in range(k)
             if M[i][j]] for j in range(k)]
    # per face p: u's place values at slots p-1 and p-2, the sign, and per value a
    # of u's slot p-1 the offsets of the targets' slots p-1 and p, (g, g^-1 a); the
    # last face appends g to u
    faces = []
    for p in range(1, n + 1):
        low = q ** (n - p)
        offsets = [[(g * q + table[inverse[g]][a]) * low * k for g in range(q)] for a in range(q)]
        faces.append((low, low * q, (-1) ** p, offsets))
    faces.append((1, 1, (-1) ** (n + 1), [[g * k for g in range(q)]] * q))
    for s, v in enumerate(vec):
        if v:
            U, j = divmod(s, k)
            for off, a in lead[j]:
                out[s + off] += a * v
            for low, high, sign, offsets in faces:
                base, sv = (U // high * q * high + U % low) * k + j, sign * v
                for off in offsets[U // low % q]:
                    out[base + off] += sv
    for i, m in enumerate(module.moduli):
        out[i::k] = [x % m for x in out[i::k]]
    return out


def coboundary(c: Cochain) -> Cochain:
    """The coboundary of a cochain of degree <= 3."""
    n = c.degree
    if n > 3:
        raise DegreeOutOfRange(f"no coboundary implemented above degree 3 (got {n})")
    d = Cochain.__new__(Cochain)  # coboundary_values reduces already: no second pass
    d.module, d.degree, d.values = c.module, n + 1, tuple(coboundary_values(c.module, n, c.values))
    return d


def _violation(module: GModule, degree: int, values) -> tuple | None:
    """The first (degree+1)-tuple where the coboundary of ``values`` is nontrivial."""
    for pos, x in enumerate(coboundary_values(module, degree, values)):
        if x:
            return next(islice(module.group.tuples(degree + 1), pos // module.rank, None))
    return None


def is_cocycle(c: Cochain) -> tuple[bool, tuple | None]:
    """Is the coboundary identically trivial?  Returns (flag, first witness)."""
    if c.degree > 3:
        raise DegreeOutOfRange("cocycle test only defined for degrees 0..3")
    witness = _violation(c.module, c.degree, c.values)
    return witness is None, witness


def is_normalized(c: Cochain) -> bool:
    """True iff every value at a tuple with the group unit in some slot is trivial."""
    if c.degree not in (2, 3):
        raise DegreeOutOfRange("normalization is defined for degrees 2 and 3")
    # the tuples with the unit in slot s are |G|^s runs of |G|^(degree-1-s) tuples each
    n, e, d, v = c.module.group.order, c.module.group.identity, c.degree, c.values
    runs = ((n ** (d - 1 - s) * c.module.rank, H) for s in range(d) for H in range(n**s))
    return not any(any(v[(H * n + e) * w : (H * n + e + 1) * w]) for w, H in runs)


def normalize_cocycle(kappa: Cochain) -> tuple[Cochain, Cochain]:
    """Normalize a 3-cocycle within its class.

    Returns (kappa', omega) with kappa' normalized, cohomologous to the
    input, and kappa' == coboundary(omega) * kappa exactly.

    The correction is assembled in two sweeps: one 2-cochain supported on the
    (unit, -) column kills the values with the unit in the first slot, a
    second one supported on the (-, unit) column kills the middle slot; the
    last slot then vanishes automatically by the cocycle identity.
    """
    if kappa.degree != 3:
        raise DegreeOutOfRange("normalization input must be a 3-cochain")
    ok, witness = is_cocycle(kappa)
    if not ok:
        raise NotACocycle(f"input is not a cocycle (violated at {witness})", witness)
    A = kappa.module
    G = A.group
    e = G.identity

    w1 = Cochain(A, 2, {(e, b): A.inv(kappa.value(e, e, b)) for b in G.elements()})
    k1 = coboundary(w1).mul(kappa)
    w2 = Cochain(A, 2, {(a, e): k1.value(a, e, e) for a in G.elements()})
    k2 = coboundary(w2).mul(k1)

    omega = w1.mul(w2)
    ok, witness = is_cocycle(k2)
    if not ok:
        raise NotACocycle(f"normalization broke the cocycle condition at {witness}", witness)
    if not is_normalized(k2):
        raise NotNormalized("normalization did not reach a normalized cocycle")
    if k2 != coboundary(omega).mul(kappa):
        raise NotACocycle("the normalized cocycle is not the input times the coboundary of omega")
    return k2, omega

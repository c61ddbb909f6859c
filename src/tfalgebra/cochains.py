"""Cochains on a finite group with coefficients in a finite module.

A degree-n cochain is a function G^n -> A stored densely, keyed by tuples of
element indices.  Degrees 0..4 are supported; the coboundary is defined for
degrees 0..3 (degree 4 exists only so that degree-3 coboundaries have a
home).

The coefficient group is written multiplicatively to match the algebra
layer, so the coboundary alternates between a value, its inverse, and the
group action on the leading slot:

    d0(a)(x)        = (x.a) * a^-1
    d1(f)(x,y)      = (x.f(y)) * f(xy)^-1 * f(x)
    d2(f)(x,y,z)    = (x.f(y,z)) * f(xy,z)^-1 * f(x,yz) * f(x,y)^-1
    d3(f)(x,y,z,w)  = (x.f(y,z,w)) * f(xy,z,w)^-1 * f(x,yz,w) * f(x,y,zw)^-1 * f(x,y,z)
"""

from __future__ import annotations

from .errors import ContextMismatch, DegreeOutOfRange, NotACocycle, NotNormalized, ShapeMismatch
from .gmodule import GModule

MAX_DEGREE = 4


class Cochain:
    """A map G^n -> A as a dense table."""

    __slots__ = ("module", "degree", "table")

    def __init__(self, module: GModule, degree: int, table):
        if not (0 <= degree <= MAX_DEGREE):
            raise DegreeOutOfRange(f"degree {degree} outside 0..{MAX_DEGREE}")
        self.module = module
        self.degree = degree
        G = module.group
        full = {}
        for key in G.tuples(degree):
            value = table.get(key, module.one()) if isinstance(table, dict) else table(key)
            if not module.check(value):
                raise ShapeMismatch(f"cochain value {value!r} at {key} is not in the module")
            full[key] = value
        self.table = full

    # -- constructors ----------------------------------------------------------
    @classmethod
    def trivial(cls, module: GModule, degree: int) -> "Cochain":
        return cls(module, degree, {})

    @classmethod
    def random(cls, module: GModule, degree: int, rng) -> "Cochain":
        table = {}
        for key in module.group.tuples(degree):
            table[key] = tuple(rng.randrange(m) for m in module.moduli)
        return cls(module, degree, table)

    # -- pointwise group structure ----------------------------------------------
    def value(self, *args) -> tuple[int, ...]:
        if len(args) != self.degree:
            raise ShapeMismatch(
                f"a {self.degree}-cochain takes {self.degree} arguments, not {len(args)}"
            )
        return self.table[tuple(args)]

    def mul(self, other: "Cochain") -> "Cochain":
        if other.module != self.module:
            raise ContextMismatch("cochains over different modules")
        if other.degree != self.degree:
            raise ShapeMismatch(f"cochains of degrees {self.degree} and {other.degree}")
        A = self.module
        return Cochain(
            A, self.degree, {k: A.mul(v, other.table[k]) for k, v in self.table.items()}
        )

    def inv(self) -> "Cochain":
        A = self.module
        return Cochain(A, self.degree, {k: A.inv(v) for k, v in self.table.items()})

    def is_trivial(self) -> bool:
        one = self.module.one()
        return all(v == one for v in self.table.values())

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and other.module == self.module
            and other.degree == self.degree
            and other.table == self.table
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.table.items()))))

    def __repr__(self):
        return f"Cochain(degree={self.degree}, support={sum(1 for v in self.table.values() if any(v))})"

    # -- flat exponent-vector view (for the linear-algebra solvers) -------------
    def to_vector(self) -> list[int]:
        G, A = self.module.group, self.module
        out: list[int] = []
        for key in G.tuples(self.degree):
            out.extend(self.table[key])
        return out

    @classmethod
    def from_vector(cls, module: GModule, degree: int, vec) -> "Cochain":
        G, k = module.group, module.rank
        table = {}
        pos = 0
        for key in G.tuples(degree):
            table[key] = tuple(int(vec[pos + i]) % module.moduli[i] for i in range(k))
            pos += k
        return cls(module, degree, table)


def coboundary(c: Cochain) -> Cochain:
    """The coboundary of a cochain of degree <= 3."""
    n = c.degree
    if n > 3:
        raise DegreeOutOfRange(f"no coboundary implemented above degree 3 (got {n})")
    A = c.module
    G = A.group
    table = {}
    if n == 0:
        a = c.table[()]
        for (x,) in G.tuples(1):
            table[(x,)] = A.mul(A.act(x, a), A.inv(a))
    elif n == 1:
        for x, y in G.tuples(2):
            v = A.act(x, c.table[(y,)])
            v = A.mul(v, A.inv(c.table[(G.mul(x, y),)]))
            v = A.mul(v, c.table[(x,)])
            table[(x, y)] = v
    elif n == 2:
        for x, y, z in G.tuples(3):
            v = A.act(x, c.table[(y, z)])
            v = A.mul(v, A.inv(c.table[(G.mul(x, y), z)]))
            v = A.mul(v, c.table[(x, G.mul(y, z))])
            v = A.mul(v, A.inv(c.table[(x, y)]))
            table[(x, y, z)] = v
    else:
        for x, y, z, w in G.tuples(4):
            v = A.act(x, c.table[(y, z, w)])
            v = A.mul(v, A.inv(c.table[(G.mul(x, y), z, w)]))
            v = A.mul(v, c.table[(x, G.mul(y, z), w)])
            v = A.mul(v, A.inv(c.table[(x, y, G.mul(z, w))]))
            v = A.mul(v, c.table[(x, y, z)])
            table[(x, y, z, w)] = v
    return Cochain(A, n + 1, table)


def is_cocycle(c: Cochain) -> tuple[bool, tuple | None]:
    """Is the coboundary identically trivial?  Returns (flag, first witness)."""
    if c.degree > 3:
        raise DegreeOutOfRange("cocycle test only defined for degrees 0..3")
    d = coboundary(c)
    one = c.module.one()
    for key in c.module.group.tuples(d.degree):
        if d.table[key] != one:
            return False, key
    return True, None


def is_normalized(c: Cochain) -> bool:
    """True iff every table entry with the group unit in some slot is trivial."""
    if c.degree not in (2, 3):
        raise DegreeOutOfRange("normalization is defined for degrees 2 and 3")
    e = c.module.group.identity
    one = c.module.one()
    return all(v == one for k, v in c.table.items() if e in k)


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

    omega1 = {}
    for b in G.elements():
        omega1[(e, b)] = A.inv(kappa.table[(e, e, b)])
    w1 = Cochain(A, 2, omega1)
    k1 = coboundary(w1).mul(kappa)

    omega2 = {}
    for a in G.elements():
        omega2[(a, e)] = k1.table[(a, e, e)]
    w2 = Cochain(A, 2, omega2)
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

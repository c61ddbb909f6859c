"""Exact scalar fields: prime fields F_p and the rationals.

No floating point is used anywhere in the library; every scalar is either a
Python int reduced mod p or a :class:`fractions.Fraction`.  A field object
bundles the arithmetic so that matrix code and the algebra verifier can stay
generic.  :mod:`fractions` is imported where a rational is made, first in
:class:`RationalField`, so work over F_p never loads it.

For F_p the unit group F_p* is cyclic of order p-1.  :class:`PrimeField`
exposes a discrete-log table against the smallest primitive root, which is
what lets scalar-valued cochain problems be linearized over Z/(p-1).
"""

from __future__ import annotations

from .errors import NonCyclicUnits, NoSolution, TFAError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; n must be >= 1."""
    if n < 1:
        raise NoSolution(f"{n} has no prime factorization")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Field:
    """Common interface: elements are opaque values manipulated through me."""

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def power(self, a, k: int):
        """a**k for any integer k (negative k inverts first)."""
        if k < 0:
            a = self.inv(a)
            k = -k
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out


class PrimeField(Field):
    """F_p with elements the ints 0..p-1.

    >>> F = PrimeField(5)
    >>> F.inv(2)
    3
    >>> F.primitive_root
    2
    >>> F.dlog(4), F.unit_exp(2)
    (2, 4)
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonCyclicUnits(f"{p} is not prime")
        if p > 2**31:
            raise TFAError(f"prime {p} exceeds the supported bound 2**31")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self._dlog: dict[int, int] | None = None
        self._root: int | None = None

    # -- arithmetic ---------------------------------------------------------
    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inversion of zero in F_p")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        # the residue, as in inv: an unreduced 5 over F_5 is zero
        return a % self.p == 0

    # -- unit group as a cyclic group of order p-1 --------------------------
    @property
    def unit_order(self) -> int:
        return self.p - 1

    @property
    def primitive_root(self) -> int:
        """Smallest generator of F_p*; cached."""
        if self._root is None:
            self._root = self._find_root()
        return self._root

    def _find_root(self) -> int:
        n = self.p - 1
        if n == 1:
            return 1
        primes = list(factorize(n))
        for g in range(2, self.p):
            if all(pow(g, n // q, self.p) != 1 for q in primes):
                return g
        raise AssertionError("no primitive root found")  # unreachable for prime p

    def dlog(self, a: int) -> int:
        """Exponent k with root**k = a, for a in F_p*."""
        if self._dlog is None:
            table = {}
            g, x = self.primitive_root, 1
            for k in range(self.p - 1):
                table[x] = k
                x = (x * g) % self.p
            self._dlog = table
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        return self._dlog[a]

    def unit_exp(self, k: int) -> int:
        """root**k mod p."""
        return pow(self.primitive_root, k % (self.p - 1) if self.p > 2 else 0, self.p)

    def units(self) -> list[int]:
        return list(range(1, self.p))

    # -- identity -----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField(Field):
    """The rationals with arbitrary-precision integers.

    >>> Q = RationalField()
    >>> Q.inv(Fraction(4))
    Fraction(1, 4)
    """

    def __init__(self):
        from fractions import Fraction

        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero in Q")
        return self.one / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"

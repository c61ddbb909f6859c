"""Finite abelian coefficient groups with a left action of a finite group.

The coefficient group A is presented as a product of cyclic factors
Z/m_1 x ... x Z/m_k.  Elements are exponent tuples (written multiplicatively
in the algebra layer: the product of two elements adds exponents).  The
action of a group element is an automorphism given by an integer matrix;
column j of the matrix says where the j-th cyclic generator goes.  Only the
matrices are checked, so A may be of any size; code that reads every element
lists A through :meth:`GModule.elements`, which stops at ``DEFAULT_ENUM_CAP``.

The same class doubles as the additive avatar of a finite cyclic scalar
group: F_p* with trivial action is ``GModule(G, (p-1,))`` after taking
discrete logs.
"""

from __future__ import annotations

import itertools
from math import prod

from .errors import NotAModule, TooLarge
from .groups import FiniteGroup

# The most elements GModule.elements() lists, and the default cap of every enumeration.
DEFAULT_ENUM_CAP = 1 << 16


class GModule:
    """A = prod Z/m_i with a left action of ``group`` by automorphisms.

    ``action`` maps each group element index to a k x k integer matrix M;
    the action sends exponent vector a to (M @ a) mod moduli, i.e.
    result[i] = sum_j M[i][j] * a[j] mod m_i.  ``None`` means the trivial
    action.  Entries are stored reduced modulo their row's modulus, so
    ``-1`` and ``2`` on Z/3 give the same module.

    >>> from .groups import cyclic_group
    >>> A = GModule(cyclic_group(2), (3,), action={0: [[1]], 1: [[2]]})
    >>> A.act(1, (1,))
    (2,)
    """

    __slots__ = ("group", "moduli", "action", "size", "rank")

    def __init__(self, group: FiniteGroup, moduli, action=None):
        moduli = tuple(int(m) for m in moduli)
        for m in moduli:
            if m < 1:
                raise NotAModule(f"cyclic factor modulus {m} must be >= 1")
        self.group = group
        self.moduli = moduli
        self.rank = len(moduli)
        self.size = prod(moduli) if moduli else 1

        k = self.rank
        ident = self._identity()
        if action is None:
            mats = {g: ident for g in group.elements()}
        else:
            mats = {}
            for g in group.elements():
                if g not in action:
                    raise NotAModule(f"action matrix missing for group element {g}", witness=(g,))
                M = tuple(tuple(int(x) for x in row) for row in action[g])
                if len(M) != k or any(len(row) != k for row in M):
                    raise NotAModule(f"action matrix for element {g} is not {k}x{k}", witness=(g,))
                M = tuple(tuple(x % m for x in row) for row, m in zip(M, moduli))
                mats[g] = M
        self.action = mats
        self._validate()

    # -- validation ------------------------------------------------------------
    def _validate(self) -> None:
        G, k = self.group, self.rank
        if self.action[G.identity] != self._identity():
            raise NotAModule("identity element must act as the identity matrix", witness=(G.identity,))
        # well-definedness: column j is killed by m_j in every row's modulus
        for g in G.elements():
            M = self.action[g]
            for i in range(k):
                for j in range(k):
                    if (M[i][j] * self.moduli[j]) % self.moduli[i] != 0:
                        raise NotAModule(
                            f"action of {g} is not well defined at entry ({i},{j})",
                            witness=(g, i, j),
                        )
        # homomorphism: matrix(a*b) == matrix(a) . matrix(b) mod row moduli; with
        # M_e = I it gives M_g M_(g^-1) = I, so every action is an automorphism
        for a in G.elements():
            for b in G.elements():
                Mab = self.action[G.mul(a, b)]
                Ma, Mb = self.action[a], self.action[b]
                for i in range(k):
                    for j in range(k):
                        s = sum(Ma[i][t] * Mb[t][j] for t in range(k))
                        if (s - Mab[i][j]) % self.moduli[i] != 0:
                            raise NotAModule(
                                f"action is not a homomorphism at ({a},{b})",
                                witness=(a, b, i, j),
                            )

    # -- element operations ------------------------------------------------------
    def one(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def act(self, g: int, a) -> tuple[int, ...]:
        M = self.action[g]
        return tuple(
            sum(M[i][j] * a[j] for j in range(self.rank)) % self.moduli[i]
            for i in range(self.rank)
        )

    def elements(self):
        """All elements in mixed-radix (lexicographic) order; the one lister of A."""
        if self.size > DEFAULT_ENUM_CAP:
            raise TooLarge(f"module of size {self.size} exceeds the listing cap {DEFAULT_ENUM_CAP}")
        return itertools.product(*(range(m) for m in self.moduli))

    def generators(self) -> list[tuple[int, ...]]:
        """The cyclic generators, reduced: the generator of Z/1 is (0,)."""
        return [
            tuple(int(i == j) % m for j, m in enumerate(self.moduli)) for i in range(self.rank)
        ]

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    def _identity(self) -> tuple[tuple[int, ...], ...]:
        """The identity matrix, reduced like every action matrix."""
        k = self.rank
        return tuple(tuple(int(i == j) % m for j in range(k)) for i, m in enumerate(self.moduli))

    def has_trivial_action(self) -> bool:
        ident = self._identity()
        return all(self.action[g] == ident for g in self.group.elements())

    def __eq__(self, other):
        return (
            isinstance(other, GModule)
            and other.group == self.group
            and other.moduli == self.moduli
            and other.action == self.action
        )

    def __hash__(self):
        return hash((self.group, self.moduli, tuple(sorted(self.action.items()))))

    def __repr__(self):
        return f"GModule(moduli={self.moduli}, |G|={self.group.order})"


def trivial_module(group: FiniteGroup) -> GModule:
    """The one-element coefficient group."""
    return GModule(group, ())


def cyclic_module(group: FiniteGroup, m: int, action=None) -> GModule:
    return GModule(group, (m,), action=action)

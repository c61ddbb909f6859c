"""The twisted graded Frobenius algebra data type.

An algebra lives over a context (G, A, kappa, K): a finite group G, a finite
G-module A, a normalized 3-cocycle kappa on G with values in A, and an exact
scalar field K.  The carrier is a G-graded family of finite-dimensional
K-spaces V_a with

* a multiplication tensor per component pair (associative up to the
  kappa-value acting on the target component),
* an action of A on every component (through which all kappa-values act),
* a distinguished unit vector in the identity component,
* a symmetric inner product on the identity component, and
* a conjugation family phi[b] mapping V_a -> V_{b a b^-1}.

Blocks use the row-as-image convention: row i of ``phi[b][a]`` is the image
of the i-th basis vector of V_a.  The constructor validates shapes only; the
axioms themselves are the verifier's job, so that perturbed algebras can be
represented and diagnosed.  It stores every entry as its residue, through
the one reader of :mod:`linalg`, so nothing downstream re-reduces.

``KappaPair`` is the data of a scalar pair, as instance files carry it, and
:func:`is_kappa_pair` its defining predicate against the context; :mod:`pairs`
classifies pairs.
"""

from __future__ import annotations

from ._record import _FrozenRecord
from .cochains import Cochain, is_normalized
from .errors import InvalidPair, NotHomogeneous, NotNormalized, ShapeMismatch, ZeroScale
from .fields import Field
from .gmodule import GModule
from .groups import FiniteGroup
from .linalg import Matrix, _product, _residues, apply_map


class AlgebraContext(_FrozenRecord):
    """The fixed data (G, A, kappa, K) an algebra is defined over."""

    def __init__(self, group: FiniteGroup, module: GModule, kappa: Cochain, field: Field):
        self._set(group, module, kappa, field)
        if self.module.group != self.group:
            raise ShapeMismatch("coefficient module is defined over a different group")
        if self.kappa.module != self.module or self.kappa.degree != 3:
            raise ShapeMismatch("twisting cochain must be a degree-3 cochain over A")
        if not is_normalized(self.kappa):
            raise NotNormalized("twisting 3-cocycle must be normalized")

    @property
    def identity(self) -> int:
        return self.group.identity

    def describe(self) -> str:
        return (
            f"|G|={self.group.order}, A={self.module.moduli}, "
            f"field={self.field!r}, twisted={'yes' if not self.kappa.is_trivial() else 'no'}"
        )


class KappaPair:
    """A scalar pair: g1 a table on pairs of group indices, g2 values on the cyclic generators.

    :func:`is_kappa_pair` is the defining predicate; :mod:`pairs` holds the
    group structure.
    """

    def __init__(self, g1: dict[tuple[int, int], object], g2: tuple):
        self.g1 = g1
        self.g2 = g2

    def g2_value(self, field, element: tuple):
        """Evaluate the character on an exponent tuple."""
        out = field.one
        for gi, e in zip(self.g2, element):
            if e:
                out = field.mul(out, field.power(gi, e))
        return out

    def key(self, group) -> tuple:
        """Deterministic sort key: the g2 tuple first, then the flat g1 table."""
        return (self.g2, tuple(self.g1[ab] for ab in group.tuples(2)))

    def __eq__(self, other):
        return isinstance(other, KappaPair) and other.g2 == self.g2 and other.g1 == self.g1

    def __repr__(self):
        support = sum(1 for v in self.g1.values() if v != 1)
        return f"KappaPair(g2={self.g2}, nontrivial_g1_entries={support})"


def is_kappa_pair(context: AlgebraContext, pair: KappaPair) -> tuple[bool, tuple | None]:
    """Check the four defining conditions on the pair's residues; returns (ok, witness)."""
    witness = _read_pair(context, pair)[1]
    return witness is None, witness


def require_kappa_pair(context: AlgebraContext, pair: KappaPair) -> KappaPair:
    """The pair read as residues; raises :class:`InvalidPair` when it is none."""
    pair, witness = _read_pair(context, pair)
    if witness is not None:
        raise InvalidPair(f"not a valid pair: {witness}", witness=witness)
    return pair


def _read_pair(context: AlgebraContext, pair: KappaPair) -> tuple[KappaPair, tuple | None]:
    """The pair read as residues (6 over F5 is 1), and its first failed condition or None."""
    G, A, F = context.group, context.module, context.field
    add, zero = F.add, F.zero
    pair = KappaPair({k: add(zero, v) for k, v in pair.g1.items()}, tuple(add(zero, x) for x in pair.g2))
    e, table, g1 = G.identity, G.table, pair.g1
    if len(pair.g2) != A.rank:
        return pair, ("g2-shape", len(pair.g2))
    for i, (gi, m) in enumerate(zip(pair.g2, A.moduli)):
        if F.is_zero(gi):
            return pair, ("g2-zero", i)
        if F.power(gi, m) != F.one:
            return pair, ("g2-order", i)
    # chi(a x)/chi(x) is a character of x, so in element order it first fails at its last failing generator
    for a in G.elements():
        for x in reversed(A.generators()):
            if pair.g2_value(F, A.act(a, x)) != pair.g2_value(F, x):
                return pair, ("g2-invariance", a, x)
    n, k, mul, values = G.order, A.rank, F.mul, context.kappa.values
    flat = [g1.get(ab) for ab in G.tuples(2)]
    for i, v in enumerate(flat):
        if v is None or F.is_zero(v):
            return pair, ("g1-zero", *divmod(i, n))
    rows = [flat[a * n : a * n + n] for a in G.elements()]
    for a in G.elements():
        if rows[a][e] != F.one or rows[e][a] != F.one:
            return pair, ("g1-normalization", a)
    # g1(b, c) g1(a, bc) = chi(kappa(a, b, c)) g1(a, b) g1(ab, c), over all (b, c) for each a
    bcs = [bc for row in table for bc in row]
    for a, ga in enumerate(rows):
        lhs = [mul(x, ga[bc]) for x, bc in zip(flat, bcs)]
        rhs = [mul(ga[b], y) for b, ab in enumerate(table[a]) for y in rows[ab]]
        if any(seg := values[a * n * n * k : (a + 1) * n * n * k]):
            rhs = [mul(pair.g2_value(F, seg[i : i + k]), y) for i, y in zip(range(0, n * n * k, k), rhs)]
        if lhs != rhs:
            b, c = divmod(next(i for i, x in enumerate(lhs) if x != rhs[i]), n)
            return pair, ("compatibility", a, b, c)
    return pair, None


def trivial_context(group: FiniteGroup, module: GModule, field: Field) -> AlgebraContext:
    return AlgebraContext(group, module, Cochain.trivial(module, 3), field)


class TFAlgebra:
    """Graded carrier with multiplication, module action, unit, form, conjugations.

    Data layout (all dense, indexed by group-element indices):

    ``dims[a]``            dimension of V_a (0 allowed)
    ``mult[(a, b)]``       list[da][db] of target vectors (length dims[ab])
    ``a_action[(a, x)]``   Matrix dims[a] x dims[a], for every x in A
    ``unit``               vector of length dims[identity]
    ``eta``                Matrix dims[identity] square
    ``phi[(b, a)]``        Matrix dims[a] x dims[b a b^-1]
    """

    __slots__ = ("context", "dims", "mult", "a_action", "unit", "eta", "phi")

    def __init__(self, context: AlgebraContext, dims, mult, a_action, unit, eta, phi):
        self.context = context
        G, F, A = context.group, context.field, context.module
        self.dims = tuple(int(dims[g]) for g in G.elements())
        if any(d < 0 for d in self.dims):
            raise ShapeMismatch("negative dimension")

        e = G.identity
        de = self.dims[e]

        self.mult = {}
        for a in G.elements():
            for b in G.elements():
                try:
                    tensor = mult[(a, b)]
                except KeyError:
                    raise ShapeMismatch(f"missing multiplication tensor for ({a}, {b})")
                da, db, dab = self.dims[a], self.dims[b], self.dims[G.mul(a, b)]
                tensor = [[_residues(F, vec) for vec in row] for row in tensor]
                if len(tensor) != da or any(len(row) != db for row in tensor):
                    raise ShapeMismatch(f"multiplication tensor ({a}, {b}) has wrong shape")
                for row in tensor:
                    for vec in row:
                        if len(vec) != dab:
                            raise ShapeMismatch(
                                f"multiplication tensor ({a}, {b}) target length != {dab}"
                            )
                self.mult[(a, b)] = tensor

        self.a_action = {}
        for a in G.elements():
            for x in A.elements():
                try:
                    Mx = a_action[(a, x)]
                except KeyError:
                    raise ShapeMismatch(f"missing module action for component {a}, element {x}")
                M = Mx if isinstance(Mx, Matrix) else Matrix(F, Mx)
                if M.nrows != self.dims[a] or M.ncols != self.dims[a]:
                    raise ShapeMismatch(f"module action on component {a} is not square")
                self.a_action[(a, x)] = M

        self.unit = _residues(F, unit)
        if len(self.unit) != de:
            raise ShapeMismatch("unit vector length != dim of identity component")

        self.eta = eta if isinstance(eta, Matrix) else Matrix(F, eta)
        if self.eta.nrows != de or self.eta.ncols != de:
            raise ShapeMismatch("inner product matrix must be square on the identity component")

        self.phi = {}
        for b in G.elements():
            for a in G.elements():
                try:
                    Mb = phi[(b, a)]
                except KeyError:
                    raise ShapeMismatch(f"missing conjugation block for (b={b}, a={a})")
                tgt = self.dims[G.conj(b, a)]
                M = Mb if isinstance(Mb, Matrix) else Matrix(F, Mb, ncols=tgt)
                if M.nrows == 0:
                    M = Matrix(F, [], ncols=tgt)
                if M.nrows != self.dims[a] or (M.nrows > 0 and M.ncols != tgt):
                    raise ShapeMismatch(
                        f"conjugation block (b={b}, a={a}) must be {self.dims[a]} x {tgt}"
                    )
                self.phi[(b, a)] = M

    # -- arithmetic on graded vectors -----------------------------------------
    def multiply(self, a: int, u: list, b: int, v: list) -> list:
        """Product of u in V_a with v in V_b, landing in V_{ab}."""
        G = self.context.group
        return _product(self.context.field, u, v, self.mult[(a, b)], self.dims[G.mul(a, b)])

    def act(self, a: int, x: tuple, v: list) -> list:
        """The module element x acting on v in V_a."""
        return apply_map(self.a_action[(a, x)], v)

    def basis(self, a: int):
        F = self.context.field
        d = self.dims[a]
        for i in range(d):
            yield [F.one if j == i else F.zero for j in range(d)]

    # -- misc -------------------------------------------------------------------
    def total_dim(self) -> int:
        return sum(self.dims)

    def replace(self, **kw) -> "TFAlgebra":
        """Copy with some raw fields swapped (used by rescaling and mutation tests)."""
        data = {
            "context": self.context,
            "dims": {g: self.dims[g] for g in self.context.group.elements()},
            "mult": self.mult,
            "a_action": self.a_action,
            "unit": self.unit,
            "eta": self.eta,
            "phi": self.phi,
        }
        data.update(kw)
        return TFAlgebra(**data)

    def __repr__(self):
        return f"TFAlgebra(dims={self.dims})"


def z_rescale(V: TFAlgebra, z) -> TFAlgebra:
    """Multiply the inner product by a nonzero scalar, keeping the rest."""
    F = V.context.field
    if F.is_zero(z):
        raise ZeroScale("rescaling scalar must be nonzero")
    return V.replace(eta=V.eta.scale(z))


def mu(V: TFAlgebra, c_component: int, c_vector: list) -> dict[int, Matrix]:
    """Left multiplication by a homogeneous vector, as one block per component.

    Returns {a: block of V_a -> V_{c a}} in the row-as-image convention.
    """
    G, F = V.context.group, V.context.field
    if len(c_vector) != V.dims[c_component]:
        raise NotHomogeneous(
            f"vector of length {len(c_vector)} is not in component {c_component}"
        )
    blocks = {}
    for a in G.elements():
        tgt = V.dims[G.mul(c_component, a)]
        rows = [V.multiply(c_component, c_vector, a, u) for u in V.basis(a)]
        blocks[a] = Matrix(F, rows, ncols=tgt)
    return blocks

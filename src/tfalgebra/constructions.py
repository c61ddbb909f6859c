"""Constructions of twisted graded Frobenius algebras.

* :func:`build_simple` realizes a scalar pair (g1, g2) as the algebra with
  one-dimensional components, basis l_a, products l_a l_b = g1(a,b)^-1 l_ab,
  module action through the character g2, and conjugations
  phi_b(l_a) = g1(b,a)^-1 g1(bab^-1, b) l_{bab^-1}.

* :func:`extract_kappa_pair` inverts that construction on any algebra with
  one-dimensional components whose unit pairs to 1 with itself, using the
  canonical basis (the unit in the identity component, the first basis
  vector elsewhere).

* :func:`coboundary_transform` twists an algebra by a normalized 2-cochain,
  moving it to the cocycle multiplied by that cochain's coboundary.

* :func:`from_crossed_frobenius` and :func:`from_a_frobenius` embed the two
  degenerate classical families (trivial coefficient group, respectively
  trivial grading group).
"""

from __future__ import annotations

from .algebra import AlgebraContext, KappaPair, TFAlgebra, require_kappa_pair, trivial_context
from .cochains import Cochain, coboundary, is_normalized
from .errors import (
    DegenerateProduct,
    NotNormalized,
    NotSimple,
    UnitFormNotOne,
)
from .fields import Field
from .gmodule import GModule, trivial_module
from .groups import FiniteGroup, trivial_group
from .linalg import Matrix, apply_map, bilinear_value


def build_simple(context: AlgebraContext, pair: KappaPair) -> TFAlgebra:
    """The one-dimensional-per-component algebra of a scalar pair."""
    require_kappa_pair(context, pair)
    G, A, F = context.group, context.module, context.field
    e = G.identity
    dims = {g: 1 for g in G.elements()}
    mult = {}
    for a in G.elements():
        for b in G.elements():
            mult[(a, b)] = [[[F.inv(pair.g1[(a, b)])]]]
    a_action = {}
    for a in G.elements():
        for x in A.elements():
            a_action[(a, x)] = Matrix(F, [[pair.g2_value(F, x)]])
    unit = [F.one]
    eta = Matrix(F, [[pair.g1[(e, e)]]])
    phi = {}
    for b in G.elements():
        for a in G.elements():
            coeff = F.mul(F.inv(pair.g1[(b, a)]), pair.g1[(G.conj(b, a), b)])
            phi[(b, a)] = Matrix(F, [[coeff]])
    return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)


def extract_kappa_pair(V: TFAlgebra) -> tuple[KappaPair, dict[int, list]]:
    """Read the scalar pair back off a simple algebra.

    Uses the canonical basis: the unit vector in the identity component and
    the first standard basis vector elsewhere.  Requires
    eta(unit, unit) == 1; rescale first if not (the discarded scale is the
    classification's free parameter).  Returns (pair, basis).
    """
    G, A, F = V.context.group, V.context.module, V.context.field
    e = G.identity
    if any(d != 1 for d in V.dims):
        raise NotSimple(f"dims {V.dims} are not all 1")
    # eta(unit unit tensor unit) coincides with eta(unit, unit) once the unit
    # law holds; read the raw form value directly to avoid assuming it
    raw = bilinear_value(V.eta, V.unit, V.unit)
    if raw != F.one:
        raise UnitFormNotOne(f"eta(unit, unit) = {raw!r}, expected 1")
    basis = {a: ([F.one] if a != e else list(V.unit)) for a in G.elements()}
    g1 = {}
    for a in G.elements():
        for b in G.elements():
            prod = V.multiply(a, basis[a], b, basis[b])
            target = basis[G.mul(a, b)]
            # prod = c * target with both one-dimensional
            idx = next((i for i, t in enumerate(target) if not F.is_zero(t)), None)
            if idx is None:
                raise DegenerateProduct("chosen basis vector is zero")
            c = F.div(prod[idx], target[idx])
            if F.is_zero(c):
                raise DegenerateProduct(f"basis product at ({a}, {b}) vanished")
            if not all(
                prod[i] == F.mul(c, target[i]) for i in range(len(target))
            ):
                raise DegenerateProduct(
                    f"product at ({a}, {b}) is not proportional to the basis vector"
                )
            g1[(a, b)] = F.inv(c)
    g2 = []
    for gen in A.generators():
        acted = V.act(e, gen, basis[e])
        idx = next(i for i, t in enumerate(basis[e]) if not F.is_zero(t))
        g2.append(F.div(acted[idx], basis[e][idx]))
    pair = KappaPair(g1, tuple(g2))
    require_kappa_pair(V.context, pair)
    return pair, basis


def coboundary_transform(V: TFAlgebra, omega: Cochain) -> TFAlgebra:
    """Twist by a normalized 2-cochain; the context cocycle picks up its coboundary.

    Multiplication tensors are scaled by the inverse omega-value acting (via
    the module action) on the target component, conjugation blocks by the
    two displayed omega-values on their target component; grading, module
    action, unit and inner product are untouched.
    """
    if omega.degree != 2 or omega.module != V.context.module:
        raise NotNormalized("transform cochain must be a degree-2 cochain over A")
    if not is_normalized(omega):
        raise NotNormalized("transform cochain must be normalized")
    G, A, F = V.context.group, V.context.module, V.context.field
    kappa_new = coboundary(omega).mul(V.context.kappa)
    context_new = AlgebraContext(G, A, kappa_new, F)
    n, k = G.order, A.rank
    w = [omega.values[T * k : T * k + k] for T in range(n * n)]

    mult = {}
    for a in G.elements():
        for b in G.elements():
            ab = G.mul(a, b)
            scale = V.a_action[(ab, A.inv(w[a * n + b]))]
            tensor = V.mult[(a, b)]
            mult[(a, b)] = [[apply_map(scale, vec) for vec in row] for row in tensor]
    phi = {}
    for b in G.elements():
        for a in G.elements():
            tgt = G.conj(b, a)
            factor = A.mul(A.inv(w[b * n + a]), w[tgt * n + b])
            phi[(b, a)] = V.phi[(b, a)].mul(V.a_action[(tgt, factor)])
    return TFAlgebra(
        context_new,
        {g: V.dims[g] for g in G.elements()},
        mult,
        V.a_action,
        V.unit,
        V.eta,
        phi,
    )


def from_crossed_frobenius(
    group: FiniteGroup, field: Field, dims, mult, unit, eta, phi
) -> TFAlgebra:
    """A graded Frobenius algebra with no coefficient action, embedded.

    The context gets the trivial coefficient group and the trivial twisting
    cocycle; the module action is forced to the identity.
    """
    A = trivial_module(group)
    context = trivial_context(group, A, field)
    a_action = {
        (a, ()): Matrix.identity(field, int(dims[a])) for a in group.elements()
    }
    return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)


def from_a_frobenius(
    module_moduli, field: Field, dim: int, mult_tensor, action_matrices, unit, eta
) -> TFAlgebra:
    """A module-graded Frobenius algebra concentrated at a trivial group.

    ``action_matrices`` maps each coefficient element (exponent tuple) to a
    dim x dim matrix; the single conjugation is the identity.
    """
    G = trivial_group()
    A = GModule(G, tuple(module_moduli))
    context = trivial_context(G, A, field)
    dims = {0: int(dim)}
    mult = {(0, 0): mult_tensor}
    a_action = {(0, x): action_matrices[x] for x in A.elements()}
    phi = {(0, 0): Matrix.identity(field, int(dim))}
    return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)

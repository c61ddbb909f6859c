"""Isomorphism testing between algebras over the same context.

An isomorphism is a graded, module-linear bijection that preserves products,
the unit, the inner product, and commutes with every conjugation.

Simple algebras (all components one-dimensional) are decided exactly through
the pair classification: extract both scalar pairs after normalizing the
unit form, then ask whether they differ by a coboundary pair.  The witnessing
pointed map is returned as an explicit diagonal isomorphism.

Algebras with higher-dimensional components fall back to a finite search
over graded linear maps when the total dimension and field are small enough,
and otherwise return the honest :data:`UNDECIDED` sentinel.
"""

from __future__ import annotations

import itertools

from ._record import _Record
from .algebra import TFAlgebra, z_rescale
from .errors import ContextMismatch
from .fields import PrimeField
from .linalg import Matrix, apply_map, bilinear_value
from .pairs import pairs_equivalent


class _Undecided:
    """Sentinel for searches that were cut off rather than resolved."""

    def __repr__(self):
        return "UNDECIDED"

    def __bool__(self):
        return False


UNDECIDED = _Undecided()

# the largest total dimension that the non-simple search walks
SEARCH_DIM_CAP = 4


class GradedIsomorphism(_Record):
    """One block per group element, row-as-image convention."""

    def __init__(self, blocks: dict[int, Matrix]):
        self._set(blocks)

    def apply(self, component: int, vec: list) -> list:
        return apply_map(self.blocks[component], vec)


def is_isomorphic(V: TFAlgebra, W: TFAlgebra):
    """An explicit isomorphism, None, or UNDECIDED.

    The non-simple search runs up to total dimension :data:`SEARCH_DIM_CAP`.
    """
    if V.context != W.context:
        raise ContextMismatch("algebras live over different (G, A, kappa, K) data")
    if V.dims != W.dims:
        return None
    G, F = V.context.group, V.context.field

    if all(d == 1 for d in V.dims):
        nv = bilinear_value(V.eta, V.unit, V.unit)
        nw = bilinear_value(W.eta, W.unit, W.unit)
        if nv != nw:
            return None
        from .constructions import extract_kappa_pair

        Vn = z_rescale(V, F.inv(nv))
        Wn = z_rescale(W, F.inv(nw))
        pv, basis_v = extract_kappa_pair(Vn)
        pw, basis_w = extract_kappa_pair(Wn)
        # a diagonal map l_a -> psi(a) l_a multiplies g1 by the coboundary of
        # psi, so solve in the direction that carries pv onto pw
        psi = pairs_equivalent(V.context, pw, pv)
        if psi is None:
            return None
        # send the chosen V-basis vector of each component to psi(a) times
        # the chosen W-basis vector; in standard coordinates (dims are 1)
        # that is the single entry psi(a) * lw[0] / lv[0]
        blocks = {}
        for a in G.elements():
            lv, lw = basis_v[a], basis_w[a]
            blocks[a] = Matrix(F, [[F.div(F.mul(psi[a], lw[0]), lv[0])]])
        iso = GradedIsomorphism(blocks)
        return iso if _is_isomorphism(V, W, iso) else None

    total = V.total_dim()
    if total > SEARCH_DIM_CAP or not isinstance(F, PrimeField):
        return UNDECIDED
    return _search_isomorphism(V, W)


def _search_isomorphism(V: TFAlgebra, W: TFAlgebra):
    """Exhaustive search over graded invertible blocks (tiny cases only).

    Per-component necessary conditions (module-action intertwining, unit and
    form preservation on the identity component, conjugation blocks that stay
    inside one component) prune each factor before the product is walked.
    """
    G, A, F = V.context.group, V.context.module, V.context.field
    e = G.identity
    comps = [a for a in G.elements()]
    spaces = []
    for a in comps:
        d = V.dims[a]
        if d == 0:
            spaces.append([Matrix(F, [], ncols=0)])
            continue
        local_phis = [
            b for b in G.elements() if G.conj(b, a) == a
        ]
        candidates = []
        for flat in itertools.product(range(F.p), repeat=d * d):
            M = Matrix(F, [list(flat[i * d : (i + 1) * d]) for i in range(d)])
            if M.rank() != d:
                continue
            if any(
                V.a_action[(a, x)].mul(M) != M.mul(W.a_action[(a, x)])
                for x in A.elements()
            ):
                continue
            if any(
                V.phi[(b, a)].mul(M) != M.mul(W.phi[(b, a)]) for b in local_phis
            ):
                continue
            if a == e:
                if apply_map(M, V.unit) != W.unit:
                    continue
                if M.mul(W.eta).mul(M.transpose()) != V.eta:
                    continue
            candidates.append(M)
        if not candidates:
            return None
        spaces.append(candidates)
    for combo in itertools.product(*spaces):
        iso = GradedIsomorphism(dict(zip(comps, combo)))
        if _is_isomorphism(V, W, iso):
            return iso
    return None


def _is_isomorphism(V: TFAlgebra, W: TFAlgebra, iso: GradedIsomorphism) -> bool:
    """Exact check of all the defining conditions on basis vectors."""
    G, A = V.context.group, V.context.module
    e = G.identity
    if iso.apply(e, V.unit) != W.unit:
        return False
    for a in G.elements():
        blk = iso.blocks[a]
        if blk.nrows != V.dims[a] or (blk.nrows and blk.rank() != blk.nrows):
            return False
        for x in A.elements():
            left = V.a_action[(a, x)].mul(blk)
            right = blk.mul(W.a_action[(a, x)])
            if left != right:
                return False
    for a in G.elements():
        for b in G.elements():
            ab = G.mul(a, b)
            for u in V.basis(a):
                fu = iso.apply(a, u)
                for v in V.basis(b):
                    fv = iso.apply(b, v)
                    if iso.apply(ab, V.multiply(a, u, b, v)) != W.multiply(a, fu, b, fv):
                        return False
    fe = iso.blocks[e]
    if fe.mul(W.eta).mul(fe.transpose()) != V.eta:
        return False
    for b in G.elements():
        for a in G.elements():
            left = V.phi[(b, a)].mul(iso.blocks[G.conj(b, a)])
            right = iso.blocks[a].mul(W.phi[(b, a)])
            if left != right:
                return False
    return True

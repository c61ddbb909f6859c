"""A small zoo of concrete algebras used by the test suite and the demos.

Each builder returns a fully populated :class:`TFAlgebra` that the verifier
accepts.  They double as worked examples of the data layout.
"""

from __future__ import annotations

from .algebra import AlgebraContext, TFAlgebra
from .constructions import from_a_frobenius, from_crossed_frobenius
from .errors import ShapeMismatch
from .fields import Field
from .gmodule import GModule, trivial_module
from .groups import FiniteGroup, cyclic_group
from .linalg import Matrix


def scalar_field_algebra(field: Field) -> TFAlgebra:
    """The base field itself, concentrated over the one-element group: K[t]/t."""
    return truncated_polynomial_algebra(field, 1)


def truncated_polynomial_algebra(field: Field, n: int) -> TFAlgebra:
    """K[t]/t^n with the top-coefficient Frobenius form, over the trivial group."""
    if n < 1:
        raise ShapeMismatch(f"K[t]/t^{n} needs n >= 1")
    unit = [field.one if i == 0 else field.zero for i in range(n)]
    eta = Matrix(
        field,
        [
            [field.one if i + j == n - 1 else field.zero for j in range(n)]
            for i in range(n)
        ],
    )
    return from_a_frobenius((), field, n, _poly_tensor(field, n), {(): Matrix.identity(field, n)}, unit, eta)


def _poly_tensor(field: Field, n: int):
    return [
        [
            [
                field.one if i + j == t else field.zero
                for t in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def concentrated_algebra(
    group: FiniteGroup,
    module: GModule,
    field: Field,
    dim: int,
    mult_tensor,
    unit,
    eta,
    phi_blocks: dict[int, Matrix],
    a_action_blocks: dict[tuple, Matrix] | None = None,
    kappa=None,
) -> TFAlgebra:
    """All mass in the identity component; every other component is zero.

    ``phi_blocks[b]`` is the conjugation of b restricted to the identity
    component; ``a_action_blocks[x]`` the action of the coefficient element x
    there (identity when omitted).
    """
    from .cochains import Cochain

    e = group.identity
    context = AlgebraContext(
        group, module, kappa if kappa is not None else Cochain.trivial(module, 3), field
    )
    dims = {g: (dim if g == e else 0) for g in group.elements()}
    empty = Matrix(field, [], ncols=0)
    mult = {}
    for a in group.elements():
        for b in group.elements():
            if a == e and b == e:
                mult[(a, b)] = mult_tensor
            else:
                da, db = dims[a], dims[b]
                mult[(a, b)] = [[[field.zero] * dims[group.mul(a, b)] for _ in range(db)] for _ in range(da)]
    a_action = {}
    for a in group.elements():
        for x in module.elements():
            if a == e:
                if a_action_blocks is not None and x in a_action_blocks:
                    a_action[(a, x)] = a_action_blocks[x]
                else:
                    a_action[(a, x)] = Matrix.identity(field, dim)
            else:
                a_action[(a, x)] = empty
    phi = {}
    for b in group.elements():
        for a in group.elements():
            if a == e:
                phi[(b, a)] = phi_blocks.get(b, Matrix.identity(field, dim))
            else:
                phi[(b, a)] = Matrix(field, [], ncols=dims[group.conj(b, a)])
    return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)


def product_field_swap_algebra(field: Field) -> TFAlgebra:
    """K x K in the identity component of Z/2, conjugation swapping factors.

    The coefficient group Z/2 acts through the character -1 on both factors.
    The swap is forced by the trace condition once the odd component is zero,
    which makes this the smallest algebra whose conjugation moves vectors.
    """
    G = cyclic_group(2)
    A = GModule(G, (2,))
    one, zero = field.one, field.zero
    minus = field.neg(one)
    tensor = [
        [[one, zero], [zero, zero]],
        [[zero, zero], [zero, one]],
    ]
    unit = [one, one]
    eta = Matrix.identity(field, 2)
    swap = Matrix(field, [[zero, one], [one, zero]])
    return concentrated_algebra(
        G,
        A,
        field,
        2,
        tensor,
        unit,
        eta,
        phi_blocks={G.identity: Matrix.identity(field, 2), 1: swap},
        a_action_blocks={(1,): Matrix(field, [[minus, zero], [zero, minus]])},
    )


def graded_truncated_polynomial_algebra(field: Field, group: FiniteGroup, n: int) -> TFAlgebra:
    """K[t]/t^n concentrated at the identity of an arbitrary group.

    Valid only when the trace of multiplication operators vanishes, i.e.
    when the field characteristic divides n; the builder leaves that to the
    verifier.
    """
    A = trivial_module(group)
    base = truncated_polynomial_algebra(field, n)
    return concentrated_algebra(
        group,
        A,
        field,
        n,
        base.mult[(0, 0)],
        base.unit,
        base.eta,
        phi_blocks={b: Matrix.identity(field, n) for b in group.elements()},
    )


def dual_number_group_ring(field: Field) -> TFAlgebra:
    """(K[t]/t^2)[Z/2]: components (1, t) and (s, ts), commutative, all phi = id."""
    G = cyclic_group(2)
    one, zero = field.one, field.zero
    # bases: component 0 = (1, t), component 1 = (s, ts); every component
    # pair multiplies by the same tensor (TFAlgebra copies each one)
    tensor = [
        [[one, zero], [zero, one]],
        [[zero, one], [zero, zero]],
    ]
    mult = dict.fromkeys(G.tuples(2), tensor)
    dims = {0: 2, 1: 2}
    unit = [one, zero]
    eta = Matrix(field, [[zero, one], [one, zero]])
    phi = {t: Matrix.identity(field, 2) for t in G.tuples(2)}
    return from_crossed_frobenius(G, field, dims, mult, unit, eta, phi)

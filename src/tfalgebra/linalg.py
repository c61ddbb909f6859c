"""Dense exact linear algebra over a field.

A :class:`Matrix` is a thin wrapper around a list of rows of field elements.
Rank and inverse go through Gaussian elimination in the field itself, so
results are exact for both F_p and Q.

Entries are stored as residues, the values the field's own arithmetic returns
(6 over F5 becomes 1, an int over Q a ``Fraction``).  :func:`_residues` reads
them, and ``Matrix.__init__`` and ``TFAlgebra.__init__`` are its only callers,
so two stored values are equal in the field exactly when they compare equal,
and nothing downstream re-reduces.

Graded maps elsewhere use the row-as-image convention (row i of a block is the
image of the i-th source basis vector); see :func:`apply_map`.

Outside elimination, every field loop of the library is one of the private
row-list functions at the end of this module: ``_comb`` (a vector times a list
of rows), ``_product`` (two vectors through a multiplication tensor), ``_dot``,
``_matmul``, and the fused checks ``_agree`` and ``_agree_product`` (do two
such sums agree).  ``Matrix.mul``, :func:`apply_map`, :func:`bilinear_value`,
``TFAlgebra.multiply`` and the verifier all call them.  They take plain lists
and check no shapes: the caller gives one row per coefficient (one tensor row
per entry of ``u``, one vector per entry of ``v``), every row of width ``n``.

Every block of a simple algebra is 1x1, and that case is written out: it
computes its one term as the same field expression the loop would, so value
and type are the loop's, and a fused check compares two products without
building a list.  The block shape alone picks the path.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .fields import Field


class Matrix:
    """An exact rows x cols matrix over a fixed field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = [_residues(field, r) for r in rows]
        self.nrows = len(self.rows)
        # the ncols hint matters only for empty matrices, whose rows cannot speak
        self.ncols = len(self.rows[0]) if self.rows else (ncols or 0)
        for r in self.rows:
            if len(r) != self.ncols:
                raise ShapeMismatch("ragged matrix")

    # -- constructors --------------------------------------------------------
    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    # -- basic algebra --------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Matrix) and other.field == self.field and other.rows == self.rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def scale(self, c) -> "Matrix":
        F = self.field
        return Matrix(F, [[F.mul(c, x) for x in row] for row in self.rows])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeMismatch("inner dimensions disagree")
        return Matrix(self.field, _matmul(self.field, self.rows, other.rows, other.ncols), ncols=other.ncols)

    # -- elimination ----------------------------------------------------------
    def _echelon(self):
        """Row echelon form (copy) and pivot column list."""
        F = self.field
        M, pivots, r = list(self.rows), [], 0
        for c in range(self.ncols):
            pivot = None
            for i in range(r, self.nrows):
                if not F.is_zero(M[i][c]):
                    pivot = i
                    break
            if pivot is None:
                continue
            M[r], M[pivot] = M[pivot], M[r]
            inv = F.inv(M[r][c])
            M[r] = [F.mul(inv, x) for x in M[r]]
            for i in range(self.nrows):
                if i != r and not F.is_zero(M[i][c]):
                    f = M[i][c]
                    M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return M, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular."""
        rows = _inverse(self.field, self.rows, self.nrows) if self.nrows == self.ncols else None
        return None if rows is None else Matrix(self.field, rows)


def _inverse(F: Field, rows, n: int) -> list | None:
    """Rows of the inverse of an n x n block, or None when it is singular."""
    if n == 1:
        return None if F.is_zero(rows[0][0]) else [[F.inv(rows[0][0])]]
    aug = Matrix(F, [list(rows[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)])
    M, pivots = aug._echelon()
    return [row[n:] for row in M] if pivots == list(range(n)) else None


def _residues(F: Field, vec) -> list:
    """The entries of vec as residues: the values F's own arithmetic returns."""
    add, zero = F.add, F.zero
    return [add(zero, x) for x in vec]


# -- graded-map helpers (row-as-image convention) -----------------------------

def apply_map(block: Matrix, vec: list) -> list:
    """Image of ``vec`` under a block whose row i is the image of basis i."""
    if len(vec) != block.nrows:
        raise ShapeMismatch("vector length != number of block rows")
    return _comb(block.field, vec, block.rows, block.ncols)


def bilinear_value(form: Matrix, u: list, v: list):
    """u^T * form * v."""
    return _dot(form.field, _comb(form.field, u, form.rows, form.ncols), v)


# -- the row-list kernel ------------------------------------------------------

def _comb(F, coeffs, rows, n: int) -> list:
    """sum_k coeffs[k] rows[k], of length n: the image of coeffs under rows."""
    if n == 1 and len(coeffs) == 1:
        return [F.add(F.zero, F.mul(coeffs[0], rows[0][0]))]
    add, mul = F.add, F.mul
    out = [F.zero] * n
    for c, row in zip(coeffs, rows):
        t = 0
        for w in row:
            out[t] = add(out[t], mul(c, w))
            t += 1
    return out


def _product(F, u, v, tensor, n: int) -> list:
    """sum_{k,l} u_k v_l tensor[k][l], of length n: the product of u and v."""
    if n == 1 and len(u) == 1 and len(v) == 1:
        return [F.add(F.zero, F.mul(F.mul(u[0], v[0]), tensor[0][0][0]))]
    add, mul = F.add, F.mul
    out = [F.zero] * n
    for x, row in zip(u, tensor):
        for y, w in zip(v, row):
            c, t = mul(x, y), 0
            for z in w:
                out[t] = add(out[t], mul(c, z))
                t += 1
    return out


def _dot(F, u, v):
    acc = F.zero
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _matmul(F, X, Y, n: int) -> list:
    """Rows of X Y, where n is the width of Y (Y may have no rows)."""
    if n == 1 and len(X) == 1 and len(Y) == 1:
        return [[F.add(F.zero, F.mul(X[0][0], Y[0][0]))]]
    return [_comb(F, row, Y, n) for row in X]


def _agree(F, u, rows, v, others, n: int) -> bool:
    """Whether sum_k u_k rows_k equals sum_k v_k others_k."""
    if n == 1 and len(u) == 1 and len(v) == 1:
        return F.mul(u[0], rows[0][0]) == F.mul(v[0], others[0][0])
    return _comb(F, u, rows, n) == _comb(F, v, others, n)


def _agree_product(F, u, v, tensor, w, rows, n: int) -> bool:
    """Whether the product of u and v through tensor equals sum_k w_k rows_k."""
    if n == 1 and len(u) == 1 and len(v) == 1 and len(w) == 1:
        return F.mul(F.mul(u[0], v[0]), tensor[0][0][0]) == F.mul(w[0], rows[0][0])
    return _product(F, u, v, tensor, n) == _comb(F, w, rows, n)

"""Dense exact linear algebra over a field.

A :class:`Matrix` is a thin wrapper around a list of rows of field elements.
Rank and inverse go through fraction-free-enough Gaussian elimination in
the field itself, so results are exact for both F_p and Q.

Entries are stored as residues; nothing downstream re-reduces.
:func:`_residues` reads a vector as the values the field's own arithmetic
returns (6 over F5 becomes 1, an int over Q a ``Fraction``), and
``Matrix.__init__`` and ``TFAlgebra.__init__`` are its only callers, so two
stored values are equal in the field exactly when they compare equal.

Graded maps elsewhere in the library use the row-as-image convention
(row i of a block is the image of the i-th source basis vector); see
:func:`apply_map`.  Plain matrix algebra here is convention-free.

Outside elimination, every field loop of the library is one of four private
row-list functions at the end of this module: ``_comb`` (a vector times a
list of rows), ``_product`` (two vectors through a multiplication tensor),
``_dot`` and ``_matmul``.  ``Matrix.mul``, :func:`apply_map`,
:func:`bilinear_value`, ``TFAlgebra.multiply`` and the verifier all call
them, so this module is the one owner of dense field arithmetic.  They take
plain lists and check no shapes; the caller keeps the shape contract: one
row per coefficient (one tensor row per entry of ``u``, one vector per entry
of ``v``), every row of width ``n``.

The 1x1 case is written out.  A simple algebra has only one-dimensional
components, so every block its verifier combines is 1x1, and there the
general loop spends most of its time on set-up for a single product.
``_comb``, ``_product`` and ``Matrix.inverse`` compute that one term as the
same field expression the loop would, so the value and its type are the
loop's; ``_matmul`` of a single row skips the comprehension.  The block
shape alone picks the path, and wider blocks always take the general loop.
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
        # the ncols hint matters only for empty matrices, where the row data
        # cannot speak for itself
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
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

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
        M = list(self.rows)
        pivots = []
        r = 0
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
        if self.nrows != self.ncols:
            return None
        F = self.field
        n = self.nrows
        if n == 1:
            a = self.rows[0][0]
            return None if F.is_zero(a) else Matrix(F, [[F.inv(a)]])
        aug = Matrix(F, [list(self.rows[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)])
        M, pivots = aug._echelon()
        if pivots != list(range(n)):
            return None
        return Matrix(F, [row[n:] for row in M])


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
    F = form.field
    return _dot(F, _comb(F, u, form.rows, form.ncols), v)


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
    if len(X) == 1:
        return [_comb(F, X[0], Y, n)]
    return [_comb(F, row, Y, n) for row in X]

"""Dense exact linear algebra over a GaloisField.

Matrices are immutable values (entries are field-element ints).  Zero-row
matrices are allowed so that dimension-0 duals and empty kernels stay
first-class values.
"""

from __future__ import annotations

from typing import Sequence

from .field import FieldError, GaloisField


class LinalgError(ValueError):
    pass


class Matrix:
    def __init__(self, field: GaloisField, data: Sequence[Sequence[int]],
                 cols: int | None = None):
        rows = [tuple(r) for r in data]
        if rows:
            if cols is not None and len(rows[0]) != cols:
                raise LinalgError(f"rows have length {len(rows[0])}, "
                                  f"not the declared {cols}")
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise LinalgError("ragged rows")
            if cols and (min(map(min, rows)) < 0
                         or max(map(max, rows)) >= field.order):
                raise FieldError(f"entry outside GF({field.order})")
        elif cols is None:
            raise LinalgError("zero-row matrix needs an explicit column count")
        if cols < 0:
            raise LinalgError("negative dimension")
        self.field = field
        self.data = tuple(rows)
        self.rows = len(rows)
        self.cols = cols
        self._rref = None

    # -- basic ops --------------------------------------------------------------

    def _same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise LinalgError("field mismatch")

    def mul(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise LinalgError("dimension mismatch")
        f = self.field
        mul, add = f.mul, f.add
        bt = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for row in self.data:
            orow = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(orow)
        return Matrix(f, out, cols=other.cols)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(self.field, [[] for _ in range(self.cols)], cols=0)
        return Matrix(self.field, list(zip(*self.data)), cols=self.rows)

    def conj_transpose(self) -> "Matrix":
        return frobenius_image(self).transpose()

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over GF({self.field.order}))"

    # -- elimination -------------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank and pivot columns."""
        if self._rref is None:
            f = self.field
            # the echelon basis by pivot, cleared above each pivot from the last
            basis = sorted(echelon(f, self.data))
            for i in range(len(basis) - 2, -1, -1):
                p, row = basis[i]
                basis[i] = (p, reduce_row(f, row, basis[i + 1:]))
            rank = len(basis)
            rows = [row for _, row in basis] + [[0] * self.cols] * (self.rows - rank)
            self._rref = (Matrix(f, rows, cols=self.cols), rank,
                          tuple(p for p, _ in basis))
        return self._rref

    def rank(self) -> int:
        return self.rref()[1]

    def row_space_key(self) -> tuple:
        """The nonzero rows of the RREF: a canonical key for the row space."""
        red, rank, _ = self.rref()
        return tuple(red.data[:rank])

    def kernel_basis(self) -> "Matrix":
        """Full-rank K with self K^T = 0 and rank(K) = cols - rank(self)."""
        f = self.field
        red, rank, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [0] * self.cols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = f.neg(red.data[i][fc])
            basis.append(vec)
        return Matrix(f, basis, cols=self.cols)


def reduce_row(field: GaloisField, row: Sequence[int],
               basis: Sequence[tuple[int, Sequence[int]]]) -> Sequence[int]:
    """Subtract from row, for each (pivot, b) in turn, the multiple of b that
    clears row[pivot]; each b is 1 at its own pivot.  The one elimination
    loop of the package."""
    mul, add, neg = field.mul, field.add, field.neg
    for p, b in basis:
        if row[p]:
            t = neg(row[p])
            row = [add(x, mul(t, y)) for x, y in zip(row, b)]
    return row


def echelon_pair(field: GaloisField, row: Sequence[int],
                 basis: Sequence[tuple[int, Sequence[int]]]):
    """The (pivot, row) pair that row adds to an echelon basis: row reduced
    against the basis and scaled to 1 at its first nonzero entry, its
    pivot; None if row lies in the span."""
    row = reduce_row(field, row, basis)
    p = next((i for i, x in enumerate(row) if x), None)
    if p is None:
        return None
    if row[p] != 1:
        s = field.inv(row[p])
        row = [field.mul(s, x) for x in row]
    return p, row


def echelon(field: GaloisField,
            rows: Sequence[Sequence[int]]) -> list[tuple[int, Sequence[int]]]:
    """An echelon basis of the row space as (pivot, row) pairs in insertion
    order, each from echelon_pair against the pairs before it.  A row is
    zero at the pivots of the pairs before it; the rank is the length."""
    basis = []
    for row in rows:
        pair = echelon_pair(field, row, basis)
        if pair is not None:
            basis.append(pair)
    return basis


def frobenius_image(mat: Matrix) -> Matrix:
    frob = mat.field.frobenius
    return Matrix(mat.field, [[frob(x) for x in row] for row in mat.data],
                  cols=mat.cols)


def is_multiplicative_subgroup(field: GaloisField, alpha: Sequence[int]) -> bool:
    """True iff the entries of alpha are distinct and form a multiplicative
    subgroup of the field's unit group."""
    pts = list(alpha)
    s = set(pts)
    if len(s) != len(pts) or 0 in s or 1 not in s:
        return False
    return all(field.mul(x, y) in s for x in s for y in s)

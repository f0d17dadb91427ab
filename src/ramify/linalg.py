"""Dense exact linear algebra over finite fields, on element keys.

A matrix is built from, and holds, a flat row-major tuple of element keys
(see ``ramify.fields``).  Products go through the field's packed-key codec
(``FiniteField.pack``): integer dot products of packed keys give the
coefficients of x^0 .. x^(2a-2) in their slots, and ``FiniteField.unpack``
reduces them.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add, mul

from .errors import DimensionMismatch, FieldMismatch, SingularMatrix
from .fields import FiniteField, power


def _axpy(field: FiniteField, xs: Sequence[int], cs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Keys of the rows x_i + c_i * y, where xs holds the len(cs) rows x_i
    one after another and every row has len(ys) keys."""
    bits = field.slot_bits(1)
    xs, cs, ys = (field.pack(v, bits) for v in (xs, cs, ys))
    return field.unpack(list(map(add, xs, [c * y for c in cs for y in ys])), bits)


def _reduce(field: FiniteField, rows: list[list[int]], ncols: int) -> int:
    """Reduced row echelon form of key rows on their first ncols columns,
    in place; the pivot is the first nonzero entry.  Returns the rank."""
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot] = rows[rank]
        m = len(top)
        if top[col] != 1:
            top = field.scale_keys(field.inverse_key(top[col]), top)
        rows[rank] = top
        # Every other row with a nonzero in this column at once: row - row[col] * top.
        hit = [r for r, row in enumerate(rows) if r != rank and row[col]]
        if hit:
            negs = field.neg_keys([rows[r][col] for r in hit])
            flat = _axpy(field, [x for r in hit for x in rows[r]], negs, top)
            for i, r in enumerate(hit):
                rows[r] = flat[i * m : (i + 1) * m]
        rank += 1
    return rank


class MatrixFF:
    """Square matrix over a finite field; immutable.  ``MatrixFF(field, n,
    keys)`` is the n x n matrix with the given row-major element keys;
    the keys themselves are not checked."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: FiniteField, n: int, keys: Sequence[int]):
        if len(keys) != n * n:
            raise DimensionMismatch("matrix must be square")
        self.field = field
        self.n = n
        self.entries = tuple(keys)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixFF":
        return cls(field, n, [int(i == j) for i in range(n) for j in range(n)])

    def _key_rows(self) -> list[list[int]]:
        n = self.n
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]

    def key(self) -> tuple[int, ...]:
        """Canonical integer tuple; used for ordering and hashing."""
        return self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFF)
            and self.entries == other.entries
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"MatrixFF({self.n}x{self.n}, key={self.key()})"

    def _check(self, other: "MatrixFF") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")

    def __mul__(self, other: "MatrixFF") -> "MatrixFF":
        self._check(other)
        field, n = self.field, self.n
        bits = field.slot_bits(n)
        xs, ys = field.pack(self.entries, bits), field.pack(other.entries, bits)
        cols = [ys[j::n] for j in range(n)]
        dots = [sum(map(mul, xs[i * n : (i + 1) * n], col)) for i in range(n) for col in cols]
        return MatrixFF(field, n, field.unpack(dots, bits))

    def __sub__(self, other: "MatrixFF") -> "MatrixFF":
        self._check(other)
        return MatrixFF(self.field, self.n, self.field.add_keys(self.entries, other.entries, -1))

    def __pow__(self, e: int) -> "MatrixFF":
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return MatrixFF.identity(self.field, self.n)
        return power(self, e)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rank(self) -> int:
        return _reduce(self.field, self._key_rows(), self.n)

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> "MatrixFF":
        n = self.n
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self._key_rows())]
        if _reduce(self.field, aug, n) < n:
            raise SingularMatrix("matrix is not invertible")
        return MatrixFF(self.field, n, [x for row in aug for x in row[n:]])


def fixed_dim(mats: Sequence[MatrixFF]) -> int:
    """Dimension of the common fixed space {v : Mv = v for all M}: n minus
    the rank of the stacked rows of every M - 1."""
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    field = mats[0].field
    n = mats[0].n
    rows = []
    for m in mats:
        if m.field != field or m.n != n:
            raise DimensionMismatch("matrices of mixed shape or field")
        rows.extend(r for r in (m - MatrixFF.identity(field, n))._key_rows() if any(r))
    return n - _reduce(field, rows, n)

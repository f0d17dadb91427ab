import random

import pytest

from ramify.errors import DimensionMismatch, SingularMatrix
from ramify.fields import field_create, prime_factors
from ramify.groups import power_order
from ramify.linalg import MatrixFF, fixed_dim

F3 = field_create(3, 1)
F4 = field_create(2, 2)


def all_vectors(field, n):
    vecs = [()]
    for _ in range(n):
        vecs = [v + (x,) for v in vecs for x in field.elements()]
    return vecs


def fixed_set_oracle(mats):
    """Enumerate every vector and keep the ones fixed by all matrices."""
    field, n = mats[0].field, mats[0].n
    out = []
    for v in all_vectors(field, n):
        ok = True
        for m in mats:
            image = tuple(
                sum((row[j] * v[j] for j in range(n)), field.zero())
                for row in m.rows
            )
            if image != v:
                ok = False
                break
        if ok:
            out.append(v)
    return set(out)


def test_identity_fixes_everything():
    ident = MatrixFF.identity(F3, 2)
    assert fixed_dim([ident]) == 2


def test_diagonal_with_root_of_unity():
    zeta = F4.generator()
    m = MatrixFF(F4, [[F4.one(), F4.zero()], [F4.zero(), zeta]])
    assert fixed_dim([m]) == 1
    assert len(fixed_set_oracle([m])) == 4


def test_swap_matrix_fixed_line():
    swap = MatrixFF.from_int_rows(F3, [[0, 1], [1, 0]])
    assert fixed_dim([swap]) == 1
    assert len(fixed_set_oracle([swap])) == 3


def test_fixed_dim_invariant_under_conjugation():
    rng = random.Random(7)
    mats = [
        MatrixFF.from_int_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
        MatrixFF.from_int_rows(F3, [[1, 0, 0], [0, 0, 1], [0, 2, 0]]),
    ]
    base_dim = fixed_dim(mats)
    for _ in range(5):
        while True:
            c = MatrixFF(
                F3,
                [[F3.from_int(rng.randrange(3)) for _ in range(3)] for _ in range(3)],
            )
            if c.is_invertible():
                break
        conj = [c * m * c.inverse() for m in mats]
        assert fixed_dim(conj) == base_dim


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fixed_dim([])
    with pytest.raises(DimensionMismatch):
        fixed_dim([MatrixFF.identity(F3, 2), MatrixFF.identity(F3, 3)])


def test_matrix_inverse_and_rank():
    m = MatrixFF.from_int_rows(F3, [[1, 2], [1, 1]])
    assert m.rank() == 2
    assert m * m.inverse() == MatrixFF.identity(F3, 2)
    singular = MatrixFF.from_int_rows(F3, [[1, 2], [2, 1]])
    assert singular.rank() == 1
    with pytest.raises(SingularMatrix):
        singular.inverse()


def test_matrix_power_and_subtraction():
    m = MatrixFF.from_int_rows(F3, [[1, 1], [0, 1]])
    assert m ** 3 == MatrixFF.identity(F3, 2)
    nil = m - MatrixFF.identity(F3, 2)
    assert (nil ** 2).is_zero()


# ---------------------------------------------------------------------------
# Differential test: MatrixFF computes on element keys; the oracle below is
# the schoolbook algorithm on FieldElement rows.


def box_mul(a, b, field):
    n = len(a)
    return [
        [sum((a[i][t] * b[t][j] for t in range(n)), field.zero()) for j in range(n)]
        for i in range(n)
    ]


def box_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def box_rref(rows, ncols):
    """Gauss-Jordan on FieldElement rows: (reduced rows, rank)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def box_inverse(a, field):
    n = len(a)
    aug = [list(r) + e for r, e in zip(a, box_identity(field, n))]
    reduced, rank = box_rref(aug, n)
    return None if rank < n else [row[n:] for row in reduced]


def box_pow(a, e, field):
    if e < 0:
        a, e = box_inverse(a, field), -e
    out = box_identity(field, len(a))
    for _ in range(e):
        out = box_mul(out, a, field)
    return out


def as_rows(rows):
    return tuple(tuple(r) for r in rows)


def random_box(field, n, rng):
    return [[field.from_key(rng.randrange(field.order)) for _ in range(n)] for _ in range(n)]


DIFF_FIELDS = [(2, 1), (7, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,a", DIFF_FIELDS)
def test_key_arithmetic_matches_the_boxed_oracle(p, a):
    field = field_create(p, a)
    rng = random.Random(p * 10 + a)
    for n in range(1, 5):
        cases = [random_box(field, n, rng) for _ in range(12)]
        cases.append([[field.zero()] * n for _ in range(n)])
        cases.append(box_identity(field, n))
        for x in cases:
            y = random_box(field, n, rng)
            mx, my = MatrixFF(field, x), MatrixFF(field, y)
            assert mx.rows == as_rows(x)
            assert mx.key() == tuple(e.key() for row in x for e in row)
            assert (mx * my).rows == as_rows(box_mul(x, y, field))
            assert (mx - my).rows == as_rows([[s - t for s, t in zip(r1, r2)] for r1, r2 in zip(x, y)])
            for e in (0, 1, 2, 5):
                assert (mx ** e).rows == as_rows(box_pow(x, e, field))
            rank = box_rref(x, n)[1]
            assert mx.rank() == rank
            assert mx.is_invertible() == (rank == n)
            assert mx.is_zero() == (not any(e for row in x for e in row))
            assert (mx == MatrixFF.identity(field, n)) == (as_rows(x) == as_rows(box_identity(field, n)))
            assert (mx == my) == (as_rows(x) == as_rows(y))
            same = MatrixFF.from_keys(field, n, mx.key())
            assert same == mx and hash(same) == hash(mx)
            inv = box_inverse(x, field)
            if inv is None:
                with pytest.raises(SingularMatrix):
                    mx.inverse()
                continue
            assert mx.inverse().rows == as_rows(inv)
            assert (mx ** -3).rows == as_rows(box_pow(x, -3, field))
            ident = MatrixFF.identity(field, n)
            order = power_order(mx, MatrixFF.__mul__, ident)
            assert mx ** order == ident
            assert not any(mx ** (order // q) == ident for q in prime_factors(order))


@pytest.mark.parametrize("p,a", DIFF_FIELDS)
def test_fixed_subspace_matches_the_brute_force_oracle(p, a):
    field = field_create(p, a)
    rng = random.Random(p * 100 + a)
    for n in range(1, 4 if field.order > 4 else 5):
        for k in range(n + 1):
            mats = []
            for _ in range(2):
                # Identity on the first k basis vectors, random elsewhere, conjugated.
                d = box_identity(field, n)
                for row in d:
                    row[k:] = [field.from_key(rng.randrange(field.order)) for _ in range(n - k)]
                while True:
                    c = MatrixFF(field, random_box(field, n, rng))
                    if c.is_invertible():
                        break
                mats.append(c * MatrixFF(field, d) * c.inverse())
            assert len(fixed_set_oracle(mats)) == field.order ** fixed_dim(mats)

import itertools
import random
import time

import pytest

from ramify.errors import FieldMismatch, MissingRootsOfUnity, NotPrime, SizeCapExceeded, ZeroElement
from ramify.fields import (
    canonical_modulus,
    field_create,
    is_prime,
    power,
)
from ramify.linalg import MatrixFF
from ramify.series import LaurentSeries


def poly_has_root(coeffs, p):
    """Oracle: evaluate a dense little-endian polynomial at every x in F_p."""
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def test_prime_field_modulus_is_x():
    F = field_create(2, 1)
    assert F.modulus == (0, 1)
    assert F.order == 2


def test_f4_modulus_is_irreducible_by_root_search():
    F = field_create(2, 2)
    assert F.modulus == (1, 1, 1)
    assert not poly_has_root(F.modulus, 2)
    assert len(list(F.elements())) == 4


def test_modulus_deterministic_across_instances():
    assert canonical_modulus(3, 3) == canonical_modulus(3, 3)
    assert field_create(5, 2).modulus == field_create(5, 2).modulus


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        field_create(4, 1)
    with pytest.raises(NotPrime):
        field_create(1, 1)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        field_create(2, 20)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive_small(p, a):
    F = field_create(p, a)
    elems = list(F.elements())
    zero, one = F.zero(), F.one()
    table = {(x.key(), y.key()): x * y for x in elems for y in elems}
    for x in elems:
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if x:
            assert x * x.inverse() == one
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert table[(x.key(), y.key())] == table[(y.key(), x.key())]
    for x in elems:
        for y in elems:
            for z in elems:
                left = table[(table[(x.key(), y.key())].key(), z.key())]
                right = table[(x.key(), table[(y.key(), z.key())].key())]
                assert left == right
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p,a", [(2, 6), (7, 2), (5, 2), (3, 3)])
def test_field_axioms_exhaustive_up_to_64_via_int_tables(p, a):
    # For the larger fields under the 64-element bound, check group axioms
    # on precomputed integer tables to keep the loop cheap.
    F = field_create(p, a)
    assert F.order <= 64
    elems = list(F.elements())
    n = F.order
    add = [[(elems[i] + elems[j]).key() for j in range(n)] for i in range(n)]
    mul = [[(elems[i] * elems[j]).key() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert add[add[i][j]][k] == add[i][add[j][k]]
                assert mul[mul[i][j]][k] == mul[i][mul[j][k]]


def test_root_of_unity_of_order_one_needs_no_generator(monkeypatch):
    F25 = field_create(5, 2)
    assert F25.root_of_unity(24).multiplicative_order() == 24
    monkeypatch.setattr(type(F25), "generator", lambda self: pytest.fail("generator search"))
    assert F25.root_of_unity(1) == F25.one()
    for m in (0, 5):
        with pytest.raises(MissingRootsOfUnity):
            F25.root_of_unity(m)


def test_multiplicative_order_examples():
    F4 = field_create(2, 2)
    assert F4.one().multiplicative_order() == 1
    gen = F4.generator()
    # Oracle: enumerate the powers directly.
    powers = {gen}
    x = gen
    while True:
        x = x * gen
        if x in powers:
            break
        powers.add(x)
    assert len(powers) == 3
    assert gen.multiplicative_order() == 3

    F3 = field_create(3, 1)
    minus_one = -F3.one()
    assert minus_one * minus_one == F3.one()
    assert minus_one.multiplicative_order() == 2


def test_order_divides_group_order():
    F9 = field_create(3, 2)
    for x in F9.elements():
        if x:
            assert 8 % x.multiplicative_order() == 0


def test_zero_has_no_order_or_inverse():
    F = field_create(3, 1)
    with pytest.raises(ZeroElement):
        F.zero().multiplicative_order()
    with pytest.raises(ZeroElement):
        F.zero().inverse()


def test_field_mismatch():
    a = field_create(2, 1).one()
    b = field_create(3, 1).one()
    with pytest.raises(FieldMismatch):
        a + b


def test_pth_root_inverts_frobenius():
    F8 = field_create(2, 3)
    for x in F8.elements():
        assert x.pth_root() ** 2 == x


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_canonical_modulus_against_galoistools():
    """For every p^a <= 3^5 the modulus is irreducible and lexicographically least."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def irreducible(tail, p):  # tail = (c_0, ..., c_{a-1}) of a monic polynomial
        return galoistools.gf_irreducible_p([1] + list(reversed(tail)), p, ZZ)

    for p in (q for q in range(2, 3 ** 5 + 1) if is_prime(q)):
        a = 1
        while p ** a <= 3 ** 5:
            modulus = canonical_modulus(p, a)
            assert modulus[-1] == 1 and len(modulus) == a + 1
            assert irreducible(modulus[:-1], p), (p, a)
            for tail in itertools.product(range(p), repeat=a):
                if tail == modulus[:-1]:
                    break
                assert not irreducible(tail, p), (p, a, tail)
            a += 1


@pytest.mark.parametrize("p,a", [(2, 6), (2, 11), (3, 9), (7, 3), (2, 16)])
def test_products_against_galoistools(p, a):
    """Element products and the bulk keys_from_columns reduction against
    gf_rem(gf_mul(x, y), modulus), on random pairs over fields too large for
    the exhaustive axiom tests."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def big_endian(coeffs):
        return galoistools.gf_strip([int(c) for c in reversed(coeffs)])

    F = field_create(p, a)
    modulus = big_endian(F.modulus)
    rng = random.Random(p ** a)
    pairs = [
        (F.from_key(rng.randrange(F.order)), F.from_key(rng.randrange(F.order)))
        for _ in range(300)
    ]
    expected = [
        F.from_coeffs(list(reversed(galoistools.gf_rem(
            galoistools.gf_mul(big_endian(x.coeffs), big_endian(y.coeffs), p, ZZ),
            modulus, p, ZZ,
        ))))
        for x, y in pairs
    ]
    assert [x * y for x, y in pairs] == expected
    # Column k holds the x^k coefficient of each unreduced product.
    columns = [
        [sum(x.coeffs[i] * y.coeffs[k - i] for i in range(max(0, k - a + 1), min(k, a - 1) + 1))
         for x, y in pairs]
        for k in range(2 * a - 1)
    ]
    assert F.keys_from_columns(columns) == [z.key() for z in expected]


def full_scan_modulus(p, a):
    """The modulus search without the root filter: every candidate, in
    lexicographic order, goes through the irreducibility test."""
    from ramify.fields import _is_irreducible

    for tail in itertools.product(range(p), repeat=a):
        if _is_irreducible(list(tail) + [1], p):
            return tuple(tail) + (1,)


def test_root_filtered_modulus_equals_the_full_scan():
    fields = 0
    for p in (q for q in range(2, 3 ** 7 + 1) if is_prime(q)):
        a = 1
        while p ** a <= 3 ** 7:
            assert canonical_modulus(p, a) == full_scan_modulus(p, a), (p, a)
            fields += a > 1
            a += 1
    assert fields == 32  # every p^a <= 3^7 with a > 1
    assert canonical_modulus(7, 1) == (0, 1)


def test_size_cap_is_checked_before_primality():
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        field_create(2305843009213693951, 1)  # 2^61 - 1: trial division would not end
    with pytest.raises(SizeCapExceeded):
        field_create(2, 10 ** 30)  # p^a is never formed
    with pytest.raises(SizeCapExceeded):
        field_create(10 ** 4000 + 1, 65536)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SizeCapExceeded):
        field_create(2, 17)
    assert field_create(2, 16).order == 1 << 16
    with pytest.raises(NotPrime):
        field_create(0, 3)


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 3)])
def test_inverse_by_euclid_matches_the_power_q_minus_2(p, a):
    # x^(q-2) by repeated multiplication is the oracle for every nonzero x.
    F = field_create(p, a)
    for key in range(1, F.order):
        x = F.from_key(key)
        want = x ** (F.order - 2)
        assert F.inverse_key(key) == want.key()
        assert x.inverse() == want
        assert x * want == F.one()
    with pytest.raises(ZeroElement):
        F.inverse_key(0)
    with pytest.raises(ZeroElement):
        F.zero().inverse()


def _power_inputs():
    F5, F9 = field_create(5, 1), field_create(3, 2)
    series = LaurentSeries(F5, -2, [3, 0, 1, 4, 2, 1], 4)
    matrix = MatrixFF.from_int_rows(F5, [[1, 2, 0], [0, 3, 1], [4, 0, 1]])
    return [series, matrix, F9.from_key(5)]


@pytest.mark.parametrize("x", _power_inputs(), ids=["approximate-series", "matrix", "F9-element"])
def test_power_squares_and_multiplies_left_to_right(x, monkeypatch):
    # Oracle: e - 1 right multiplications by x, under ==.
    want = [x]
    for _ in range(39):
        want.append(want[-1] * x)
    calls = []
    inner = type(x).__mul__

    def counted(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(type(x), "__mul__", counted)
    for e in range(1, 41):
        calls.clear()
        assert power(x, e) == want[e - 1]
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
        assert x ** e == want[e - 1]

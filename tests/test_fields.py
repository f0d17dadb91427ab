import hashlib
import itertools
import math
import operator
import random
import sys
import time

import pytest

from ramify.errors import MissingRootsOfUnity, NotPrime, SizeCapExceeded, ZeroElement
from ramify.fields import (
    _euclid,
    _is_irreducible,
    canonical_modulus,
    field_create,
    is_prime,
    least_factor,
    power,
    prime_factors,
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


def coordinates(F, key):
    """The a coordinates of a key, its base-p digits."""
    return [key // F.p ** i % F.p for i in range(F.a)]


def order_by_powers(F, x):
    """Oracle: the multiplicative order of a nonzero key by repeated products."""
    y, k = x, 1
    while y != 1:
        y, k = F.mul_key(y, x), k + 1
    return k


def column_loop_scale(F, c, keys):
    """Oracle: c times each key with no packing: coordinate i of c times
    coordinate column k is added into column i + k, and ``keys_from_columns``
    reduces once."""
    p = F.p
    if F.a == 1:
        return [c * x % p for x in keys]
    cols = F.key_columns(keys)
    out = [[0] * len(keys) for _ in range(2 * F.a - 1)]
    for i in range(F.a):
        ci = c // p ** i % p
        if ci:
            for k, col in enumerate(cols):
                out[i + k] = [s + ci * x for s, x in zip(out[i + k], col)]
    return F.keys_from_columns(out)


def test_prime_field_modulus_is_x():
    F = field_create(2, 1)
    assert F.modulus == (0, 1)
    assert F.order == 2


def test_f4_modulus_is_irreducible_by_root_search():
    F = field_create(2, 2)
    assert F.modulus == (1, 1, 1)
    assert not poly_has_root(F.modulus, 2)
    assert F.order == 4


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
    elems = range(F.order)
    add = [F.add_keys([x] * F.order, elems) for x in elems]
    mul = [[F.mul_key(x, y) for y in elems] for x in elems]
    assert all(add[x][y] == 0 for x, y in zip(elems, F.neg_keys(elems)))
    for x in elems:
        assert add[x][0] == x and mul[x][1] == x
        if x:
            assert mul[x][F.inverse_key(x)] == 1
    for x in elems:
        for y in elems:
            assert add[x][y] == add[y][x]
            assert mul[x][y] == mul[y][x]
    for x in elems:
        for y in elems:
            for z in elems:
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]


@pytest.mark.parametrize("p,a", [(2, 6), (7, 2), (5, 2), (3, 3)])
def test_field_axioms_exhaustive_up_to_64_via_int_tables(p, a):
    # For the larger fields under the 64-element bound, check group axioms
    # on precomputed integer tables to keep the loop cheap.
    F = field_create(p, a)
    assert F.order <= 64
    n = F.order
    add = [F.add_keys([i] * n, range(n)) for i in range(n)]
    mul = [F.scale_keys(i, range(n)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert add[add[i][j]][k] == add[i][add[j][k]]
                assert mul[mul[i][j]][k] == mul[i][mul[j][k]]


# Every key of the small fields; seeded samples of F_{2^16} and F_{3^10}.
CODEC_FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 6), (7, 3)]
SAMPLED_FIELDS = [(2, 16), (3, 10)]


def codec_keys(F, count=200):
    if (F.p, F.a) in CODEC_FIELDS:
        return list(range(F.order))
    rng = random.Random(F.order)
    return [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(count)]


@pytest.mark.parametrize("p,a", [(2, 1), (7, 1)] + CODEC_FIELDS + SAMPLED_FIELDS)
def test_unpack_inverts_pack(p, a):
    F = field_create(p, a)
    keys = codec_keys(F)
    for terms in (1, 2, 16):
        bits = F.slot_bits(terms)
        packed = F.pack(keys, bits)
        assert all(x < 1 << a * bits for x in packed)
        assert F.unpack(packed, bits) == keys


@pytest.mark.parametrize("p,a", [(2, 1), (7, 1)] + CODEC_FIELDS + SAMPLED_FIELDS)
def test_unpack_window_inverts_pack_window(p, a):
    F = field_create(p, a)
    keys = codec_keys(F)
    width = 2 * a - 1
    # 72-bit slots have no memoryview cast: the slot-by-slot read.
    for bits in [F.window_bits(terms) for terms in (1, 2, 16, len(keys))] + [72]:
        assert bits % 8 == 0
        packed = F.pack_window(keys, bits)
        assert packed < 1 << len(keys) * width * bits
        assert F.unpack_window(packed, len(keys), len(keys), bits) == keys
        assert F.unpack_window(packed, len(keys), 5, bits) == keys[:5]


@pytest.mark.skipif(sys.byteorder != "little", reason="slots are cast only on little-endian machines")
def test_window_slots_are_the_least_cast_width_over_slot_bits():
    for p, a in [(2, 1), (7, 1), (2, 6), (3, 10), (2, 16)]:
        F = field_create(p, a)
        for terms in (1, 2, 16, 1000, 1 << 20, 1 << 70):
            need = F.slot_bits(terms)
            bits = F.window_bits(terms)
            assert bits >= need
            assert bits == next((w for w in (8, 16, 32, 64) if w >= need), -(-need // 8) * 8)


@pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (2, 3), (2, 6), (2, 16)])
def test_negation_in_characteristic_two_is_the_identity(p, a, monkeypatch):
    F = field_create(p, a)
    keys = codec_keys(F)
    assert F.neg_keys(keys) == F.scale_keys(p - 1, keys) == keys
    monkeypatch.setattr(type(F), "scale_keys", lambda *args: pytest.fail("a product"))
    assert F.neg_keys(keys) == keys


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (3, 3), (31, 3), (3, 10)])
def test_odd_negation_negates_the_columns_and_matches_scaling(p, a, monkeypatch):
    F = field_create(p, a)
    keys = codec_keys(F)
    want = F.scale_keys(p - 1, keys)
    monkeypatch.setattr(type(F), "scale_keys", lambda *args: pytest.fail("a product"))
    assert F.neg_keys(keys) == want
    assert F.neg_keys([]) == []


@pytest.mark.parametrize("p,a", CODEC_FIELDS + SAMPLED_FIELDS)
def test_packed_products_match_the_column_loop_oracle(p, a):
    F = field_create(p, a)
    keys = codec_keys(F)
    for c in keys[:: max(1, len(keys) // 50)]:
        want = column_loop_scale(F, c, keys)
        assert F.scale_keys(c, keys) == want
        assert [F.mul_key(c, x) for x in keys[:60]] == want[:60]
    negs = F.neg_keys(keys)
    assert negs == column_loop_scale(F, p - 1, keys)
    assert F.add_keys(keys, negs) == [0] * len(keys)


def test_root_of_unity_of_order_one_needs_no_generator(monkeypatch):
    F25 = field_create(5, 2)
    assert order_by_powers(F25, F25.root_of_unity(24)) == 24
    monkeypatch.setattr(type(F25), "generator", lambda self: pytest.fail("generator search"))
    assert F25.root_of_unity(1) == 1
    for m in (0, 5):
        with pytest.raises(MissingRootsOfUnity):
            F25.root_of_unity(m)


@pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (3, 2), (2, 4), (7, 2), (13, 1), (2, 6), (5, 3)])
def test_root_of_unity_has_order_exactly_m(p, a):
    F = field_create(p, a)
    n = F.order - 1
    assert order_by_powers(F, F.generator()) == n
    assert all(order_by_powers(F, x) < n for x in range(1, F.generator()))
    for m in (d for d in range(1, n + 1) if n % d == 0):
        assert order_by_powers(F, F.root_of_unity(m)) == m


def test_powers_are_the_repeated_products():
    for p, a in ((2, 1), (5, 1), (2, 6), (3, 2)):
        F = field_create(p, a)
        for x in range(F.order):
            want = [1]
            for _ in range(40):
                want.append(F.mul_key(want[-1], x))
            for n in (1, 2, 3, 17, 32, 41):
                assert F.powers_key(x, n) == want[:n]


def test_multiplicative_order_examples():
    F4 = field_create(2, 2)
    assert order_by_powers(F4, 1) == 1
    gen = F4.generator()
    # Oracle: enumerate the powers directly.
    powers = {gen}
    x = gen
    while True:
        x = F4.mul_key(x, gen)
        if x in powers:
            break
        powers.add(x)
    assert len(powers) == 3
    assert [F4.pow_key(gen, e) for e in range(4)] == [1, gen, F4.mul_key(gen, gen), 1]

    F3 = field_create(3, 1)
    (minus_one,) = F3.neg_keys([1])
    assert F3.mul_key(minus_one, minus_one) == 1
    assert order_by_powers(F3, minus_one) == 2


def test_order_divides_group_order():
    F9 = field_create(3, 2)
    for x in range(1, 9):
        assert 8 % order_by_powers(F9, x) == 0
        assert F9.pow_key(x, 8) == 1


def test_zero_has_no_order_or_inverse():
    F = field_create(3, 1)
    with pytest.raises(ZeroElement):
        F.pow_key(0, -1)
    with pytest.raises(ZeroElement):
        F.inverse_key(0)


def test_pth_root_inverts_frobenius():
    for p, a in ((2, 3), (3, 2), (5, 1), (2, 5)):
        F = field_create(p, a)
        assert sorted(F.pth_root_key(x) for x in range(F.order)) == list(range(F.order))
        for x in range(F.order):
            assert F.pow_key(F.pth_root_key(x), p) == x


def trial_is_prime(n):
    """Oracle: the 6k +- 1 primality test as it stood before ``least_factor``."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    i = 5
    while i * i <= n:
        if n % i == 0 or n % (i + 2) == 0:
            return False
        i += 6
    return True


def trial_prime_factors(n):
    """Oracle: distinct prime factors by division by every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def trial_least_factor(n):
    """Oracle: the least divisor d >= 2 of n, or n, by division by every d <= sqrt(n)."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def test_trial_division_matches_the_oracles():
    rng = random.Random(20)
    for n in itertools.chain(range(-3, 20000), (rng.randrange(1 << 20) for _ in range(500))):
        assert is_prime(n) == trial_is_prime(n), n
        assert prime_factors(n) == trial_prime_factors(n), n
        if n >= 2:
            assert least_factor(n) == trial_least_factor(n), n


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


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 6), (2, 11), (3, 9), (7, 3), (2, 16), (3, 10)])
def test_products_against_galoistools(p, a):
    """mul_key, pow_key, inverse_key, pth_root_key and the bulk
    keys_from_columns reduction against galoistools' gf_rem(gf_mul(x, y)),
    gf_pow_mod and gf_gcdex modulo the modulus, on random keys over fields
    too large for the exhaustive axiom tests."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def big_endian(key):
        return galoistools.gf_strip(list(reversed(coordinates(F, key))))

    def key_of(poly):  # big-endian galoistools coefficients
        return sum(int(c) * p ** i for i, c in enumerate(reversed(poly)))

    F = field_create(p, a)
    modulus = list(reversed(F.modulus))
    rng = random.Random(p ** a)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(300)]
    expected = [
        key_of(galoistools.gf_rem(galoistools.gf_mul(big_endian(x), big_endian(y), p, ZZ), modulus, p, ZZ))
        for x, y in pairs
    ]
    assert [F.mul_key(x, y) for x, y in pairs] == expected
    # Column k holds the x^k coefficient of each unreduced product.
    columns = [
        [sum(coordinates(F, x)[i] * coordinates(F, y)[k - i] for i in range(max(0, k - a + 1), min(k, a - 1) + 1))
         for x, y in pairs]
        for k in range(2 * a - 1)
    ]
    assert F.keys_from_columns(columns) == expected
    for x, _ in pairs[:60]:
        e = rng.randrange(-F.order, F.order)
        if x:
            s, _, g = galoistools.gf_gcdex(big_endian(x), modulus, p, ZZ)
            assert g == [1]
            assert F.inverse_key(x) == key_of(s)
            base, exp = (s, -e) if e < 0 else (big_endian(x), e)
            assert F.pow_key(x, e) == key_of(galoistools.gf_pow_mod(base, exp, modulus, p, ZZ))
        root = F.pth_root_key(x)
        assert key_of(galoistools.gf_pow_mod(big_endian(root), p, modulus, p, ZZ)) == x


def full_scan_modulus(p, a):
    """The modulus search without the root filter: every candidate, in
    lexicographic order, goes through galoistools' irreducibility test."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    for tail in itertools.product(range(p), repeat=a):
        if galoistools.gf_irreducible_p([1] + list(reversed(tail)), p, ZZ):
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


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3)])
def test_is_irreducible_against_galoistools(p, top):
    """Every monic polynomial of degree 1..top over F_p.  The root-free
    reducible ones, such as x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2, pass
    x^(p^a) = x and are caught only by the coprimality step."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    root_free_reducible = 0
    for a in range(1, top + 1):
        for tail in itertools.product(range(p), repeat=a):
            f = list(tail) + [1]
            expected = galoistools.gf_irreducible_p(list(reversed(f)), p, ZZ)
            assert _is_irreducible(f, p) == expected, (p, f)
            root_free_reducible += not expected and not poly_has_root(f, p)
    assert (root_free_reducible > 0) == (top >= 4)  # degree <= 3: a root or irreducible
    assert not _is_irreducible([1, 0, 1, 0, 1], 2)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_euclid_against_galoistools(p):
    """g is gf_gcdex's gcd up to its leading coefficient, and s f = g
    modulo the second argument, for coprime pairs, pairs with a common
    factor and f = 0."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def big_endian(f):
        return galoistools.gf_strip(list(reversed(f)))

    rng = random.Random(p)
    common = coprime = 0
    for _ in range(200):
        d = rng.randrange(1, 9)
        mod = [rng.randrange(p) for _ in range(d)] + [1]
        f = [rng.randrange(p) for _ in range(rng.randrange(d + 1))]
        if rng.random() < 0.3:  # share a factor with f
            factor = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
            cofactor = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            mod = galoistools.gf_mul(big_endian(factor), big_endian(cofactor), p, ZZ)[::-1]
            f = galoistools.gf_rem(galoistools.gf_mul(big_endian(factor), big_endian(f), p, ZZ),
                                   big_endian(mod), p, ZZ)[::-1]
        g, s = _euclid(f, mod, p)
        _, _, h = galoistools.gf_gcdex(big_endian(f), big_endian(mod), p, ZZ)
        assert g and galoistools.gf_monic(big_endian(g), p, ZZ)[1] == h, (f, mod)
        product = galoistools.gf_mul(big_endian(s), big_endian(f), p, ZZ)
        assert galoistools.gf_rem(product, big_endian(mod), p, ZZ) == galoistools.gf_rem(
            big_endian(g), big_endian(mod), p, ZZ), (f, mod)
        common += len(g) > 1
        coprime += len(g) == 1
    assert common > 20 and coprime > 20
    assert _euclid([], [1, 1, 1], p) == ([1, 1, 1], [])


# sha256 of repr([(p, a, canonical_modulus(p, a)), ...]) over the 93 fields
# F_{p^a} <= 2^16 with a >= 2, p ascending and then a.
MODULI_DIGEST = "7b3fa99a03bdfecab6389fc04cc2ee70a488b2a0a252e71faf074b3ecc521a16"


def test_moduli_up_to_the_size_cap_keep_their_digest():
    table = [
        (p, a, canonical_modulus(p, a))
        for p in range(2, 2 ** 8 + 1) if is_prime(p)
        for a in range(2, 17) if p ** a <= 2 ** 16
    ]
    assert len(table) == 93
    assert hashlib.sha256(repr(table).encode()).hexdigest() == MODULI_DIGEST


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
    # x^(q-2), by square-and-multiply, is the oracle for every nonzero x.
    F = field_create(p, a)
    for x in range(1, F.order):
        want = F.pow_key(x, F.order - 2)
        assert F.inverse_key(x) == want
        assert F.pow_key(x, -1) == want
        assert F.mul_key(x, want) == 1
    with pytest.raises(ZeroElement):
        F.inverse_key(0)
    with pytest.raises(ZeroElement):
        F.pow_key(0, -2)


def _power_inputs():
    F5, F9 = field_create(5, 1), field_create(3, 2)
    series = LaurentSeries(F5, -2, [3, 0, 1, 4, 2, 1], 4)
    matrix = MatrixFF(F5, 3, [1, 2, 0, 0, 3, 1, 4, 0, 1])
    return [(series, operator.mul, operator.pow), (matrix, operator.mul, operator.pow),
            (5, F9.mul_key, F9.pow_key)]


@pytest.mark.parametrize("x,product,raise_to", _power_inputs(), ids=["approximate-series", "matrix", "F9-element"])
def test_power_squares_and_multiplies_left_to_right(x, product, raise_to):
    # Oracle: e - 1 right multiplications by x, under ==.
    want = [x]
    for _ in range(39):
        want.append(product(want[-1], x))
    calls = []

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    for e in range(1, 41):
        calls.clear()
        assert power(x, e, counted) == want[e - 1]
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
        assert raise_to(x, e) == want[e - 1]

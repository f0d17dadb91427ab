"""Finite fields F_{p^a} with a deterministic modulus choice.

An element is its key: the int whose base-p digits are its coordinates in
the power basis of the modulus, so 0 and 1 are zero and one, an element of
the prime field is its residue, and a given (p, a) produces bit-identical
arithmetic on every platform.  The modulus is the lexicographically least
monic irreducible of degree a over F_p, ordered by the coefficient tuple
(c_0, ..., c_{a-1}).

Every key product is a Kronecker substitution (D. Harvey, J. Symbolic
Comput. 44, 2009) through one of two packed layouts, both here and both
sized by ``slot_bits``.  ``pack`` puts coordinate k of a key in bit slot k
of its own int, and ``unpack`` reduces the slots of a polynomial product:
``scale_keys``, matrices and ``series.compose``'s scalars use it.
``pack_window`` puts a whole window of keys in one int, in byte slots that
``unpack_window`` reads back by a memoryview cast: series products use it.
Keys have that one product and one Euclid, ``_euclid``, the only user of
boxed coefficient lists; the modulus search runs Rabin's test on keys too.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sequence
from functools import lru_cache
from math import isqrt
from operator import add, mul

from .errors import MissingRootsOfUnity, NotPrime, SizeCapExceeded, ZeroElement

DEFAULT_SIZE_CAP = 1 << 16

# Native unsigned formats a memoryview can cast packed little-endian window
# slots to, by width in bytes (none on a big-endian machine).
_CAST_CODES = (
    {memoryview(bytes(8)).cast(code).itemsize: code for code in "BHIQ"}
    if sys.byteorder == "little"
    else {}
)


def least_factor(n: int) -> int:
    """The least prime factor of n >= 2 (n itself when n is prime): trial
    division by 2 and the odd d up to sqrt(n)."""
    for d in itertools.chain((2,), range(3, isqrt(n) + 1, 2)):
        if n % d == 0:
            return d
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and least_factor(n) == n


def split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v * m and m prime to p, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    while n > 1:
        out.append(least_factor(n))
        n = split_prime_power(n, out[-1])[1]
    return out


def power(x, e: int, product=mul):
    """x ** e for e >= 1, for any x with an associative ``*`` (or ``product``).

    Left-to-right square-and-multiply: floor(log2 e) squarings and
    popcount(e) - 1 more products, with no identity to start from.
    """
    result = x
    for bit in bin(e)[3:]:
        result = product(result, result)
        if bit == "1":
            result = product(result, x)
    return result


# ---------------------------------------------------------------------------
# Dense little-endian coefficient lists over F_p (ints mod p), for Euclid.

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _euclid(f: Sequence[int], mod: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(g, s): g the last nonzero remainder of the extended Euclid on
    ``mod`` and f (deg f < deg mod), so gcd(f, mod) up to a unit, and s
    with s * f = g modulo ``mod``.  f is prime to ``mod`` when g is a
    constant; f = 0 gives (mod, [])."""
    r0, r1 = list(mod), _ptrim(list(f))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead = pow(r1[-1], -1, p)
        q = [0] * (len(r0) - len(r1) + 1)
        for i in range(len(q) - 1, -1, -1):
            c = q[i] = r0[i + len(r1) - 1] * lead % p
            for j, b in enumerate(r1):
                r0[i + j] = (r0[i + j] - c * b) % p
        qs = _pmul(q, s1, p)
        r0, r1 = r1, _ptrim(r0)
        s0, s1 = s1, _ptrim([(x - y) % p for x, y in itertools.zip_longest(s0, qs, fillvalue=0)])
    return (r1, s1) if r1 else (r0, s0)


# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_{p^a}, with elements as keys (see the module docstring)."""

    __slots__ = ("p", "a", "modulus", "order", "_generator")

    def __init__(self, p: int, a: int, modulus: tuple[int, ...]):
        self.p = p
        self.a = a
        self.modulus = modulus
        self.order = p ** a
        self._generator = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.a == other.a
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.a})"

    # -- keys ----------------------------------------------------------------------
    #
    # Bulk arithmetic lays keys out as coordinate columns: column k holds
    # coordinate k of every element.

    def key_columns(self, keys: Sequence[int]) -> list[Sequence[int]]:
        """The a coordinate columns of a sequence of keys."""
        p = self.p
        cols = []
        rest = keys
        for _ in range(self.a - 1):
            cols.append([k % p for k in rest])
            rest = [k // p for k in rest]
        cols.append(rest)
        return cols

    def keys_from_columns(self, cols: Sequence[Sequence[int]]) -> list[int]:
        """Keys of the elements whose coordinates are given column-wise.

        Coordinates may be any ints (they are reduced mod p), and there may
        be up to 2a-1 columns: column k >= a is the coefficient of x^k.  From
        the top down, x^k = sum_j (p - c_j) x^(k-a+j) mod p for any monic
        modulus x^a + sum_{j<a} c_j x^j, irreducible or not (as the modulus
        search needs).
        """
        p, a = self.p, self.a
        cols = list(cols)
        tail = [(j, p - c) for j, c in enumerate(self.modulus[:a]) if c]
        for k in range(len(cols) - 1, a - 1, -1):
            for j, c in tail:
                low, top = cols[k - a + j], cols[k]
                cols[k - a + j] = list(map(add, low, top)) if c == 1 else [x + c * y for x, y in zip(low, top)]
        keys = [c % p for c in cols[a - 1]]
        for j in range(a - 2, -1, -1):
            keys = [k * p + c % p for k, c in zip(keys, cols[j])]
        return keys

    def add_keys(self, xs: Sequence[int], ys: Sequence[int], sign: int = 1) -> list[int]:
        """Elementwise x + sign*y on two equally long sequences of keys."""
        return self.keys_from_columns(
            [
                [x + sign * y for x, y in zip(cx, cy)]
                for cx, cy in zip(self.key_columns(xs), self.key_columns(ys))
            ]
        )

    def slot_bits(self, terms: int) -> int:
        """Slot bits for a coordinate plus ``terms`` dot-product terms, in either layout."""
        p = self.p
        return (terms * self.a * (p - 1) ** 2 + p).bit_length()

    def pack(self, keys: Sequence[int], bits: int) -> Sequence[int]:
        """Each key as one int with coordinate k in slot k (the key itself over F_p)."""
        if self.a == 1:
            return keys
        out = [0] * len(keys)
        for k, col in enumerate(self.key_columns(keys)):
            out = [x | c << k * bits for x, c in zip(out, col)]
        return out

    def unpack(self, values: Sequence[int], bits: int) -> list[int]:
        """Keys of the elements whose x^k coefficients fill slot k of the values."""
        if self.a == 1:
            p = self.p
            return [v % p for v in values]
        mask = (1 << bits) - 1
        return self.keys_from_columns(
            [[v >> k * bits & mask for v in values] for k in range(2 * self.a - 1)]
        )

    def window_bits(self, terms: int) -> int:
        """Window slot bits: the least cast width that holds ``slot_bits(terms)``."""
        need = (self.slot_bits(terms) + 7) // 8
        return 8 * min((w for w in _CAST_CODES if w >= need), default=need)

    def pack_window(self, keys: Sequence[int], bits: int) -> int:
        """Coordinate k of keys[i] in slot i*(2a-1) + k of one integer, each
        slot ``bits`` wide (a multiple of 8), written a byte plane at a time."""
        size = bits // 8
        step = (2 * self.a - 1) * size
        cb = ((self.p - 1).bit_length() + 7) // 8  # bytes of one coordinate
        buf = bytearray(len(keys) * step)
        for k, col in enumerate(self.key_columns(keys)):
            for j in range(cb):
                plane = col if cb == 1 else [x >> 8 * j & 255 for x in col]
                buf[k * size + j :: step] = bytes(plane)
        return int.from_bytes(buf, "little")

    def unpack_window(self, value: int, full: int, count: int, bits: int) -> list[int]:
        """Keys of the first ``count`` of the ``full`` coefficients whose x^k
        coefficients fill ``pack_window``'s slots of the value."""
        size = bits // 8
        width = 2 * self.a - 1
        data = value.to_bytes(full * width * size, "little")
        code = _CAST_CODES.get(size)
        slots = memoryview(data).cast(code) if code else [
            int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
        return self.keys_from_columns([slots[k : count * width : width] for k in range(width)])

    def neg_keys(self, keys: Sequence[int]) -> Sequence[int]:
        """-x for each key, a coordinate column at a time: the keys
        themselves in characteristic 2."""
        if self.p == 2:
            return keys
        return self.keys_from_columns([[-c for c in col] for col in self.key_columns(keys)])

    def scale_keys(self, c: int, keys: Sequence[int]) -> list[int]:
        """c times each key: one packed product a key, reduced once by ``unpack``."""
        bits = self.slot_bits(1)
        (packed,) = self.pack([c], bits)
        return self.unpack([packed * x for x in self.pack(keys, bits)], bits)

    def mul_key(self, x: int, y: int) -> int:
        """x y: ``scale_keys`` on one key, so reduced the one way too."""
        return self.scale_keys(x, [y])[0]

    def pow_key(self, key: int, e: int) -> int:
        if e < 0:
            return self.pow_key(self.inverse_key(key), -e)
        return power(key, e, self.mul_key) if e else 1

    def powers_key(self, key: int, n: int) -> list[int]:
        """key^0 .. key^(n-1), doubling the known run by one ``scale_keys`` a step."""
        out = [1]
        while len(out) < n:
            out += self.scale_keys(self.mul_key(out[-1], key), out)
        return out[:n]

    def pth_root_key(self, key: int) -> int:
        """The unique p-th root (Frobenius is bijective): key^(p^(a-1))."""
        return self.pow_key(key, self.order // self.p)

    def inverse_key(self, key: int) -> int:
        if not key:
            raise ZeroElement("inverse of zero")
        p = self.p
        if self.a == 1:
            return pow(key, -1, p)
        g, s = _euclid([key // p ** i % p for i in range(self.a)], self.modulus, p)
        lead = pow(g[0], -1, p)
        out = 0
        for c in reversed(s):
            out = out * p + c * lead % p
        return out

    # -- structure -------------------------------------------------------------

    def generator(self) -> int:
        """Least key generating the multiplicative group: the least whose
        power (q - 1) / r is not 1 for any prime r dividing q - 1."""
        if self._generator is None:
            n = self.order - 1
            factors = prime_factors(n)
            self._generator = next(
                key for key in range(1, self.order)
                if all(self.pow_key(key, n // r) != 1 for r in factors)
            )
        return self._generator

    def root_of_unity(self, m: int) -> int:
        """A fixed primitive m-th root of unity (1 for m = 1); requires m | p^a - 1."""
        if m < 1 or (self.order - 1) % m != 0:
            raise MissingRootsOfUnity(
                f"F_{self.p}^{self.a} has no primitive {m}-th roots of unity"
            )
        return 1 if m == 1 else self.pow_key(self.generator(), (self.order - 1) // m)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980) for a monic f of degree a >= 1
    over F_p, on the keys of F_p[x]/(f) with x the key p: x^(p^a) = x, and
    x^(p^(a/q)) - x is prime to f for each prime q dividing a."""
    a = len(f) - 1
    if a == 1:
        return True
    ring = FiniteField(p, a, tuple(f))
    diffs = (ring.add_keys([ring.pow_key(p, p ** (a // q))], [p], -1)[0] for q in prime_factors(a))
    return ring.pow_key(p, p ** a) == p and all(
        len(_euclid([h // p ** i % p for i in range(a)], f, p)[0]) == 1 for h in diffs)


def canonical_modulus(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree a over F_p.

    For a > 1 a candidate with a root in F_p has a linear factor, so it is
    skipped; a reducible candidate of degree at most 3 has one, so a
    root-free one is irreducible, and only a >= 4 runs Rabin's test.  The
    scan order, and so the result, is that of the full scan.
    """
    for tail in itertools.product(range(p), repeat=a):
        cand = tail + (1,)
        if a > 1 and any(sum(c * x ** i for i, c in enumerate(cand)) % p == 0 for x in range(p)):
            continue
        if a <= 3 or _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {a} over F_{p}")  # unreachable


@lru_cache(maxsize=None)
def _field_instance(p: int, a: int) -> FiniteField:
    return FiniteField(p, a, canonical_modulus(p, a))


def check_size_cap(p: int, a: int, size_cap: int = DEFAULT_SIZE_CAP) -> None:
    """Refuse p^a over the size cap.

    This comes before any primality test, which trial-divides p.  As
    p^a >= 2^((bits(p) - 1) a), a huge p or a is refused without the power.
    """
    if p >= 2 and a >= 1 and (
        (p.bit_length() - 1) * a >= size_cap.bit_length() or p ** a > size_cap
    ):
        raise SizeCapExceeded(f"p^a = {p}^{a} exceeds the size cap {size_cap}")


def field_create(p: int, a: int) -> FiniteField:
    """Construct F_{p^a} with the canonical modulus.

    The same (p, a) always yields an identical modulus, so downstream
    reports are reproducible across runs and platforms.
    """
    check_size_cap(p, a)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if a < 1:
        raise ValueError("extension degree must be >= 1")
    return _field_instance(p, a)

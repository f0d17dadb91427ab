"""Finite fields F_{p^a} with a deterministic modulus choice.

Elements are coordinate vectors in the power basis of the modulus, so a
given (p, a) produces bit-identical arithmetic on every platform.  The
modulus is the lexicographically least monic irreducible of degree a over
F_p, ordered by the coefficient tuple (c_0, ..., c_{a-1}).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add
from typing import Iterator, Sequence

from .errors import (
    FieldMismatch,
    MissingRootsOfUnity,
    NotPrime,
    SizeCapExceeded,
    ZeroElement,
)

DEFAULT_SIZE_CAP = 1 << 16


def is_prime(n: int) -> bool:
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


def power(x, e: int):
    """x ** e for e >= 1, for any x with an associative ``*``.

    Left-to-right square-and-multiply: floor(log2 e) squarings and
    popcount(e) - 1 more products, with no identity to start from.
    """
    result = x
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


# ---------------------------------------------------------------------------
# Dense little-endian polynomial arithmetic over F_p (ints mod p).

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


def _prem(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Remainder of f modulo monic g."""
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        c = f[-1]
        if c:
            off = len(f) - 1 - dg
            for i in range(dg):
                f[off + i] = (f[off + i] - c * g[i]) % p
        f.pop()
    return _ptrim(f)


def _pinv(f: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Inverse of the nonzero f modulo the irreducible ``mod`` (extended Euclid).

    Each remainder r keeps its cofactor s with s * f = r modulo ``mod``; the
    last nonzero remainder is a constant, so scaling its s inverts f.
    """
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
    c = pow(r1[0], -1, p)
    return [x * c % p for x in s1]


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _prem(base, mod, p)
    while e:
        if e & 1:
            result = _prem(_pmul(result, acc, p), mod, p)
        acc = _prem(_pmul(acc, acc, p), mod, p)
        e >>= 1
    return result


def _pgcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    a, b = _ptrim(list(f)), _ptrim(list(g))
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        b_monic = [(c * lead_inv) % p for c in b]
        a, b = b, _prem(a, b_monic, p)
    if a:
        lead_inv = pow(a[-1], p - 2, p)
        a = [(c * lead_inv) % p for c in a]
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Deterministic test for a monic polynomial of degree >= 1 over F_p."""
    d = len(f) - 1
    if d == 1:
        return True
    x = [0, 1]
    if _ppowmod(x, p ** d, f, p) != x:
        return False
    for q in prime_factors(d):
        h = _ppowmod(x, p ** (d // q), f, p)
        diff = _ptrim([(a - b) % p for a, b in itertools.zip_longest(h, x, fillvalue=0)])
        if len(_pgcd(diff, f, p)) > 1:
            return False
    return True


def canonical_modulus(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree a over F_p.

    For a > 1 a candidate with a root in F_p has a linear factor, so it is
    skipped before the irreducibility test (Rabin, SIAM J. Comput. 9, 1980);
    the scan order, and so the result, is that of the full scan.
    """
    for tail in itertools.product(range(p), repeat=a):
        cand = list(tail) + [1]
        if a > 1 and any(sum(c * x ** i for i, c in enumerate(cand)) % p == 0 for x in range(p)):
            continue
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {a} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_{p^a}, with elements in the power basis of the modulus."""

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

    # -- constructors --------------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.a)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.a - 1))

    def from_int(self, k: int) -> "FieldElement":
        """Image of the integer k in the prime subfield."""
        return FieldElement(self, (k % self.p,) + (0,) * (self.a - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.a:
            raise ValueError(f"expected at most {self.a} coordinates")
        c = tuple(int(x) % self.p for x in coeffs) + (0,) * (self.a - len(coeffs))
        return FieldElement(self, c)

    def from_key(self, key: int) -> "FieldElement":
        digits = []
        for _ in range(self.a):
            digits.append(key % self.p)
            key //= self.p
        return FieldElement(self, tuple(digits))

    def elements(self) -> Iterator["FieldElement"]:
        for key in range(self.order):
            yield self.from_key(key)

    # -- vectors of keys ---------------------------------------------------------
    #
    # Bulk arithmetic works on element keys (see FieldElement.key) laid out
    # as coordinate columns: column k holds coordinate k of every element.

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
        be up to 2a-1 columns: column k >= a is the coefficient of x^k.  As
        ``_prem`` divides, from the top down, x^k = sum_j (p - c_j) x^(k-a+j)
        mod p for the modulus x^a + sum_{j<a} c_j x^j.
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

    def neg_keys(self, keys: Sequence[int]) -> list[int]:
        return self.keys_from_columns([[-x for x in col] for col in self.key_columns(keys)])

    def inverse_key(self, key: int) -> int:
        if not key:
            raise ZeroElement("inverse of zero")
        p = self.p
        if self.a == 1:
            return pow(key, -1, p)
        out = 0
        for c in reversed(_pinv([key // p ** i % p for i in range(self.a)], self.modulus, p)):
            out = out * p + c
        return out

    # -- structure -------------------------------------------------------------

    def generator(self) -> "FieldElement":
        """Least element (by key) generating the multiplicative group."""
        if self._generator is None:
            target = self.order - 1
            for key in range(1, self.order):
                x = self.from_key(key)
                if x.multiplicative_order() == target:
                    self._generator = x
                    break
        return self._generator

    def root_of_unity(self, m: int) -> "FieldElement":
        """A fixed primitive m-th root of unity (one for m = 1); requires m | p^a - 1."""
        if m < 1 or (self.order - 1) % m != 0:
            raise MissingRootsOfUnity(
                f"F_{self.p}^{self.a} has no primitive {m}-th roots of unity"
            )
        return self.one() if m == 1 else self.generator() ** ((self.order - 1) // m)


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.field.p, self.field.a))

    def key(self) -> int:
        """Canonical integer encoding (base-p digits of the coordinates)."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __repr__(self) -> str:
        return f"FF({self.field.p}^{self.field.a}:{self.key()})"

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-x) % p for x in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        p, a = f.p, f.a
        if a == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % p,))
        out = _prem(_pmul(self.coeffs, other.coeffs, p), f.modulus, p)
        return FieldElement(f, tuple(out) + (0,) * (a - len(out)))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return self.field.one()
        return power(self, e)

    def inverse(self) -> "FieldElement":
        return self.field.from_key(self.field.inverse_key(self.key()))

    def pth_root(self) -> "FieldElement":
        """Unique p-th root (Frobenius is bijective)."""
        return self ** (self.field.order // self.field.p)

    def multiplicative_order(self) -> int:
        if not self:
            raise ZeroElement("order of zero")
        d = self.field.order - 1
        for q in prime_factors(d):
            while d % q == 0 and self ** (d // q) == self.field.one():
                d //= q
        return d


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

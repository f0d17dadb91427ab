"""Finite groups as explicit multiplication tables, plus brute-force oracles.

Groups here are small by design (default size cap 10000).  Matrix-backed
groups keep their elements in a canonical order (lexicographic on entry
keys) so that every derived report is reproducible.

The group layer works from generating sets, not from all pairs (the
Cayley-graph construction of Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 4).  ``_spanning_tree`` picks
generators greedily in index order and closes under right multiplication by
them, recording a BFS parent and generator for every element: n * |gens|
products.  ``FiniteGroup.from_matrices`` multiplies matrices only there, and
``group_closure`` reuses its own walk's products; both fill the rest of the
Cayley table by lookup along the tree.  ``FiniteGroup.closure``,
``FiniteGroup.generators`` and ``Representation`` use the same idea on tables.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    NotAGroup,
    PSylowNotNormal,
    QuotientNotCyclic,
    SizeCapExceeded,
)
from .fields import (
    DEFAULT_SIZE_CAP, FiniteField, check_size_cap, field_create, is_prime, power,
    split_prime_power,
)
from .linalg import MatrixFF, _axpy

DEFAULT_GROUP_CAP = 10000
CANDIDATE_CAP = 1 << 20  # matrices enumerate_gl may list
SAMPLE_GROUP_CAP = 2000  # largest subgroup inertia_candidate_sample closes
# Cayley-table cells (sum of n^2) after which inertia_candidate_sample stops.
SAMPLE_CELL_BUDGET = 1 << 19


def _spanning_tree(n: int, product: Callable[[int, int], int], scan: Iterable[int]):
    """Greedy generators of {0, ..., n-1} under right multiplication.

    Scans the indices of ``scan`` in order, which must reach all n; each
    index not yet reached becomes the next generator, and the reached set
    is closed again under right multiplication by every generator so far.
    ``product(x, g)`` is the index of x * g.

    Returns (gens, order, parent, via, right): ``order`` lists the indices
    in discovery order; a generator gens[j] has parent -1 and via j; every
    other index b is parent[b] * gens[via[b]], and its parent comes earlier
    in ``order``; right[j][x] = x * gens[j].  Exactly n * len(gens) calls of
    ``product`` are made.
    """
    gens: list[int] = []
    right: list[list] = []
    parent = [-1] * n
    via = [-1] * n
    done = [None] * n  # per reached index: how many generators it has been multiplied by
    order: list[int] = []
    for i in scan:
        if done[i] is not None:
            continue
        via[i] = len(gens)
        gens.append(i)
        right.append([None] * n)
        done[i] = 0
        order.append(i)
        queue = list(order)  # every reached index owes a product by the new generator
        for x in queue:
            for j in range(done[x], len(gens)):
                y = product(x, gens[j])
                right[j][x] = y
                if done[y] is None:
                    done[y] = 0
                    parent[y] = x
                    via[y] = j
                    order.append(y)
                    queue.append(y)
            done[x] = len(gens)
    return gens, order, parent, via, right


class FiniteGroup:
    """Element list with an index-based multiplication table."""

    __slots__ = ("n", "mul", "labels", "identity", "inv", "matrices", "_orders")

    def __init__(self, mul, labels, matrices=None):
        mul = tuple(tuple(row) for row in mul)
        n = len(mul)
        if any(len(row) != n for row in mul):
            raise NotAGroup("multiplication table is not square")
        # Set containment settles the common all-int table at C speed; any
        # other table gets the comparisons, with their errors.
        cells = set(range(n))
        try:
            in_range = all(map(cells.issuperset, mul))
        except TypeError:
            in_range = False
        if not in_range and any(not (0 <= x < n) for row in mul for x in row):
            raise NotAGroup("table entry out of range")
        labels = tuple(labels)
        if len(labels) != n:
            raise NotAGroup("label count does not match table size")
        identity = None
        trivial_row = tuple(range(n))
        for e in range(n):
            if mul[e] == trivial_row and all(mul[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise NotAGroup("no identity element")
        # inv[x] is the first y with x*y = y*x = identity; only the positions
        # of the identity in row x are candidates.
        inv = [None] * n
        for x, row in enumerate(mul):
            y = -1
            try:
                while inv[x] is None:
                    y = row.index(identity, y + 1)
                    if mul[y][x] == identity:
                        inv[x] = y
            except ValueError:
                raise NotAGroup(f"element {labels[x]} has no inverse") from None
        self.n = n
        self.mul = mul
        self.labels = labels
        self.identity = identity
        self.inv = tuple(inv)
        self.matrices = tuple(matrices) if matrices is not None else None
        self._orders = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_matrices(cls, mats: Sequence[MatrixFF]) -> "FiniteGroup":
        """Group from a closed set of invertible matrices (closure verified).

        Elements are deduplicated and sorted by key.  Only the products
        x * g for the greedy generators g of ``_spanning_tree`` are
        computed; every one must land in the set.  That makes the set closed:
        each element b is a word g1...gk in the generators, and
        a * b = (...((a g1) g2)...) gk stays in the set step by step.  The
        rest of the table is filled by ``_from_tree``.  No identity
        matrix is assumed, so a closed set of singular matrices gets its
        true table and is then rejected by ``__init__`` as before.
        """
        seen: dict[tuple, MatrixFF] = {}
        for m in mats:
            seen.setdefault(m.key(), m)
        keys = sorted(seen)
        unique = [seen[k] for k in keys]
        index = {k: i for i, k in enumerate(keys)}

        def product(x: int, g: int) -> int:
            i = index.get((unique[x] * unique[g]).key())
            if i is None:
                raise NotAGroup("set is not closed under multiplication")
            return i

        return cls._from_tree(unique, product, range(len(unique)))

    @classmethod
    def _from_tree(cls, mats: list, product: Callable[[int, int], int], scan: Iterable[int]):
        """The group on ``mats``, its table filled along the ``_spanning_tree``
        of ``product``: a * g_j = right[j][a], a * b = right[via(b)][a * parent(b)]."""
        _, order, parent, via, right = _spanning_tree(len(mats), product, scan)
        cols: list = [None] * len(mats)
        for b in order:
            column = right[via[b]]
            cols[b] = column if parent[b] < 0 else list(map(column.__getitem__, cols[parent[b]]))
        return cls(zip(*cols), [f"g{i}" for i in range(len(mats))], matrices=mats)

    @classmethod
    def cyclic(cls, k: int, symbol: str = "sigma") -> "FiniteGroup":
        labels = ["1"] + [symbol if j == 1 else f"{symbol}^{j}" for j in range(1, k)]
        mul = [[(i + j) % k for j in range(k)] for i in range(k)]
        return cls(mul, labels)

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        n, m = g.n, h.n
        labels = []
        for i in range(n):
            for j in range(m):
                la, lb = g.labels[i], h.labels[j]
                if i == g.identity and j == h.identity:
                    labels.append("1")
                elif i == g.identity:
                    labels.append(lb)
                elif j == h.identity:
                    labels.append(la)
                else:
                    labels.append(f"{la}*{lb}")
        mul = [[g.mul[i1][i2] * m + h.mul[j1][j2] for i2 in range(n) for j2 in range(m)]
               for i1 in range(n) for j1 in range(m)]
        return cls(mul, labels)

    # -- basic queries -----------------------------------------------------------

    def product(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def conjugate(self, t: int, s: int) -> int:
        """t s t^{-1}."""
        return self.mul[self.mul[t][s]][self.inv[t]]

    def order_of(self, i: int) -> int:
        if self._orders is None:
            self._orders = [None] * self.n
        if self._orders[i] is None:
            mul = self.mul
            self._orders[i] = power_order(i, lambda x, y: mul[x][y], self.identity)
        return self._orders[i]

    def is_abelian(self) -> bool:
        return all(
            self.mul[i][j] == self.mul[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def is_cyclic(self) -> bool:
        return any(self.order_of(i) == self.n for i in range(self.n))

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}")

    def p_elements(self, p: int) -> list[int]:
        """Indices of elements whose order is a power of p (identity included)."""
        return [i for i in range(self.n) if split_prime_power(self.order_of(i), p)[1] == 1]

    # -- subgroup machinery ---------------------------------------------------

    def closure(self, seed: Iterable[int]) -> frozenset:
        """Subgroup generated by ``seed``: a BFS from the identity under right
        multiplication by the seed, O(|closure| * |seed|).  In a finite group
        the inverse of s is a power of s, so positive words suffice."""
        seed = set(seed)
        mul = self.mul
        out = {self.identity}
        todo = [self.identity]
        for x in todo:
            row = mul[x]
            for s in seed:
                y = row[s]
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return frozenset(out)

    def generators(self) -> list[int]:
        """Greedy generating set: each index, in order, that is not in the
        subgroup generated by the ones taken before it (so never the
        identity; the trivial group has none)."""
        mul = self.mul
        gens = _spanning_tree(self.n, lambda x, g: mul[x][g], range(self.n))[0]
        return [g for g in gens if g != self.identity]

    def is_subgroup(self, subset: frozenset) -> bool:
        """Nonempty and closed: then 1 = x^ord(x) and x^-1 = x^(ord(x)-1) lie in it."""
        return bool(subset) and all(self.mul[x][y] in subset for x in subset for y in subset)

    def is_normal(self, subset: frozenset) -> bool:
        return all(
            self.conjugate(t, s) in subset for t in range(self.n) for s in subset
        )

    def subgroup(self, subset: Iterable[int]):
        """Materialize a subgroup; returns (FiniteGroup, index list into self)."""
        idx = sorted(set(subset))
        pos = {g: i for i, g in enumerate(idx)}
        mul = [[pos[self.mul[a][b]] for b in idx] for a in idx]
        labels = [self.labels[g] for g in idx]
        mats = [self.matrices[g] for g in idx] if self.matrices is not None else None
        return FiniteGroup(mul, labels, matrices=mats), idx

    def quotient(self, normal: frozenset):
        """Quotient by a normal subgroup; returns (FiniteGroup, projection)."""
        cosets: list[frozenset] = []
        proj = [None] * self.n
        for g in range(self.n):
            if proj[g] is not None:
                continue
            coset = frozenset(self.mul[g][h] for h in normal)
            k = len(cosets)
            cosets.append(coset)
            for x in coset:
                proj[x] = k
        reps = [min(c) for c in cosets]
        mul = [[proj[self.mul[a][b]] for b in reps] for a in reps]
        labels = [f"[{self.labels[r]}]" for r in reps]
        return FiniteGroup(mul, labels), tuple(proj)

    def all_subgroups(self) -> list[frozenset]:
        """Every subgroup, found by closing cyclic subgroups under extension.

        For a subgroup B and b in B, B and b * j generate the same subgroup
        as B and j, so once j is tried every element of the coset B * j is
        skipped.
        """
        found = {self.closure([self.identity])}
        frontier = list(found)
        for i in range(self.n):
            s = self.closure([i])
            if s not in found:
                found.add(s)
                frontier.append(s)
        mul = self.mul
        while frontier:
            base = frontier.pop()
            tried = set(base)
            for i in range(self.n):
                if i in tried:
                    continue
                tried.update(mul[b][i] for b in base)
                bigger = self.closure(base | {i})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def verify_axioms(self) -> bool:
        """Associativity of the table, by Light's test on the generators
        (identity and inverses are already verified at construction).

        Let T be the set of g with (x g) y = x (g y) for all x, y.  T is
        closed under products: for g, h in T,
        (x (g h)) y = ((x g) h) y = (x g)(h y) = x (g (h y)) = x ((g h) y).
        The identity is in T by the identity laws.  ``_spanning_tree``
        writes every element as a left-normed product of the generators,
        and assumes no associativity to do so; so T is the whole table once
        it holds every generator (Clifford & Preston, *The Algebraic Theory
        of Semigroups* I, 1961).  For each generator g and each x, the row
        of (x g) y over all y is compared with that of x (g y): n^2 * |gens|
        lookups in all, not n^3.
        """
        mul = self.mul
        for g in self.generators():
            g_row = mul[g]
            if any(mul[row[g]] != tuple(map(row.__getitem__, g_row)) for row in mul):
                return False
        return True


def inertia_shape(group: FiniteGroup, p: int):
    """Normal p-Sylow P with cyclic quotient G/P; returns (P, G/P).

    Raises PSylowNotNormal or QuotientNotCyclic when the shape fails.  As
    conjugation keeps element orders, the p-power-order elements are normal
    as soon as they are closed.
    """
    p_part = group.n // split_prime_power(group.n, p)[1]
    pe = group.p_elements(p)
    if len(pe) != p_part:
        raise PSylowNotNormal(
            f"{len(pe)} p-power-order elements but the p-part of the order is {p_part}"
        )
    subset = frozenset(pe)
    if not group.is_subgroup(subset):
        raise PSylowNotNormal("p-power-order elements are not closed")
    quot, _ = group.quotient(subset)
    if not quot.is_cyclic():
        raise QuotientNotCyclic(f"quotient of order {quot.n} is not cyclic")
    return subset, quot


def has_inertia_shape(group: FiniteGroup, p: int) -> bool:
    """Normal p-Sylow with cyclic prime-to-p quotient."""
    try:
        inertia_shape(group, p)
    except (PSylowNotNormal, QuotientNotCyclic):
        return False
    return True


# ---------------------------------------------------------------------------
# Oracles on matrix groups.


def group_closure(
    generators: Sequence[MatrixFF], size_cap: int = DEFAULT_GROUP_CAP
) -> FiniteGroup:
    """Close a set of invertible matrices under multiplication.  The walk
    forms x * g for every x and given g, so the table is read off a tree on
    the given generators (they reach all from 1, a power of the first)."""
    if not generators:
        raise NotAGroup("need at least one generator")
    field = generators[0].field
    n = generators[0].n
    for g in generators:
        if g.field != field or g.n != n:
            raise NotAGroup("generators of mixed shape or field")
        if not g.is_invertible():
            raise NotAGroup("generator is not invertible")
    # A proper subgroup of GL_r(F_q) has index at least the least prime
    # factor of its order (Lagrange), so when the whole group is over the
    # cap, stop at |GL_r(F_q)| / that prime.  The order is even unless r = 1
    # and q is a power of 2, so the scan stops at once or below sqrt(q).
    q = field.order
    gl_order = math.prod(q ** n - q ** i for i in range(n))
    limit = size_cap
    if gl_order > size_cap:
        least = next((d for d in range(2, math.isqrt(gl_order) + 1) if gl_order % d == 0), gl_order)
        limit = min(size_cap, gl_order // least)
    ident = MatrixFF.identity(field, n)
    seen = {ident.key(): ident}
    after: dict[tuple, dict] = {}  # after[x][g] = x * g, by keys, for g given
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        after[x.key()] = xg = {}
        for g in generators:
            y = x * g
            k = xg[g.key()] = y.key()
            if k not in seen:
                if len(seen) >= limit:
                    raise SizeCapExceeded(f"closure exceeds cap {size_cap}")
                seen[k] = y
                frontier.append(y)
    keys = sorted(seen)
    index = {k: i for i, k in enumerate(keys)}
    return FiniteGroup._from_tree([seen[k] for k in keys], lambda x, g: index[after[keys[x]][keys[g]]],
                                  [index[g.key()] for g in generators])


def enumerate_gl(field: FiniteField, r: int) -> list[MatrixFF]:
    """All invertible r x r matrices over the field, in key order (the
    lexicographic order of the row-major key tuples).

    Built row by row: each row is taken, in key order, from the vectors
    outside the span of the rows above it, so no candidate is row-reduced.
    """
    q = field.order
    total = q ** (r * r)
    if total > CANDIDATE_CAP:
        raise SizeCapExceeded(f"{total} candidate matrices exceed cap {CANDIDATE_CAP}")
    vectors = list(itertools.product(range(q), repeat=r))
    prefixes = [((), {vectors[0]})]  # no rows yet; the span is {0}
    for i in range(r):
        grown = []
        for keys, span in prefixes:
            for v in vectors:
                if v in span:
                    continue
                if i == r - 1:
                    grown.append((keys + v, None))
                    continue
                # The span of the rows so far and v: s + c * v for every s, c.
                rows = list(span)
                flat = _axpy(field, [x for _ in range(q) for s in rows for x in s],
                             [c for c in range(q) for _ in rows], v)
                grown.append((keys + v, {tuple(flat[j : j + r]) for j in range(0, len(flat), r)}))
        prefixes = grown
    return [MatrixFF.from_keys(field, r, keys) for keys, _ in prefixes]


def _random_invertible(field: FiniteField, r: int, rng: random.Random) -> MatrixFF:
    """Random entries until invertible; ``rng.choice`` over ``range(q)``
    draws the same index as over the key-ordered ``field.elements()``."""
    keys = range(field.order)
    while True:
        m = MatrixFF.from_keys(field, r, [rng.choice(keys) for _ in range(r * r)])
        if m.is_invertible():
            return m


def power_order(g, mul, identity) -> int:
    """Least k >= 1 with g^k = identity, by repeated right multiplication
    ``mul(x, g)``."""
    k, x = 1, g
    while x != identity:
        x = mul(x, g)
        k += 1
    return k


def nilpotency_exponent_ok(m: MatrixFF, order: int, ell: int, r: int) -> bool:
    """For an ell-element of order ell^d (``order`` must be a power of ell),
    check (m-1)^{ell^{d-1}} != 0 and (m-1)^{ell^d} = 0; both give
    ell^{d-1} <= r."""
    if order == 1:
        return True
    d = split_prime_power(order, ell)[0]
    x = m - MatrixFF.identity(m.field, m.n)
    if not (x ** (ell ** d)).is_zero():
        return False
    if (x ** (ell ** (d - 1))).is_zero():
        return False
    return ell ** (d - 1) <= r


def max_ell_element_order(r: int, ell: int, n: int) -> int:
    """Maximum order among ell-elements of GL_r(F_{ell^n}), exhaustively.

    |GL_r(F_q)| = q^(r(r-1)/2) * prod_{i=1..r} (q^i - 1), and every q^i - 1
    is prime to ell.  So by Lagrange m is an ell-element iff m^(ell^s) = 1,
    with s = n r(r-1)/2, and its order is ell^d for the least such d: the
    walk x <- x^ell reaches the identity within s steps, or m is skipped.
    Every ell-element found is also checked against the nilpotency bound
    ell^{d-1} <= r.
    """
    check_size_cap(ell, n)
    if not is_prime(ell):
        raise NotAGroup(f"{ell} is not prime")
    field = field_create(ell, n)
    ident = MatrixFF.identity(field, r)
    steps = n * r * (r - 1) // 2
    best = 1
    for m in enumerate_gl(field, r):
        x, o = m, 1
        for _ in range(steps):
            if x == ident:
                break
            x, o = power(x, ell), o * ell
        if x != ident:
            continue
        if not nilpotency_exponent_ok(m, o, ell, r):
            raise NotAGroup("nilpotency bound violated; inconsistent enumeration")
        best = max(best, o)
    return best


def inertia_candidate_sample(
    r: int,
    ell: int,
    n: int,
    p: int,
    count: int,
    seed: int,
) -> list[FiniteGroup]:
    """Random subgroups of GL_r(F_{ell^n}) with normal p-Sylow and cyclic
    prime-to-p quotient.  Deterministic for a fixed seed; conjugate
    duplicates are pruned best-effort.  Stops early, with fewer than
    ``count`` groups, after 200 * count attempts or once the groups closed
    pass SAMPLE_CELL_BUDGET table cells; the result is then a prefix of
    the unbounded one."""
    if count == 0:
        return []
    field = field_create(ell, n)
    rng = random.Random(seed)
    out: list[FiniteGroup] = []
    seen_keys: set[tuple] = set()
    attempts = cells = 0
    while len(out) < count and attempts < 200 * count and cells <= SAMPLE_CELL_BUDGET:
        attempts += 1
        gens = [_random_invertible(field, r, rng) for _ in range(rng.choice((1, 2)))]
        try:
            grp = group_closure(gens, size_cap=SAMPLE_GROUP_CAP)
        except SizeCapExceeded:
            continue
        cells += grp.n * grp.n
        if not has_inertia_shape(grp, p):
            continue
        canon = tuple(m.key() for m in grp.matrices)
        if canon in seen_keys:
            continue
        keys = {canon}
        for _ in range(3):
            c = _random_invertible(field, r, rng)
            ci = c.inverse()
            conj = sorted((c * m * ci).key() for m in grp.matrices)
            keys.add(tuple(conj))
        if keys & seen_keys:
            continue
        seen_keys |= keys
        out.append(grp)
    return out


class AbelianProbeReport(NamedTuple):
    max_order_found: int
    le_linear_bound: bool
    le_torus_bound: bool
    n_used: int
    linear_bound: int
    torus_bound: int


def abelian_p_bound_probe(
    r: int,
    ell: int,
    p: int,
    s: int,
) -> AbelianProbeReport:
    """Probe abelian p-subgroups of GL_r over an ell-power field containing
    the p^s-th roots of unity; reports the largest order found against the
    linear bound r*p^s and the torus bound p^{r*s}."""
    target = p ** s
    n = 1
    while (ell ** n - 1) % target != 0:
        n += 1
        if ell ** n > DEFAULT_SIZE_CAP:
            raise SizeCapExceeded(
                f"no field of size <= {DEFAULT_SIZE_CAP} contains mu_{target}"
            )
    field = field_create(ell, n)
    if target ** r > DEFAULT_GROUP_CAP:
        raise SizeCapExceeded("diagonal subgroup exceeds the group size cap")
    zeta = field.root_of_unity(target).key()
    gens = [
        MatrixFF.from_keys(
            field, r, [(zeta if j == k == i else int(j == k)) for j in range(r) for k in range(r)]
        )
        for i in range(r)
    ]
    diag = group_closure(gens)
    max_order = diag.n
    linear_bound = r * target
    torus_bound = target ** r
    return AbelianProbeReport(
        max_order_found=max_order,
        le_linear_bound=max_order <= linear_bound,
        le_torus_bound=max_order <= torus_bound,
        n_used=n,
        linear_bound=linear_bound,
        torus_bound=torus_bound,
    )

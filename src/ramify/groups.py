"""Finite groups as explicit multiplication tables, plus brute-force oracles.

Groups here are small by design (default size cap 10000).  Matrix-backed
groups keep their elements in a canonical order (lexicographic on entry
keys) so that every derived report is reproducible.

The group layer works from generating sets, not from all pairs (the
Cayley-graph construction of Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 4).  ``_spanning_tree`` picks
generators greedily in index order and closes under right multiplication by
them, recording a BFS parent and generator for every element: n * |gens|
products.  ``FiniteGroup.from_matrices`` multiplies matrices only there and
fills the rest of the Cayley table by lookup along the tree;
``FiniteGroup.closure``, ``FiniteGroup.generators`` and the homomorphism
check of ``Representation`` use the same idea on the table.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    NotAGroup,
    PSylowNotNormal,
    QuotientNotCyclic,
    SizeCapExceeded,
)
from .fields import FiniteField, field_create, is_prime, split_prime_power
from .linalg import MatrixFF

DEFAULT_GROUP_CAP = 10000


def _spanning_tree(n: int, product: Callable[[int, int], int]):
    """Greedy generators of {0, ..., n-1} under right multiplication.

    Scans the indices in order; each index not yet reached becomes the next
    generator, and the reached set is closed again under right
    multiplication by every generator so far.  ``product(x, g)`` is the
    index of x * g.

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
    for i in range(n):
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
    def from_matrices(cls, mats: Sequence[MatrixFF], labels=None) -> "FiniteGroup":
        """Group from a closed set of invertible matrices (closure verified).

        Elements are deduplicated and sorted by key.  Only the products
        x * g for the greedy generators g of ``_spanning_tree`` are
        computed; every one must land in the set.  That makes the set closed:
        each element b is a word g1...gk in the generators, and
        a * b = (...((a g1) g2)...) gk stays in the set step by step.  The
        rest of the table is filled by lookup along the tree, column by
        column: a * g_j = right[j][a] and a * b = right[via(b)][a * parent(b)].
        No identity matrix is assumed, so a closed set of singular matrices
        gets its true table and is then rejected by ``__init__`` as before.
        """
        seen: dict[tuple, MatrixFF] = {}
        for m in mats:
            seen.setdefault(m.key(), m)
        keys = sorted(seen)
        unique = [seen[k] for k in keys]
        index = {k: i for i, k in enumerate(keys)}
        n = len(unique)

        def product(x: int, g: int) -> int:
            i = index.get((unique[x] * unique[g]).key())
            if i is None:
                raise NotAGroup("set is not closed under multiplication")
            return i

        _, order, parent, via, right = _spanning_tree(n, product)
        cols: list = [None] * n
        for b in order:
            column = right[via[b]]
            cols[b] = column if parent[b] < 0 else list(map(column.__getitem__, cols[parent[b]]))
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        return cls(zip(*cols), labels, matrices=unique)

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
        mul = []
        for i1 in range(n):
            for j1 in range(m):
                row = []
                for i2 in range(n):
                    for j2 in range(m):
                        row.append(g.mul[i1][i2] * m + h.mul[j1][j2])
                mul.append(row)
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
        gens = _spanning_tree(self.n, lambda x, g: mul[x][g])[0]
        return [g for g in gens if g != self.identity]

    def is_subgroup(self, subset: frozenset) -> bool:
        if self.identity not in subset:
            return False
        return all(
            self.mul[x][y] in subset for x in subset for y in subset
        ) and all(self.inv[x] in subset for x in subset)

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
        """Exhaustive associativity check on the table (identity and
        inverses are already verified at construction)."""
        for a in range(self.n):
            for b in range(self.n):
                ab = self.mul[a][b]
                row_a = self.mul[a]
                for c in range(self.n):
                    if self.mul[ab][c] != row_a[self.mul[b][c]]:
                        return False
        return True


def inertia_shape(group: FiniteGroup, p: int):
    """Normal p-Sylow P with cyclic quotient G/P; returns (P, G/P).

    Raises PSylowNotNormal or QuotientNotCyclic when the shape fails.
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
    if not group.is_normal(subset):
        raise PSylowNotNormal("p-Sylow subgroup is not normal")
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
    """Close a set of invertible matrices under multiplication."""
    if not generators:
        raise NotAGroup("need at least one generator")
    field = generators[0].field
    n = generators[0].n
    for g in generators:
        if g.field != field or g.n != n:
            raise NotAGroup("generators of mixed shape or field")
        if not g.is_invertible():
            raise NotAGroup("generator is not invertible")
    ident = MatrixFF.identity(field, n)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = x * g
            k = y.key()
            if k not in seen:
                if len(seen) >= size_cap:
                    raise SizeCapExceeded(f"closure exceeds cap {size_cap}")
                seen[k] = y
                frontier.append(y)
    return FiniteGroup.from_matrices(list(seen.values()))


def enumerate_gl(field: FiniteField, r: int, size_cap: int = 1 << 20) -> list[MatrixFF]:
    """All invertible r x r matrices over the field, in key order."""
    total = field.order ** (r * r)
    if total > size_cap:
        raise SizeCapExceeded(f"{total} candidate matrices exceed cap {size_cap}")
    elems = list(field.elements())
    out = []
    for entries in itertools.product(elems, repeat=r * r):
        rows = [entries[i * r : (i + 1) * r] for i in range(r)]
        m = MatrixFF(field, rows)
        if m.is_invertible():
            out.append(m)
    out.sort(key=lambda m: m.key())
    return out


def power_order(g, mul, identity, bound: int | None = None) -> int:
    """Least k >= 1 with g^k = identity, by repeated right multiplication
    ``mul(x, g)``; past ``bound`` steps raises SizeCapExceeded."""
    k, x = 1, g
    while x != identity:
        x = mul(x, g)
        k += 1
        if bound is not None and k > bound:
            raise SizeCapExceeded("element order exceeds bound")
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


def max_ell_element_order(
    r: int,
    ell: int,
    n: int,
    *,
    size_cap: int = 1 << 20,
    sample: int | None = None,
    seed: int = 0,
) -> int:
    """Maximum order among ell-elements of GL_r(F_{ell^n}).

    Exhaustive unless ``sample`` is given; every ell-element found is also
    checked against the nilpotency bound ell^{d-1} <= r.
    """
    if not is_prime(ell):
        raise NotAGroup(f"{ell} is not prime")
    field = field_create(ell, n)
    ident = MatrixFF.identity(field, r)
    if sample is None:
        mats = enumerate_gl(field, r, size_cap=size_cap)
    else:
        rng = random.Random(seed)
        elems = list(field.elements())
        mats = []
        while len(mats) < sample:
            rows = [
                [rng.choice(elems) for _ in range(r)] for _ in range(r)
            ]
            m = MatrixFF(field, rows)
            if m.is_invertible():
                mats.append(m)
    best = 1
    for m in mats:
        o = power_order(m, MatrixFF.__mul__, ident, bound=1 << 20)
        if split_prime_power(o, ell)[1] != 1:
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
    *,
    size_cap: int = 2000,
) -> list[FiniteGroup]:
    """Random subgroups of GL_r(F_{ell^n}) with normal p-Sylow and cyclic
    prime-to-p quotient.  Deterministic for a fixed seed; conjugate
    duplicates are pruned best-effort."""
    if count == 0:
        return []
    field = field_create(ell, n)
    rng = random.Random(seed)
    elems = list(field.elements())

    def random_invertible() -> MatrixFF:
        while True:
            rows = [[rng.choice(elems) for _ in range(r)] for _ in range(r)]
            m = MatrixFF(field, rows)
            if m.is_invertible():
                return m

    out: list[FiniteGroup] = []
    seen_keys: set[tuple] = set()
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        gens = [random_invertible() for _ in range(rng.choice((1, 2)))]
        try:
            grp = group_closure(gens, size_cap=size_cap)
        except SizeCapExceeded:
            continue
        if not has_inertia_shape(grp, p):
            continue
        canon = tuple(m.key() for m in grp.matrices)
        if canon in seen_keys:
            continue
        keys = {canon}
        for _ in range(3):
            c = random_invertible()
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
    *,
    size_cap: int = DEFAULT_GROUP_CAP,
    field_cap: int = 1 << 16,
) -> AbelianProbeReport:
    """Probe abelian p-subgroups of GL_r over an ell-power field containing
    the p^s-th roots of unity; reports the largest order found against the
    linear bound r*p^s and the torus bound p^{r*s}."""
    target = p ** s
    n = 1
    while (ell ** n - 1) % target != 0:
        n += 1
        if ell ** n > field_cap:
            raise SizeCapExceeded(
                f"no field of size <= {field_cap} contains mu_{target}"
            )
    field = field_create(ell, n, size_cap=field_cap)
    if target ** r > size_cap:
        raise SizeCapExceeded("diagonal subgroup exceeds the group size cap")
    zeta = field.root_of_unity(target)
    one, zero = field.one(), field.zero()
    gens = []
    for i in range(r):
        rows = [
            [
                (zeta if (j == k == i) else (one if j == k else zero))
                for k in range(r)
            ]
            for j in range(r)
        ]
        gens.append(MatrixFF(field, rows))
    diag = group_closure(gens, size_cap=size_cap)
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

import itertools
import math
import random

import pytest

from ramify import corpus, groups, linalg
from ramify.bounds import _abelian_normal_part, inertia_structure
from ramify.errors import NotAbelian, NotAGroup, NotPrime, PSylowNotNormal, QuotientNotCyclic, SizeCapExceeded
from ramify.fields import field_create, is_prime, prime_factors, split_prime_power
from ramify.groups import (
    FiniteGroup,
    abelian_p_bound_probe,
    enumerate_gl,
    group_closure,
    inertia_candidate_sample,
    inertia_shape,
    max_ell_element_order,
    power_order,
)
from ramify.linalg import MatrixFF
from ramify.ramification import RamFiltration, hasse_arf_check
from table_oracles import is_cyclic, quotient_is_cyclic, subgroup_table

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F7 = field_create(7, 1)


def test_trivial_closure():
    g = group_closure([MatrixFF.identity(F3, 2)])
    assert g.n == 1
    assert g.verify_axioms()


def test_swap_generates_z2():
    swap = MatrixFF(F3, 2, [0, 1, 1, 0])
    g = group_closure([swap])
    assert g.n == 2
    assert g.verify_axioms()


def test_gl2_f2_closure_order_six():
    gens = [
        MatrixFF(F2, 2, [0, 1, 1, 0]),
        MatrixFF(F2, 2, [1, 1, 0, 1]),
    ]
    g = group_closure(gens)
    # Oracle: enumerate every invertible 2x2 matrix over F_2.
    assert g.n == len(enumerate_gl(F2, 2)) == 6
    assert g.verify_axioms()
    assert not g.is_abelian()


def test_closure_cap():
    gens = [
        MatrixFF(F3, 2, [0, 1, 2, 0]),
        MatrixFF(F3, 2, [1, 1, 0, 1]),
    ]
    with pytest.raises(SizeCapExceeded):
        group_closure(gens, size_cap=10)


def test_group_closure_refusals():
    ident = MatrixFF.identity(F3, 2)
    with pytest.raises(NotAGroup, match="^need at least one generator$"):
        group_closure([])
    for other in (MatrixFF.identity(F3, 1), MatrixFF.identity(F7, 2)):
        with pytest.raises(NotAGroup, match="^generators of mixed shape or field$"):
            group_closure([ident, other])
    with pytest.raises(NotAGroup, match="^generator is not invertible$"):
        group_closure([ident, MatrixFF(F3, 2, [1, 0, 0, 0])])


def test_from_matrices_requires_closure():
    swap = MatrixFF(F3, 2, [0, 1, 1, 0])
    shear = MatrixFF(F3, 2, [1, 1, 0, 1])
    with pytest.raises(NotAGroup):
        FiniteGroup.from_matrices([MatrixFF.identity(F3, 2), swap, shear])


def test_cyclic_and_product_labels():
    z6 = FiniteGroup.direct_product(FiniteGroup.cyclic(2, "sigma"), FiniteGroup.cyclic(3, "tau"))
    assert z6.n == 6
    assert z6.labels[0] == "1"
    assert "sigma*tau" in z6.labels
    assert z6.is_abelian() and is_cyclic(z6)


def test_subgroup_and_quotient():
    z6 = FiniteGroup.cyclic(6, "g")
    sub = z6.closure([2])
    assert len(sub) == 3
    quot, proj = z6.quotient(sub)
    assert quot.n == 2 and is_cyclic(quot)
    sub_grp, idx = subgroup_table(z6, sub)
    assert sub_grp.n == 3 and is_cyclic(sub_grp) and idx == [0, 2, 4]


def test_all_subgroups_of_z6():
    z6 = FiniteGroup.cyclic(6, "g")
    sizes = sorted(len(s) for s in z6.all_subgroups())
    assert sizes == [1, 2, 3, 6]


@pytest.mark.parametrize(
    "r,ell,n,expected",
    [
        (1, 2, 1, 1),
        (1, 3, 1, 1),
        (1, 2, 2, 1),
        (2, 2, 1, 2),
        (2, 3, 1, 3),
        (2, 2, 2, 2),
        (3, 2, 1, 4),
    ],
)
def test_max_ell_element_order_exhaustive(r, ell, n, expected):
    assert max_ell_element_order(r, ell, n) == expected


def test_max_ell_order_cap():
    with pytest.raises(SizeCapExceeded):
        max_ell_element_order(3, 5, 2)


def test_inertia_candidate_sample_shapes_and_determinism(monkeypatch):
    sample1 = inertia_candidate_sample(2, 3, 1, 2, count=4, seed=11)
    sample2 = inertia_candidate_sample(2, 3, 1, 2, count=4, seed=11)
    assert [g.n for g in sample1] == [g.n for g in sample2]
    assert [tuple(m.key() for m in g.matrices) for g in sample1] == [
        tuple(m.key() for m in g.matrices) for g in sample2
    ]
    assert len(sample1) == 4
    for g in sample1:
        inertia_shape(g, 2)  # raises unless g has the shape
    assert inertia_candidate_sample(2, 3, 1, 2, count=0, seed=1) == []
    # A smaller cell budget stops the same random stream earlier: a prefix.
    keys = [tuple(m.key() for m in g.matrices) for g in sample1]
    for budget in (0, 100, 400):
        monkeypatch.setattr(groups, "SAMPLE_CELL_BUDGET", budget)
        short = inertia_candidate_sample(2, 3, 1, 2, count=4, seed=11)
        assert 1 <= len(short) < 4
        assert [tuple(m.key() for m in g.matrices) for g in short] == keys[: len(short)]


def test_sampled_groups_pass_inertia_structure_and_claim1():
    from ramify.bounds import claim1_check, inertia_structure

    for r, ell, n, p in ((2, 3, 1, 2), (1, 3, 2, 2), (2, 2, 1, 3), (3, 2, 1, 5)):
        groups = inertia_candidate_sample(r, ell, n, p, count=3, seed=5)
        assert groups, f"no candidates found for {(r, ell, n, p)}"
        for g in groups:
            st = inertia_structure(list(g.matrices), p)
            assert st.r == r and claim1_check(st)


def test_abelian_probe_rank_one_tight():
    probe = abelian_p_bound_probe(1, 2, 3, 1)
    assert probe.max_order_found == 3
    assert probe.le_linear_bound and probe.le_torus_bound


def test_abelian_probe_diagonal_beats_linear_bound():
    probe = abelian_p_bound_probe(2, 2, 3, 1)
    assert probe.max_order_found == 9
    assert probe.le_torus_bound
    assert not probe.le_linear_bound  # 9 > 2*3


def test_abelian_probe_trivial_exponent():
    probe = abelian_p_bound_probe(2, 2, 3, 0)
    assert probe.max_order_found == 1
    assert probe.le_linear_bound and probe.le_torus_bound


# -- differential checks against the full n^2 algorithms ----------------------
#
# The group layer builds Cayley tables and subgroup closures from generating
# sets.  The oracles below are the all-pairs versions; over prime fields their
# products are computed on entry residues, without MatrixFF.


def brute_table(mats):
    """Every product of two elements, looked up in the key-sorted element list."""
    unique = {}
    for m in mats:
        unique.setdefault(m.key(), m)
    keys = sorted(unique)
    index = {k: i for i, k in enumerate(keys)}
    elems = [unique[k] for k in keys]
    if not elems:
        return []
    field, r = elems[0].field, elems[0].n
    if field.a == 1:
        p = field.p
        cells = [(i, j) for i in range(r) for j in range(r)]

        def product(ka, kb, a, b):
            return tuple(
                sum(ka[i * r + k] * kb[k * r + j] for k in range(r)) % p for i, j in cells
            )
    else:
        def product(ka, kb, a, b):
            return (a * b).key()
    table = []
    for ka, a in zip(keys, elems):
        row = []
        for kb, b in zip(keys, elems):
            k = product(ka, kb, a, b)
            if k not in index:
                raise NotAGroup("set is not closed under multiplication")
            row.append(index[k])
        table.append(row)
    return table


def brute_identity_and_inverses(mul):
    """The O(n^2) scans: first two-sided identity, first two-sided inverse."""
    n = len(mul)
    identity = next(
        (e for e in range(n) if all(mul[e][x] == x and mul[x][e] == x for x in range(n))),
        None,
    )
    if identity is None:
        return "no identity element"
    inv = []
    for x in range(n):
        y = next((y for y in range(n) if mul[x][y] == identity and mul[y][x] == identity), None)
        if y is None:
            return f"element g{x} has no inverse"
        inv.append(y)
    return identity, tuple(inv)


def pairwise_closure(group, seed):
    """Closure under all products in both orders and inverses."""
    todo = list(set(seed) | {group.identity})
    out = set(todo)
    while todo:
        x = todo.pop()
        for y in list(out):
            for z in (group.mul[x][y], group.mul[y][x]):
                if z not in out:
                    out.add(z)
                    todo.append(z)
        z = group.inv[x]
        if z not in out:
            out.add(z)
            todo.append(z)
    return frozenset(out)


def pairwise_all_subgroups(group):
    found = {pairwise_closure(group, [group.identity])}
    frontier = list(found)
    for i in range(group.n):
        s = pairwise_closure(group, [i])
        if s not in found:
            found.add(s)
            frontier.append(s)
    while frontier:
        base = frontier.pop()
        for i in range(group.n):
            if i in base:
                continue
            bigger = pairwise_closure(group, set(base) | {i})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def affine_group(p, m):
    """Z/p x| Z/m as the matrices [[a, b], [0, 1]] over F_p, a in the
    subgroup of order m of F_p^*."""
    field = field_create(p, 1)
    a = next(x for x in range(1, p) if power_order(x, lambda y, g: y * g % p, 1) == m)
    units = sorted({pow(a, k, p) for k in range(m)})
    return [MatrixFF(field, 2, [u, b, 0, 1]) for u in units for b in range(p)]


def assert_matches_oracle(mats):
    group = FiniteGroup.from_matrices(mats)
    table = brute_table(mats)
    assert [list(row) for row in group.mul] == table
    assert brute_identity_and_inverses(table) == (group.identity, group.inv)
    assert tuple(m.key() for m in group.matrices) == tuple(sorted({m.key() for m in mats}))
    return group


GL2_F3 = enumerate_gl(F3, 2)
GL3_F2 = enumerate_gl(F2, 3)


@pytest.mark.parametrize(
    "mats",
    [GL2_F3, GL3_F2, affine_group(7, 3), affine_group(5, 4), affine_group(3, 2)],
    ids=["gl2_f3", "gl3_f2", "z7_z3", "z5_z4", "z3_z2"],
)
def test_cayley_table_matches_all_pairs(mats):
    # Input order and duplicates must not matter.
    shuffled = list(mats) + list(mats[: len(mats) // 3])
    random.Random(len(mats)).shuffle(shuffled)
    group = assert_matches_oracle(shuffled)
    assert group.n == len(mats)


def test_sampled_subgroup_tables_match_all_pairs():
    cases = ((2, 3, 1, 2), (1, 3, 2, 2), (2, 2, 1, 3), (2, 5, 1, 3), (3, 2, 1, 7))
    seen = 0
    for r, ell, n, p in cases:
        for g in inertia_candidate_sample(r, ell, n, p, count=2, seed=7):
            assert_matches_oracle(list(g.matrices))
            seen += 1
    rng = random.Random(1)
    for _ in range(6):
        gens = [rng.choice(GL2_F3) for _ in range(rng.choice((1, 2)))]
        g = group_closure(gens)
        assert_matches_oracle(list(reversed(g.matrices)))
        seen += 1
    assert seen >= 12


def test_closed_singular_idempotents_behave_as_before():
    e1 = MatrixFF(F3, 2, [1, 0, 0, 0])
    e2 = MatrixFF(F3, 2, [1, 1, 0, 0])
    zero = MatrixFF(F3, 2, [0, 0, 0, 0])
    # {e1} is a one-element table: accepted, as with every product computed.
    single = assert_matches_oracle([e1])
    assert single.n == 1 and single.identity == 0
    # x * y = y on {e1, e2}: closed, but without a two-sided identity.
    assert brute_identity_and_inverses(brute_table([e1, e2])) == "no identity element"
    with pytest.raises(NotAGroup, match="no identity element"):
        FiniteGroup.from_matrices([e1, e2])
    # {0, e1}: identity e1, but 0 has no inverse.
    message = brute_identity_and_inverses(brute_table([zero, e1]))
    assert message == "element g0 has no inverse"
    with pytest.raises(NotAGroup, match=message):
        FiniteGroup.from_matrices([zero, e1])


def test_non_closed_sets_still_raise():
    rng = random.Random(3)
    for _ in range(5):
        subset = rng.sample(GL2_F3, rng.randint(2, 40))
        try:
            brute_table(subset)
            closed = True
        except NotAGroup:
            closed = False
        if closed:
            assert_matches_oracle(subset)
        else:
            with pytest.raises(NotAGroup, match="not closed"):
                FiniteGroup.from_matrices(subset)
    missing_one = GL2_F3[:17] + GL2_F3[18:]
    with pytest.raises(NotAGroup, match="not closed"):
        FiniteGroup.from_matrices(missing_one)
    with pytest.raises(NotAGroup, match="no identity"):
        FiniteGroup.from_matrices([])


def test_table_validation_matches_the_full_scans():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # plant an identity row and column
            e = rng.randrange(n)
            table[e] = list(range(n))
            for x in range(n):
                table[x][e] = x
        expected = brute_identity_and_inverses(table)
        labels = [f"g{i}" for i in range(n)]
        if isinstance(expected, str):
            with pytest.raises(NotAGroup, match=expected):
                FiniteGroup(table, labels)
        else:
            g = FiniteGroup(table, labels)
            assert (g.identity, g.inv) == expected
    with pytest.raises(NotAGroup, match="out of range"):
        FiniteGroup([[0, 2], [1, 0]], ["a", "b"])
    with pytest.raises(NotAGroup, match="out of range"):
        FiniteGroup([[0, float("nan")], [1, 0]], ["a", "b"])
    with pytest.raises(TypeError):
        FiniteGroup([[0, "1"], [1, 0]], ["a", "b"])


def _full_associativity(group):
    """The exhaustive O(n^3) check: (a b) c = a (b c) for every triple."""
    for a in range(group.n):
        for b in range(group.n):
            ab = group.mul[a][b]
            row_a = group.mul[a]
            for c in range(group.n):
                if group.mul[ab][c] != row_a[group.mul[b][c]]:
                    return False
    return True


def _one_cell_corruptions(group):
    """Every table that differs from the group's in one cell and that
    FiniteGroup still accepts (identity and inverses intact)."""
    for a in range(group.n):
        for b in range(group.n):
            for v in range(group.n):
                if v == group.mul[a][b]:
                    continue
                table = [list(row) for row in group.mul]
                table[a][b] = v
                try:
                    yield FiniteGroup(table, group.labels)
                except NotAGroup:
                    pass


def _semidirect(p, m, a):
    """Z/p x| Z/m with tau sigma tau^-1 = sigma^a: index y*p + x is sigma^x tau^y."""
    n = p * m
    table = [
        [(i // p + j // p) % m * p + (i % p + pow(a, i // p, p) * (j % p)) % p for j in range(n)]
        for i in range(n)
    ]
    return FiniteGroup(table, [f"g{i}" for i in range(n)])


# Orders 6 to 55, as in the benchmark's break tables.
SEMIDIRECT_SHAPES = [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 5), (13, 4)]
# A non-associative loop of order 5: a Latin square with identity 0 in which
# every element is its own inverse.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_light_associativity_matches_the_full_check():
    s3 = group_closure([MatrixFF(F2, 2, keys) for keys in ([0, 1, 1, 0], [1, 1, 0, 1])])
    # i and j of the quaternions in GL2(F3).
    q8 = group_closure([MatrixFF(F3, 2, keys) for keys in ([0, 2, 1, 0], [1, 1, 1, 2])])
    z2z4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    small = [FiniteGroup.cyclic(6), s3, q8, z2z4]
    assert [(g.n, g.is_abelian()) for g in small] == [(6, True), (6, False), (8, False), (8, True)]
    assert sorted(q8.order_of(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]  # not D4
    corrupted = [t for g in small for t in _one_cell_corruptions(g)]
    assert len(corrupted) == 788
    semidirect = [
        _semidirect(p, m, a) for p, m in SEMIDIRECT_SHAPES for a in range(2, p) if pow(a, m, p) == 1
    ]
    assert sorted({g.n for g in semidirect}) == [6, 10, 20, 21, 42, 52, 55]
    # In LOOP5 x Z/2 the first generator, (0, 1), associates with everything;
    # only the later ones expose the loop.
    loop = FiniteGroup(LOOP5, [f"l{i}" for i in range(5)])
    loop2 = FiniteGroup.direct_product(loop, FiniteGroup.cyclic(2))
    first = loop2.generators()[0]
    assert all(loop2.mul[loop2.mul[x][first]][y] == loop2.mul[x][loop2.mul[first][y]]
               for x in range(10) for y in range(10))
    tables = corrupted + semidirect + [loop, loop2]
    verdicts = [g.verify_axioms() for g in tables]
    assert verdicts == [_full_associativity(g) for g in tables]
    assert not all(verdicts) and verdicts[-2:] == [False, False]
    assert all(g.verify_axioms() for g in small + semidirect)


def test_closure_and_all_subgroups_match_pairwise():
    groups = [
        FiniteGroup.from_matrices(GL2_F3),
        FiniteGroup.from_matrices(affine_group(7, 3)),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
        FiniteGroup.cyclic(12),
    ]
    rng = random.Random(2)
    for g in groups:
        for _ in range(30):
            seed = rng.sample(range(g.n), rng.randint(0, 3))
            assert g.closure(seed) == pairwise_closure(g, seed)
        assert g.all_subgroups() == pairwise_all_subgroups(g)
        gens = g.generators()
        assert g.identity not in gens
        assert g.closure(gens) == frozenset(range(g.n))
    assert FiniteGroup.cyclic(1).generators() == []


def test_inertia_shape_agrees_with_inertia_structure():
    cases = [(affine_group(7, 3), 3), (affine_group(5, 4), 2), (GL2_F3, 2), (GL3_F2, 3)]
    cases += [(list(g.matrices), 2) for g in inertia_candidate_sample(2, 3, 1, 2, count=2, seed=5)]
    shaped = 0
    for mats, p in cases:
        group = FiniteGroup.from_matrices(mats)
        try:
            subset, m = inertia_shape(group, p)
        except (PSylowNotNormal, QuotientNotCyclic) as exc:
            with pytest.raises(type(exc)):
                inertia_structure(mats, p)
            continue
        shaped += 1
        st = inertia_structure(mats, p)
        assert st.P_indices == subset and st.M == m == group.quotient(subset)[0].n
        assert len(subset) == p ** split_prime_power(group.n, p)[0]
    assert shaped >= 2


def test_quotient_cyclicity_by_element_orders_matches_the_quotient_table():
    """Oracle for the quotient table ``inertia_shape`` no longer builds:
    for every prime dividing the order, and the least prime that does not,
    M is the order of G/P, and G/P is refused as not cyclic exactly when
    its quotient table is not cyclic."""
    z2 = FiniteGroup.cyclic(2)
    groups = [_semidirect(p, m, a) for p, m in SEMIDIRECT_SHAPES[:4] for a in range(2, p) if pow(a, m, p) == 1]
    groups += [FiniteGroup.from_matrices(mats) for mats in (GL2_F3, affine_group(7, 3), affine_group(5, 4))]
    groups += [FiniteGroup.cyclic(12), FiniteGroup.direct_product(z2, z2),
               FiniteGroup.direct_product(z2, FiniteGroup.cyclic(4)), FiniteGroup.direct_product(z2, FiniteGroup.cyclic(6))]
    groups += [g for seed in range(3) for g in inertia_candidate_sample(2, 3, 1, 2, count=3, seed=seed)]
    verdicts = []
    for group in groups:
        spare = next(q for q in itertools.count(2) if is_prime(q) and group.n % q)
        for p in prime_factors(group.n) + [spare]:
            p_elements = frozenset(group.p_elements(p))
            if len(p_elements) != p ** split_prime_power(group.n, p)[0]:
                with pytest.raises(PSylowNotNormal):
                    inertia_shape(group, p)
                continue
            cyclic = quotient_is_cyclic(group, p_elements)
            verdicts.append(cyclic)
            if not cyclic:
                with pytest.raises(QuotientNotCyclic):
                    inertia_shape(group, p)
                continue
            assert inertia_shape(group, p) == (p_elements, group.quotient(p_elements)[0].n)
    assert True in verdicts and False in verdicts


def test_closed_p_elements_form_a_normal_subgroup():
    """The normality test that inertia_shape proves needless, kept as the
    oracle: once the p-power-order elements are closed, they are normal."""
    groups = [FiniteGroup.from_matrices(mats) for mats in (GL2_F3, GL3_F2, affine_group(7, 3))]
    groups += [g for seed in range(6) for g in inertia_candidate_sample(2, 3, 1, 2, count=2, seed=seed)]
    groups += inertia_candidate_sample(1, 2, 4, 3, count=2, seed=0)
    verdicts = []
    for group in groups:
        for p in prime_factors(group.n):
            p_elements = frozenset(group.p_elements(p))
            verdicts.append(group.is_subgroup(p_elements))
            if verdicts[-1]:
                assert group.is_normal(p_elements), (group.n, p)
    assert True in verdicts and False in verdicts


def test_p_power_elements_are_closed_once_there_are_the_p_part_of_them():
    """The closure test that inertia_shape proves needless, kept as the
    oracle: for p prime, |G|_p elements of p-power order form a subgroup.
    On the corpus images, seeded sampler groups and the semidirect tables
    of the benchmark's shapes, for every prime dividing the order."""
    tables = [_semidirect(p, m, a) for p, m in SEMIDIRECT_SHAPES for a in range(2, p) if pow(a, m, p) == 1]
    images = [FiniteGroup.from_matrices(corpus.get_representation(rep_id)[2].images) for rep_id in corpus.rep_ids()]
    sampled = [
        g
        for r, ell, n, p in ((2, 3, 1, 2), (2, 2, 1, 3), (2, 5, 1, 3), (2, 7, 1, 3), (1, 3, 2, 2))
        for seed in range(3)
        for g in inertia_candidate_sample(r, ell, n, p, count=3, seed=seed)
    ]
    verdicts = []
    for group in tables + images + sampled:
        for p in prime_factors(group.n):
            p_elements = frozenset(group.p_elements(p))
            verdicts.append(len(p_elements) == p ** split_prime_power(group.n, p)[0])
            if verdicts[-1]:
                assert group.is_subgroup(p_elements), (group.n, p)
    assert True in verdicts and False in verdicts


def test_the_sampler_refuses_a_p_that_is_not_prime():
    # inertia_shape reads a Sylow subgroup off the p-power-order elements,
    # which needs p prime; inertia_structure refuses the same p.
    for p in (1, 4, 6, 9):
        with pytest.raises(NotPrime):
            inertia_candidate_sample(2, 3, 1, p, count=1, seed=0)
        with pytest.raises(NotPrime):
            inertia_candidate_sample(2, 3, 1, p, count=0, seed=0)


def _three_part_is_subgroup(group, subset):
    """The subgroup test before it was cut to closure: identity, products
    and inverses."""
    return (
        group.identity in subset
        and all(group.mul[x][y] in subset for x in subset for y in subset)
        and all(group.inv[x] in subset for x in subset)
    )


def test_is_subgroup_matches_the_three_part_test():
    d4 = group_closure([MatrixFF(F3, 2, keys) for keys in ([0, 2, 1, 0], [1, 0, 0, 2])])
    q8 = group_closure([MatrixFF(F3, 2, keys) for keys in ([0, 2, 1, 0], [1, 1, 1, 2])])
    z2 = FiniteGroup.cyclic(2)
    groups = [FiniteGroup.cyclic(n) for n in range(1, 9)] + [
        FiniteGroup.from_matrices(enumerate_gl(F2, 2)),  # S3
        d4,
        q8,
        FiniteGroup.direct_product(z2, z2),
        FiniteGroup.direct_product(z2, FiniteGroup.cyclic(4)),
        FiniteGroup.direct_product(FiniteGroup.direct_product(z2, z2), z2),
    ]
    assert sorted(q8.order_of(x) for x in range(8)) != sorted(d4.order_of(x) for x in range(8))
    for group in groups:
        subgroups = 0
        for size in range(group.n + 1):
            for subset in map(frozenset, itertools.combinations(range(group.n), size)):
                verdict = group.is_subgroup(subset)
                assert verdict == _three_part_is_subgroup(group, subset), (group.n, subset)
                subgroups += verdict
        assert subgroups == len(group.all_subgroups())


@pytest.mark.parametrize(
    "mats",
    [enumerate_gl(F2, 2), affine_group(7, 3), affine_group(5, 4), GL2_F3],
    ids=["s3", "z7_z3", "z5_z4", "gl2_f3"],
)
def test_commutativity_on_the_parent_table_matches_the_subgroup_table(mats):
    """Oracle for the subgroup tables that ``hasse_arf_check`` and
    ``_abelian_normal_part`` no longer build: for every subgroup S, the
    verdict read on the parent table equals ``subgroup_table(group, S)[0].is_abelian()``."""
    group = FiniteGroup.from_matrices(mats)
    assert not group.is_abelian()
    best = frozenset({group.identity})
    for sub in group.all_subgroups():
        abelian = subgroup_table(group, sub)[0].is_abelian()
        filt = RamFiltration(group, 2, (0,), (sub,))  # G_0 = S
        if abelian:
            assert hasse_arf_check(filt, ())
        else:
            with pytest.raises(NotAbelian):
                hasse_arf_check(filt, ())
        if abelian and group.is_normal(sub) and len(sub) > len(best):
            best = sub
    assert _abelian_normal_part(group) == best


def test_power_order_on_tables_and_matrices():
    g = FiniteGroup.from_matrices(GL2_F3)
    ident = MatrixFF.identity(F3, 2)
    for i, m in enumerate(g.matrices):
        assert g.order_of(i) == power_order(m, MatrixFF.__mul__, ident)


# The one group that inertia_candidate_sample(2, 7, 1, p, count=1, seed=0)
# returned before closures stopped at half of GL2(F7), for p = 2 and 3; it
# took 4,351 matrix products then, 3,559 of them in one closure that hit
# the size cap.
GL2_F7_SAMPLE_KEYS = [
    (0, 1, 5, 0), (0, 2, 3, 0), (0, 3, 1, 0), (0, 4, 6, 0), (0, 5, 4, 0), (0, 6, 2, 0),
    (1, 0, 0, 1), (1, 2, 3, 1), (1, 5, 4, 1), (2, 0, 0, 2), (2, 3, 1, 2), (2, 4, 6, 2),
    (3, 0, 0, 3), (3, 1, 5, 3), (3, 6, 2, 3), (4, 0, 0, 4), (4, 1, 5, 4), (4, 6, 2, 4),
    (5, 0, 0, 5), (5, 3, 1, 5), (5, 4, 6, 5), (6, 0, 0, 6), (6, 2, 3, 6), (6, 5, 4, 6),
]


@pytest.mark.parametrize("p", [2, 3])
def test_closures_stop_at_half_of_gl_with_the_same_sample(p, monkeypatch):
    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    groups = inertia_candidate_sample(2, 7, 1, p, count=1, seed=0)
    assert [[m.key() for m in g.matrices] for g in groups] == [GL2_F7_SAMPLE_KEYS]
    assert len(calls) < 4351


def test_closure_over_half_of_gl_is_refused_when_gl_exceeds_the_cap():
    F5 = field_create(5, 1)
    gl2 = [MatrixFF(F5, 2, [2, 0, 0, 1]), MatrixFF(F5, 2, [4, 1, 4, 0])]
    assert group_closure(gl2, size_cap=480).n == 480  # GL2(F5) itself, within the cap
    with pytest.raises(SizeCapExceeded, match="closure exceeds cap 479"):
        group_closure(gl2, size_cap=479)
    # Square determinants: exactly half of GL2(F5), so no stop before the cap.
    index_two = [
        MatrixFF(F5, 2, [1, 1, 0, 1]),
        MatrixFF(F5, 2, [0, 4, 1, 0]),
        MatrixFF(F5, 2, [4, 0, 0, 1]),
    ]
    assert group_closure(index_two, size_cap=240).n == 240
    with pytest.raises(SizeCapExceeded):
        group_closure(index_two, size_cap=239)


def test_closure_stops_at_the_least_prime_index(monkeypatch):
    # |GL_1(F_{2^11})| = 2047 = 23 * 89: a proper subgroup has at most 89
    # elements, so a closure past 89 is the whole group, over the cap.
    field = field_create(2, 11)
    g = field.generator()
    assert field.pow_key(g, 23) != 1 and field.pow_key(g, 89) != 1  # order 2047
    sub = group_closure([MatrixFF(field, 1, [field.pow_key(g, 23)])], size_cap=89)
    assert sub.n == 89  # index 23 = the least prime factor: admitted
    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    with pytest.raises(SizeCapExceeded, match="^closure exceeds cap 2000$"):
        group_closure([MatrixFF(field, 1, [g])], size_cap=2000)
    assert len(calls) <= 90  # one product per element up to the stop at 89


# -- closures read their tables off their own walk ---------------------------


def _closure_cases():
    """(name, given generators): GL2 fixtures, generators of the GL2(F7)
    sample, the probes' diagonal generators and the index-23 subgroup of
    GL_1(F_{2^11}); some lists repeat a generator or hold the identity."""
    F5, F4, F2_11 = field_create(5, 1), field_create(2, 2), field_create(2, 11)

    def gl2(field, *keys):
        return [MatrixFF(field, 2, k) for k in keys]

    yield "gl2_f2", gl2(F2, [0, 1, 1, 0], [1, 1, 0, 1])
    yield "gl2_f3", gl2(F3, [0, 1, 2, 0], [1, 1, 0, 1])
    yield "gl2_f3_repeats", gl2(F3, [1, 0, 0, 1], [0, 1, 2, 0], [0, 1, 2, 0], [1, 1, 0, 1])
    yield "gl2_f5", gl2(F5, [2, 0, 0, 1], [4, 1, 4, 0])
    yield "gl2_f5_index_two", gl2(F5, [1, 1, 0, 1], [0, 4, 1, 0], [4, 0, 0, 1])
    sample = FiniteGroup.from_matrices([MatrixFF(F7, 2, k) for k in GL2_F7_SAMPLE_KEYS])
    yield "gl2_f7_sample", [sample.matrices[g] for g in sample.generators()]
    for r, field, s in ((1, F4, 3), (2, F4, 3), (2, field_create(2, 4), 5)):
        zeta = field.root_of_unity(s)
        yield f"probe_r{r}_mu{s}", [
            MatrixFF(field, r, [(zeta if j == k == i else int(j == k)) for j in range(r) for k in range(r)])
            for i in range(r)
        ]
    yield "f2_11_index_23", [MatrixFF(F2_11, 1, [F2_11.pow_key(F2_11.generator(), 23)])]


CLOSURE_CASES = [name for name, _ in _closure_cases()]


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_closure_table_is_the_table_of_its_elements(name, monkeypatch):
    gens = next(g for n, g in _closure_cases() if n == name)
    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    closed = group_closure(gens)
    # One product per element and given generator: the walk's own.
    assert len(calls) == closed.n * len(gens)
    monkeypatch.undo()
    oracle = FiniteGroup.from_matrices(list(reversed(closed.matrices)))
    assert closed.mul == oracle.mul
    assert closed.labels == oracle.labels
    assert closed.matrices == oracle.matrices
    assert closed.verify_axioms()


@pytest.mark.parametrize("field,r", [(F2, 3), (F3, 2), (field_create(2, 2), 2)])
def test_enumerate_gl_is_in_key_order_without_a_sort(field, r):
    mats = enumerate_gl(field, r)
    keys = [m.key() for m in mats]
    assert keys == sorted(keys)
    q = field.order
    gl_order = 1
    for i in range(r):
        gl_order *= q ** r - q ** i
    assert len(set(keys)) == len(keys) == gl_order


# ---------------------------------------------------------------------------
# The exhaustive ell-element scan against the full candidate scan.

# Every (r, ell, n) an enum job admits: q^(r^2 + r) <= 2^14 with q = ell^n, so
# r = 1 with q <= 128, r = 2 with q <= 5 and r = 3 with q = 2.
ADMITTED = [
    (r, ell, n)
    for r in range(1, 4)
    for ell in range(2, 129)
    if is_prime(ell)
    for n in range(1, 8)
    if (ell ** n) ** (r * r + r) <= 1 << 14
]


def _scan_enumerate_gl(field, r):
    """Every key tuple in itertools.product order, kept when invertible."""
    keys = itertools.product(range(field.order), repeat=r * r)
    return [m for m in (MatrixFF(field, r, k) for k in keys) if m.is_invertible()]


def _scan_max_ell_order(r, ell, n):
    """The largest power of ell among the orders found by repeated products."""
    field = field_create(ell, n)
    ident = MatrixFF.identity(field, r)
    orders = (power_order(m, MatrixFF.__mul__, ident) for m in _scan_enumerate_gl(field, r))
    return max(o for o in orders if split_prime_power(o, ell)[1] == 1)


@pytest.mark.parametrize("r,ell,n", ADMITTED)
def test_ell_scan_matches_the_candidate_scan(r, ell, n):
    field = field_create(ell, n)
    assert [m.key() for m in enumerate_gl(field, r)] == [m.key() for m in _scan_enumerate_gl(field, r)]
    # By repeated products F_128 alone takes about a second.
    if r > 1 or ell ** n <= 64:
        assert max_ell_element_order(r, ell, n) == _scan_max_ell_order(r, ell, n)


@pytest.mark.parametrize("r,ell,n", [case for case in ADMITTED if case[0] > 1])
def test_gl_order_and_its_ell_elements_by_counting(r, ell, n):
    q = ell ** n
    mats = enumerate_gl(field_create(ell, n), r)
    assert len(mats) == math.prod(q ** r - q ** i for i in range(r))
    # q^(r(r-1)/2) is the ell-part of |GL_r(F_q)|; Steinberg: q^(r(r-1)) ell-elements.
    e = q ** (r * (r - 1) // 2)
    ident = MatrixFF.identity(mats[0].field, r)
    assert sum(m ** e == ident for m in mats) == q ** (r * (r - 1))


@pytest.mark.parametrize("r,ell,n", [case for case in ADMITTED if case[0] > 1])
def test_the_trace_filter_keeps_every_ell_element(r, ell, n, monkeypatch):
    q = ell ** n
    field = field_create(ell, n)
    ident = MatrixFF.identity(field, r)
    e = q ** (r * (r - 1) // 2)
    ell_elements = {m.key() for m in enumerate_gl(field, r) if m ** e == ident}
    assert len(ell_elements) == q ** (r * (r - 1))
    # Each is unipotent, so its trace, summed here one entry at a time, is r * 1.
    for key in ell_elements:
        trace = 0
        for i in range(r):
            trace = field.add_keys([trace], [key[i * (r + 1)]])[0]
        assert trace == r % ell
    # The walk checks the nilpotency bound once on each ell-element it finds,
    # so the matrices the trace filter passed on hold every ell-element.
    found = []
    check = groups.nilpotency_exponent_ok

    def recording(m, *args):
        found.append(m.key())
        return check(m, *args)

    monkeypatch.setattr(groups, "nilpotency_exponent_ok", recording)
    max_ell_element_order(r, ell, n)
    assert sorted(found) == sorted(ell_elements)


# MatrixFF products of the scan that powered every element of GL_r(F_q) to
# its order and checked the nilpotency bound on each ell-element: the cases
# of `verify claim1` where it made a product.
CANDIDATE_SCAN_PRODUCTS = {
    (1, 3, 1): 1, (1, 2, 2): 4, (2, 2, 1): 10, (2, 3, 1): 187, (2, 2, 2): 1072, (3, 2, 1): 694,
}


def test_ell_scan_makes_fewer_products_and_no_row_reduction(monkeypatch):
    calls = {"mul": 0, "reduce": 0}
    inner_mul, inner_reduce = MatrixFF.__mul__, linalg._reduce

    def counted_mul(x, y):
        calls["mul"] += 1
        return inner_mul(x, y)

    def counted_reduce(*args):
        calls["reduce"] += 1
        return inner_reduce(*args)

    monkeypatch.setattr(MatrixFF, "__mul__", counted_mul)
    monkeypatch.setattr(linalg, "_reduce", counted_reduce)
    # (1, 2, 1) and r = 1 over F_128 make no product.
    for case in [(1, 2, 1), *CANDIDATE_SCAN_PRODUCTS, (1, 2, 7)]:
        calls.update(mul=0, reduce=0)
        max_ell_element_order(*case)
        assert calls["reduce"] == 0, case
        assert calls["mul"] < CANDIDATE_SCAN_PRODUCTS.get(case, 1), case


# MatrixFF products of max_ell_element_order on the cases of `verify claim1`,
# nilpotency checks included.  The walk of every invertible matrix, which
# raised a matrix to the ell-th power each time a walk reached it, took
# 0, 0, 0, 8, 110, 358 and 564: 1,040 in all.
CLAIM1_ELL_PRODUCTS = {
    (1, 2, 1): 0, (1, 3, 1): 0, (1, 2, 2): 0, (2, 2, 1): 6, (2, 3, 1): 44, (2, 2, 2): 62, (3, 2, 1): 234,
}


def test_ell_scan_walks_only_trace_r_matrices_and_powers_each_once(monkeypatch):
    calls = []
    inner = MatrixFF.__mul__

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    made = {}
    for case in CLAIM1_ELL_PRODUCTS:
        calls.clear()
        max_ell_element_order(*case)
        made[case] = len(calls)
    assert made == CLAIM1_ELL_PRODUCTS
    assert sum(made.values()) == 346 <= 360

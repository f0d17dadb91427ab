import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import cli, ramification
from ramify.corpus import cover_ids, get_cover, get_representation, rep_ids
from ramify.covers import BreakTable, build_artin_schreier, build_kummer, deck_group, lower_break_table
from ramify.errors import (
    DimensionMismatch,
    FieldMismatch,
    GroupMismatch,
    MismatchDetected,
    NotAbelian,
    NotAHomomorphism,
    NotPGroupWildPart,
    PreconditionFailed,
    SizeCapExceeded,
)
from ramify.fields import field_create
from ramify.groups import FiniteGroup
from ramify.linalg import MatrixFF
from ramify.ramification import (
    HerbrandFunction,
    Representation,
    filtration_from_breaks,
    hasse_arf_check,
    herbrand_phi,
    herbrand_psi,
    phi_transitivity_check,
    pullback_bound_check,
    quotient_filtration_by_herbrand,
    swan_conductor,
    swan_single_break,
    tower_filtrations,
    upper_jumps,
)

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F7 = field_create(7, 1)


def character(group, field, gen_label, value):
    return Representation(group, {gen_label: MatrixFF(field, 1, [value])})


def filt_of(cover):
    return filtration_from_breaks(lower_break_table(cover), cover.p)


def transitivity(cover):
    return phi_transitivity_check(cover, *tower_filtrations(cover), filt_of(cover.intermediate.lower))


def pullback(cover, rep):
    return pullback_bound_check(cover, rep, *tower_filtrations(cover))


def diagonal_sum(*chars):
    """chi_1 + ... + chi_k for characters of one group: diagonal images."""
    k = len(chars)
    images = [
        MatrixFF(
            chars[0].field, k, [x.entries[0] if i == j else 0 for i, x in enumerate(row) for j in range(k)]
        )
        for row in zip(*(c.images for c in chars))
    ]
    return Representation(chars[0].group, every_image(chars[0].group, images))


def every_image(group, images):
    """Every element's image as the generator map, so the walk checks all n^2 products."""
    return dict(zip(group.labels, images))


def is_faithful(rep):
    """Only the identity maps to the identity matrix."""
    ident = MatrixFF.identity(rep.field, rep.r)
    return sum(m == ident for m in rep.images) == 1


# -- filtrations -----------------------------------------------------------


def test_filtration_as_p2_m1():
    cover = get_cover("as_p2_m1")
    filt = filt_of(cover)
    assert [len(s) for s in filt.subgroups] == [2, 2, 1]
    assert filt.i_max == 1
    assert filt.jumps == (1,)


def test_filtration_kummer_tame():
    cover = get_cover("kummer_p2a2_m3")
    filt = filt_of(cover)
    assert [len(s) for s in filt.subgroups] == [3, 1]
    assert filt.jumps == (0,)


def test_filtration_trivial_group():
    g = FiniteGroup.cyclic(1, "sigma")
    filt = filtration_from_breaks(BreakTable(g, {}), 2)
    assert filt.i_max == -1
    assert [len(s) for s in filt.subgroups] == [1]


def test_filtration_wild_part_must_be_p_group():
    g = FiniteGroup.cyclic(3, "tau")
    bt = BreakTable(g, {1: 2, 2: 2})
    with pytest.raises(NotPGroupWildPart):
        filtration_from_breaks(bt, 2)


def test_filtration_member_must_be_a_subgroup():
    # Z/4: G_2 = {1, g, g^3} is not closed under products.
    g = FiniteGroup.cyclic(4, "g")
    bt = BreakTable(g, {1: 3, 3: 3, 2: 2})
    with pytest.raises(MismatchDetected, match="filtration member is not a subgroup"):
        filtration_from_breaks(bt, 2)


def _oracle_groups():
    """Cyclic, dihedral (S3 = Z/3 x| Z/2) and semidirect groups."""
    yield FiniteGroup.cyclic(8, "g")
    for p, m, ell in ((3, 2, 7), (7, 3, 29), (5, 4, 11)):
        yield _monomial_rep_images(p, m, ell)[0]


@pytest.mark.parametrize("seed", range(3))
def test_accepted_break_tables_have_normal_levels(seed):
    """The normality test that filtration_from_breaks proves needless, kept
    as the oracle: BreakTable refuses an i-map, or every level
    {1} u {sigma : i(sigma) > u} is normal.  Half the maps are constant on
    conjugacy classes, half are drawn element by element."""
    rng = random.Random(seed)
    refused = 0
    for group in _oracle_groups():
        classes = sorted({frozenset(group.conjugate(t, s) for t in range(group.n)) for s in range(group.n)}, key=min)
        for trial in range(10):
            if trial % 2:
                i_map = {s: rng.randint(1, 4) for s in range(group.n)}
            else:
                i_map = {}
                for c in classes:
                    i_map.update(dict.fromkeys(c, rng.randint(1, 4)))
            del i_map[group.identity]
            try:
                BreakTable(group, i_map)
            except MismatchDetected:
                refused += 1
                continue
            for u in {v - 1 for v in i_map.values()}:
                level = frozenset({group.identity, *(s for s, v in i_map.items() if v > u)})
                assert group.is_normal(level), (group.n, i_map)
    assert refused > 0


def test_corpus_filtration_levels_are_normal():
    for cover_id in cover_ids():
        filt = filt_of(get_cover(cover_id))
        assert all(filt.group.is_normal(level) for level in filt.levels), cover_id


def _count_calls(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args):
        calls[name] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


def test_filtration_work_is_per_level_not_per_index(monkeypatch):
    """Z/128 with every i = 2 or every i = 4096 has one level either way, so
    the level checks and Swan's filtration sum do the same work."""
    group = FiniteGroup.cyclic(128, "g")
    rep = character(group, F3, "g", 2)
    calls = {"is_subgroup": 0, "fixed_dim": 0}
    _count_calls(monkeypatch, FiniteGroup, "is_subgroup", calls)
    _count_calls(monkeypatch, Representation, "fixed_dim", calls)
    counts = []
    for i_g in (2, 4096):
        bt = BreakTable(group, {s: i_g for s in range(1, group.n)})
        calls.update(is_subgroup=0, fixed_dim=0)
        filt = filtration_from_breaks(bt, 2)
        subgroup_calls = calls["is_subgroup"]
        calls["fixed_dim"] = 0
        assert swan_conductor(rep, filt).swan == i_g - 1
        counts.append((subgroup_calls, calls["fixed_dim"]))
    assert counts[0] == counts[1]


def _per_index_filtration(bt):
    """G_0, ..., G_{i_max+1}, each built from the definition."""
    top = max(bt.i_map.values(), default=0)
    return [
        frozenset({bt.group.identity, *(s for s, v in bt.i_map.items() if v >= i + 1)})
        for i in range(top + 1)
    ]


def _per_index_phi(subs):
    """(breakpoints, unit slopes) of phi summed index by index."""
    order = [len(s) for s in subs] + [1]
    vertices = {u for u in range(1, len(subs) - 1) if subs[u] != subs[u + 1]}
    vertices |= {1} if order[0] != order[1] else set()
    points = [(0, 0)] + [
        (u, Fraction(sum(order[i] for i in range(1, u + 1)), order[0])) for u in sorted(vertices)
    ]
    slopes = [Fraction(order[i], order[0]) for i in range(1, len(subs))]
    return tuple((Fraction(u), Fraction(v)) for u, v in points), tuple(slopes)


@pytest.mark.parametrize("seed", range(12))
def test_filtration_at_jumps_matches_per_index_oracle(seed):
    """Z/n, n = 2^k * m (m = 1 or 3), p = 2: i = 1 off the 2-Sylow P and
    i = a_j >= 2 on the elements of order 2^j, a_1 >= a_2 >= ... (runs of
    equal a_j and long gaps).  Filtration, phi, the unit slopes of a
    ``herbrand`` report, Swan and the quotient by the order-2 subgroup agree
    with index-by-index constructions."""
    rng = random.Random(seed)
    k, m = rng.randint(1, 4), rng.choice((1, 3))
    n = 2 ** k * m
    a = sorted((rng.choice((2, 3, 5, 17, 40)) for _ in range(k)), reverse=True)
    group = FiniteGroup.cyclic(n, "g")
    i_map = {}
    for x in range(1, n):
        order = n // math.gcd(x, n)
        i_map[x] = 1 if order % 2 or order & (order - 1) else a[order.bit_length() - 2]
    bt = BreakTable(group, i_map)
    filt = filtration_from_breaks(bt, 2)
    subs = _per_index_filtration(bt)
    assert list(filt.subgroups) == subs
    assert filt.i_max == len(subs) - 2
    assert list(filt.jumps) == [u for u in range(len(subs) - 1) if subs[u] != subs[u + 1]]
    assert [filt.subgroup_at(i) for i in range(len(subs) + 3)] == subs + [subs[-1]] * 3
    assert herbrand_phi(filt).breakpoints == _per_index_phi(subs)[0]
    job = {"command": "herbrand", "base": {"p": 2, "a": 1}, "break_table": {
        "labels": list(group.labels),
        "mul_table": [list(row) for row in group.mul],
        "iG": {group.labels[x]: v for x, v in i_map.items()},
    }}
    report, code = cli.run(job)
    assert code == 0
    assert tuple(report["results"]["phi"]["unit_slopes"]) == _per_index_phi(subs)[1]
    # A faithful character over F_97: 5 is a primitive root and n | 96.
    rep = character(group, field_create(97, 1), "g", pow(5, 96 // n, 97))
    assert swan_conductor(rep, filt).swan == swan_character_oracle(filt, rep)
    h = [0, n // 2]
    bt_h = BreakTable(group, {g: v for g, v in bt.i_map.items() if g in h})
    phi_h = herbrand_phi(filtration_from_breaks(bt_h, 2))
    quot, proj = group.quotient(frozenset(h))
    psi_h = herbrand_psi(phi_h)
    per_index = [frozenset(proj[x] for x in subs[0])]
    while len(per_index[-1]) > 1:
        u = psi_h.evaluate(len(per_index))
        per_index.append(frozenset(proj[x] for x in filt.subgroup_at(math.ceil(u))))
    assert list(quotient_filtration_by_herbrand(filt, h, phi_h).subgroups) == per_index


# -- Herbrand functions --------------------------------------------------------


def test_phi_as_m1():
    filt = filt_of(get_cover("as_p2_m1"))
    phi = herbrand_phi(filt)
    assert phi.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    assert phi.final_slope == Fraction(1, 2)
    assert phi.evaluate(3) == Fraction(2)


def test_phi_as_m3():
    filt = filt_of(get_cover("as_p2_m3"))
    phi = herbrand_phi(filt)
    assert phi.breakpoints[-1] == (Fraction(3), Fraction(3))
    assert phi.final_slope == Fraction(1, 2)
    assert upper_jumps(filt, phi) == (Fraction(3),)


def test_phi_tame():
    filt = filt_of(get_cover("kummer_p2a2_m3"))
    phi = herbrand_phi(filt)
    assert phi.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 3)))
    assert phi.final_slope == Fraction(1, 3)


def phi_integer_point_oracle(filt, v):
    """Direct sum (|G_1| + ... + |G_v|) / |G_0| from the subgroup orders."""
    total = sum(filt.order_at(i) for i in range(1, v + 1))
    return Fraction(total, filt.order_at(0))


@pytest.mark.parametrize(
    "cover_id",
    [
        "as_p2_m1",
        "as_p2_m3",
        "as_p3_m1",
        "as_p3_m2",
        "as_p5_m1",
        "kummer_p2a2_m3",
        "kummer_p3_m2",
        "kummer_p5_m2",
        "tower_z6",
        "tower_z10",
    ],
)
def test_phi_integer_point_formula_and_inverse(cover_id):
    filt = filt_of(get_cover(cover_id))
    phi = herbrand_phi(filt)
    psi = herbrand_psi(phi)
    for v in range(1, filt.i_max + 3):
        assert phi.evaluate(v) == phi_integer_point_oracle(filt, v)
    for u, value in phi.breakpoints:
        assert psi.evaluate(value) == u
        assert phi.evaluate(psi.evaluate(value)) == value
    for x in (Fraction(1, 2), Fraction(5, 3), Fraction(7, 2)):
        assert phi.evaluate(psi.evaluate(x)) == x
    # concavity and monotonicity on a rational grid
    grid = [Fraction(k, 4) for k in range(0, 4 * (filt.i_max + 3))]
    values = [phi.evaluate(x) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    slopes = [
        (v2 - v1) / (x2 - x1)
        for (x1, v1), (x2, v2) in zip(zip(grid, values), zip(grid[1:], values[1:]))
    ]
    assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))
    assert phi.evaluate(0) == 0


def test_hasse_arf_on_abelian_fixtures():
    for cover_id in ("as_p2_m3", "tower_z6", "tower_z10", "kummer_p3_m2"):
        filt = filt_of(get_cover(cover_id))
        assert hasse_arf_check(filt, upper_jumps(filt, herbrand_phi(filt)))


def test_hasse_arf_rejects_nonabelian():
    s3 = FiniteGroup.from_matrices(
        _s3_matrices()
    )
    bt = BreakTable(s3, {i: 1 for i in range(s3.n) if i != s3.identity})
    filt = filtration_from_breaks(bt, 5)
    with pytest.raises(NotAbelian):
        hasse_arf_check(filt, upper_jumps(filt, herbrand_phi(filt)))


def _s3_matrices():
    gens = [
        MatrixFF(F7, 2, [0, 1, 1, 0]),
        MatrixFF(F7, 2, [0, 6, 1, 6]),
    ]
    from ramify.groups import group_closure

    return list(group_closure(gens).matrices)


# -- Swan conductors ------------------------------------------------------------


def swan_character_oracle(filt, rep):
    """Independent Swan value for rank-1 representations: sum |G_i|/|G_0|
    over i >= 1 where some element of G_i has a nontrivial image."""
    total = Fraction(0)
    ident = MatrixFF.identity(rep.field, rep.r)
    for i in range(1, filt.i_max + 2):
        sub = filt.subgroup_at(i)
        if any(rep.images[g] != ident for g in sub):
            total += Fraction(len(sub), filt.order_at(0))
    return total


def test_swan_as_p2_m1():
    cover_id, _, rep, _ = get_representation("as_p2_m1.chi")
    cover = get_cover(cover_id)
    filt = filt_of(cover)
    report = swan_conductor(rep, filt)
    assert report.swan == 1
    assert report.breaks == ((Fraction(1), 1),)
    assert report.swan == swan_character_oracle(filt, rep)


def test_swan_as_p2_m3():
    cover_id, _, rep, _ = get_representation("as_p2_m3.chi")
    cover = get_cover(cover_id)
    filt = filt_of(cover)
    report = swan_conductor(rep, filt)
    assert report.swan == 3
    assert report.breaks == ((Fraction(3), 1),)


def test_swan_tame_and_trivial_are_zero():
    cover_id, _, rep, _ = get_representation("kummer_p2a2_m3.chi")
    cover = get_cover(cover_id)
    filt = filt_of(cover)
    assert swan_conductor(rep, filt).swan == 0
    cover2_id, _, triv, _ = get_representation("as_p2_m1.triv")
    cover2 = get_cover(cover2_id)
    assert swan_conductor(triv, filt_of(cover2)).swan == 0
    assert swan_conductor(triv, filt_of(cover2)).breaks == ((Fraction(0), 1),)


def test_swan_zero_iff_wild_part_acts_trivially():
    for rep_id in (
        "as_p2_m1.chi",
        "as_p2_m1.triv",
        "as_p3_m2.chi",
        "tower_z6.chi_wild",
        "tower_z6.chi_tame",
        "tower_z10.chi_faithful",
    ):
        cover_id, _, rep, _ = get_representation(rep_id)
        cover = get_cover(cover_id)
        filt = filt_of(cover)
        sw = swan_conductor(rep, filt).swan
        ident = MatrixFF.identity(rep.field, rep.r)
        wild_trivial = all(rep.images[g] == ident for g in filt.subgroup_at(1))
        assert (sw == 0) == wild_trivial


def test_swan_direct_sum_additive():
    cover_id, _, chi, _ = get_representation("tower_z6.chi_wild")
    cover = get_cover(cover_id)
    _, _, tame, _ = get_representation("tower_z6.chi_tame")
    filt = filt_of(cover)
    both = diagonal_sum(chi, tame)
    report = swan_conductor(both, filt)
    assert report.swan == swan_conductor(chi, filt).swan + swan_conductor(tame, filt).swan
    assert report.breaks == ((Fraction(0), 1), (Fraction(1), 1))


def test_swan_chi_plus_trivial_breaks():
    cover_id, _, chi, _ = get_representation("as_p2_m1.chi")
    cover = get_cover(cover_id)
    _, _, triv, _ = get_representation("as_p2_m1.triv")
    filt = filt_of(cover)
    both = diagonal_sum(chi, triv)
    assert swan_conductor(both, filt).breaks == ((Fraction(0), 1), (Fraction(1), 1))


def test_swan_group_mismatch():
    _, _, rep, _ = get_representation("as_p2_m1.chi")
    other = filt_of(get_cover("as_p3_m1"))
    with pytest.raises(GroupMismatch):
        swan_conductor(rep, other)


def test_images_that_do_not_generate_the_group_are_refused():
    # The tower group Z/2 x Z/3 with an image at sigma alone, which
    # generates only Z/2; with tau's image too the walk reaches every element.
    group = deck_group("tower", 2, 3)
    sign = MatrixFF(F7, 1, [6])
    with pytest.raises(NotAHomomorphism, match="given generators do not generate the group"):
        Representation(group, {"sigma": sign})
    rep = Representation(group, {"sigma": sign, "tau": MatrixFF(F7, 1, [2])})  # 2 has order 3 mod 7
    assert None not in rep.images


def test_a_representation_in_the_residue_characteristic_is_refused():
    # Z/2 on F_2^2 by a unipotent matrix: ell = p = 2, so Swan is undefined.
    cover = get_cover("as_p2_m1")
    filt = filt_of(cover)
    rep = Representation(cover.group, {"sigma": MatrixFF(field_create(2, 1), 2, [1, 1, 0, 1])})
    for swan in (swan_conductor, swan_single_break):
        with pytest.raises(PreconditionFailed, match="coefficient characteristic must differ from p"):
            swan(rep, filt)


def test_single_break_formula():
    for rep_id, expected in (
        ("as_p2_m1.chi", Fraction(1)),
        ("as_p2_m3.chi", Fraction(3)),
        ("tower_z6.chi_wild", Fraction(1)),
    ):
        cover_id, _, rep, _ = get_representation(rep_id)
        cover = get_cover(cover_id)
        filt = filt_of(cover)
        value = swan_single_break(rep, filt)
        assert value == expected == swan_conductor(rep, filt).swan
        assert value == herbrand_phi(filt).evaluate(filt.positive_jumps()[0]) * rep.r


def test_single_break_preconditions():
    cover_id, _, chi, _ = get_representation("as_p2_m1.chi")
    cover = get_cover(cover_id)
    _, _, triv, _ = get_representation("as_p2_m1.triv")
    filt = filt_of(cover)
    with pytest.raises(PreconditionFailed):
        swan_single_break(diagonal_sum(chi, triv), filt)
    tame_cover_id, _, tame_rep, _ = get_representation("kummer_p3_m2.chi")
    tame_cover = get_cover(tame_cover_id)
    tame_filt = filt_of(tame_cover)
    with pytest.raises(PreconditionFailed):
        swan_single_break(tame_rep, tame_filt)


# -- the per-jump rational forms, kept as oracles of the integer-numerator ones --


def swan_route_one_per_jump(rep, filt):
    """Swan route one with a rational per run of equal G_i:
    (u - prev) * Fraction(|G_u|, |G_0|) * (r - dim V^{G_u})."""
    g0, jumps = filt.order_at(0), filt.positive_jumps()
    dims = [rep.fixed_dim(filt.subgroup_at(u)) for u in jumps]
    return sum(
        ((u - prev) * Fraction(filt.order_at(u), g0) * (rep.r - dim)
         for prev, u, dim in zip([0, *jumps], jumps, dims)),
        Fraction(0),
    )


def unit_slopes_per_jump(filt):
    """Fraction(|G_i|, |G_0|) for each unit segment (i - 1, i]."""
    g0 = filt.order_at(0)
    return [Fraction(filt.order_at(i), g0) for i in range(1, filt.i_max + 2)]


def phi_vertices_per_jump(filt):
    """phi's vertices, each run adding (u - u0) * Fraction(|G_u|, |G_0|)."""
    g0 = filt.order_at(0)
    vertex_us = set(filt.positive_jumps()) | ({1} if g0 != filt.order_at(1) else set())
    points = [(Fraction(0), Fraction(0))]
    for u in sorted(vertex_us):
        u0, v0 = points[-1]
        points.append((Fraction(u), v0 + (u - u0) * Fraction(filt.order_at(u), g0)))
    return tuple(points)


def _check_rational_forms(filt, reps):
    """The integer-numerator forms (``herbrand_phi``, the ``herbrand``
    report's unit slopes, Swan route one, the single-break value) equal the
    per-jump rational forms and the unit differences phi(i) - phi(i - 1)."""
    phi = herbrand_phi(filt)
    steps = [phi.evaluate(i) - phi.evaluate(i - 1) for i in range(1, filt.i_max + 2)]
    assert phi.breakpoints == phi_vertices_per_jump(filt)
    assert cli._herbrand_payload(filt)["phi"]["unit_slopes"] == unit_slopes_per_jump(filt) == steps
    for rep in reps:
        swan = swan_conductor(rep, filt).swan
        by_index = sum(
            (step * (rep.r - rep.fixed_dim(filt.subgroup_at(i))) for i, step in enumerate(steps, 1)),
            Fraction(0),
        )
        assert swan == swan_route_one_per_jump(rep, filt) == by_index
        try:
            single = swan_single_break(rep, filt)
        except PreconditionFailed:
            continue
        (u,) = filt.positive_jumps()
        assert single == Fraction(filt.order_at(u), filt.order_at(0)) * u * rep.r == swan


@pytest.mark.parametrize("cover_id", cover_ids())
def test_integer_numerator_forms_match_the_per_jump_rationals_on_the_corpus(cover_id):
    """On G's filtration, and on a tower's H and tame layer too, with every
    corpus representation of the cover and a trivial one of rank 2."""
    cover = get_cover(cover_id)
    reps = [get_representation(rep_id)[2] for rep_id in rep_ids() if get_representation(rep_id)[0] == cover_id]
    reps.append(Representation(cover.group, every_image(cover.group, [MatrixFF.identity(F7, 2)] * cover.group.n)))
    _check_rational_forms(filt_of(cover), reps)
    if cover.intermediate is not None:
        _check_rational_forms(tower_filtrations(cover)[1], reps)
        _check_rational_forms(filt_of(cover.intermediate.lower), [])


def _element_of_order(n, ell):
    return next(x for x in range(2, ell) if min(d for d in range(1, ell) if pow(x, d, ell) == 1) == n)


@st.composite
def cyclic_break_tables(draw):
    """Z/n, n = p^k * m, gcd(m, p) = 1: i = 1 off the p-Sylow and i = a_j on
    its elements of order p^j, a_1 >= a_2 >= ... >= 2; with a diagonal sum
    of powers of a faithful character over F_ell, n | ell - 1."""
    p = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 4 if p == 2 else 3))
    m = draw(st.sampled_from((1, 3) if p == 2 else (1, 2)))
    a = sorted(draw(st.lists(st.integers(2, 40), min_size=k, max_size=k)), reverse=True)
    exponents = draw(st.lists(st.integers(0, p ** k * m - 1), min_size=1, max_size=3))
    return p, k, m, a, exponents


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclic_break_tables())
def test_integer_numerator_forms_match_the_per_jump_rationals_on_cyclic_break_tables(case):
    p, k, m, a, exponents = case
    n, ell = p ** k * m, (97 if p == 2 else 163)
    group = FiniteGroup.cyclic(n, "g")
    i_map = {}
    for x in range(1, n):
        order = n // math.gcd(x, n)
        j = next((j for j in range(1, k + 1) if order == p ** j), None)
        i_map[x] = 1 if j is None else a[j - 1]
    filt = filtration_from_breaks(BreakTable(group, i_map), p)
    field, zeta = field_create(ell, 1), _element_of_order(n, ell)
    r = len(exponents)
    diagonal = [pow(zeta, exponents[i], ell) if i == j else 0 for i in range(r) for j in range(r)]
    _check_rational_forms(filt, [Representation(group, {"g": MatrixFF(field, r, diagonal)})])


def test_representation_validation():
    group = FiniteGroup.cyclic(2, "sigma")
    with pytest.raises(NotAHomomorphism):
        character(group, F7, "sigma", 2)  # order 3 image of an order-2 element
    chi = character(group, F7, "sigma", 6)
    assert is_faithful(chi)


# -- tower statements -------------------------------------------------------------


def test_transitivity_z6_and_z10():
    for cover_id in ("tower_z6", "tower_z10"):
        report = transitivity(get_cover(cover_id))
        assert all(r == 0 for r in report.residuals)
        assert Fraction(0) in report.points
        assert report.quotient_matches


def test_transitivity_degenerate_layers():
    # Trivial tame layer: phi_full == phi_upper.
    from ramify.covers import build_compositum_tower
    from ramify.series import LaurentSeries

    tower = build_compositum_tower(F2, 1, LaurentSeries.monomial(F2, 1, -1), prec=16)
    report = transitivity(tower)
    assert all(r == 0 for r in report.residuals)
    # Trivial wild layer: restricting to the full group makes phi_upper the
    # identity and the composite collapses to the tame side.
    cover = get_cover("tower_z6")
    bt = lower_break_table(cover)
    filt = filtration_from_breaks(bt, cover.p)
    phi_full = herbrand_phi(filt)
    bt_h = BreakTable(bt.group, {g: v for g, v in bt.i_map.items() if g in range(cover.group.n)})
    assert herbrand_phi(filtration_from_breaks(bt_h, cover.p)) == phi_full


def test_quotient_filtration_matches_tame_layer():
    cover = get_cover("tower_z6")
    bt = lower_break_table(cover)
    filt = filtration_from_breaks(bt, cover.p)
    bt_h = BreakTable(bt.group, {g: v for g, v in bt.i_map.items() if g in cover.intermediate.H_indices})
    phi_h = herbrand_phi(filtration_from_breaks(bt_h, cover.p))
    quot = quotient_filtration_by_herbrand(filt, cover.intermediate.H_indices, phi_h)
    direct = filt_of(cover.intermediate.lower)
    assert [len(s) for s in quot.subgroups] == [len(s) for s in direct.subgroups]


def test_pullback_bound_on_towers():
    for rep_id, sw, deg in (
        ("tower_z6.chi_wild", 1, 3),
        ("tower_z6.chi_faithful", 1, 3),
        ("tower_z6.chi_tame", 0, 3),
        ("tower_z10.chi_wild", 1, 2),
        ("tower_z10.chi_faithful", 1, 2),
    ):
        cover_id, _, rep, _ = get_representation(rep_id)
        cover = get_cover(cover_id)
        report = pullback(cover, rep)
        assert report.sw_base == sw
        assert report.degree == deg
        assert report.holds and report.equality
        assert report.sw_prime == deg * sw


def test_pullback_trivial_rep_and_degree_one():
    cover_id, _, triv, _ = get_representation("tower_z6.triv")
    cover = get_cover(cover_id)
    report = pullback(cover, triv)
    assert report.sw_base == report.sw_prime == 0 and report.holds

    from ramify.covers import build_compositum_tower
    from ramify.series import LaurentSeries

    degenerate = build_compositum_tower(F2, 1, LaurentSeries.monomial(F2, 1, -1), prec=16)
    chi = character(degenerate.group, F3, "sigma", 2)
    report = pullback(degenerate, chi)
    assert report.degree == 1
    assert report.sw_base == report.sw_prime == 1


def test_pullback_checks_every_representation_before_the_break_data(monkeypatch):
    cover = get_cover("tower_z6")
    filt, filt_h = tower_filtrations(cover)
    other_cover_id, _, other, _ = get_representation("tower_z10.chi_wild")
    other_cover = get_cover(other_cover_id)
    _, _, rep, _ = get_representation("tower_z6.chi_wild")
    # A filtration pair from another tower is refused, by the restricted rep too.
    other_filt, other_filt_h = tower_filtrations(other_cover)
    with pytest.raises(GroupMismatch, match="different groups"):
        pullback_bound_check(cover, rep, other_filt, filt_h)
    with pytest.raises(GroupMismatch, match="different groups"):
        pullback_bound_check(cover, rep, filt, other_filt_h)
    # G's labels with another table: the cyclic law on the indices 0..5.
    cyclic = FiniteGroup([[(a + b) % 6 for b in range(6)] for a in range(6)], filt_h.group.labels)
    assert cyclic.mul != cover.group.mul
    with pytest.raises(GroupMismatch, match="different groups"):
        pullback_bound_check(cover, rep, filt, filt_h._replace(group=cyclic))
    # Both filtrations are on G's table, so G's and H's in the wrong places are refused.
    for pair in ((filt, filt), (filt_h, filt_h), (filt_h, filt)):
        with pytest.raises(GroupMismatch, match="not those of G and H"):
            pullback_bound_check(cover, rep, *pair)

    def no_break_data(*args):
        raise AssertionError("break data formed before the checks")

    monkeypatch.setattr(ramification, "lower_break_table", no_break_data)
    with pytest.raises(GroupMismatch, match="not on the cover group"):
        pullback_bound_check(cover, other, filt, filt_h)
    # The marked field is checked before the group, and before any break table.
    with pytest.raises(PreconditionFailed, match="no marked intermediate field"):
        pullback_bound_check(get_cover("as_p2_m1"), other, filt, filt_h)
    with pytest.raises(PreconditionFailed, match="no marked intermediate field"):
        tower_filtrations(get_cover("as_p2_m1"))
    with pytest.raises(PreconditionFailed, match="no marked intermediate field"):
        phi_transitivity_check(get_cover("as_p2_m1"), filt, filt_h, filt)


def test_herbrand_function_evaluation_guard():
    hf = HerbrandFunction([(0, 0), (1, 1)], Fraction(1, 2))
    with pytest.raises(ValueError):
        hf.evaluate(-1)


# -- homomorphism check on generators against the full n^2 scan ----------------


def _full_scan_is_homomorphism(group, images):
    return all(
        images[group.mul[a][b]] == images[a] * images[b]
        for a in range(group.n)
        for b in range(group.n)
    )


def _monomial_rep_images(p, m, ell):
    """Z/p x| Z/m as monomial m x m matrices over F_ell (m | p - 1, p | ell - 1)."""
    field = field_create(ell, 1)
    a = next(x for x in range(2, p) if pow(x, m, p) == 1 and all(pow(x, k, p) != 1 for k in range(1, m)))
    zeta = next(z for z in range(2, ell) if pow(z, p, ell) == 1)
    a_inv = pow(a, -1, p)
    sigma = [pow(zeta, pow(a_inv, i, p), ell) if i == j else 0 for i in range(m) for j in range(m)]
    tau = [1 if i == (j + 1) % m else 0 for i in range(m) for j in range(m)]
    gens = [MatrixFF(field, m, sigma), MatrixFF(field, m, tau)]
    from ramify.groups import group_closure

    group = group_closure(gens)
    return group, list(group.matrices)


def _rep_cases():
    from ramify.groups import enumerate_gl

    gl2 = FiniteGroup.from_matrices(enumerate_gl(F3, 2))
    yield "gl2_f3_natural", gl2, list(gl2.matrices)
    for p, m, ell in ((7, 3, 29), (5, 4, 11), (3, 2, 7)):
        group, images = _monomial_rep_images(p, m, ell)
        yield f"z{p}_z{m}", group, images
    z6 = FiniteGroup.cyclic(6, "g")
    yield "z6_character", z6, [MatrixFF(F7, 1, [pow(3, k, 7)]) for k in range(6)]


@pytest.mark.parametrize("name", ["gl2_f3_natural", "z7_z3", "z5_z4", "z3_z2", "z6_character"])
def test_generator_check_agrees_with_full_scan(name):
    import random

    group, images = next((g, im) for n, g, im in _rep_cases() if n == name)
    assert _full_scan_is_homomorphism(group, images)
    Representation(group, every_image(group, images))
    rng = random.Random(name)
    for _ in range(4):
        corrupted = list(images)
        i, j = rng.sample(range(group.n), 2)
        if rng.random() < 0.5:
            corrupted[i], corrupted[j] = corrupted[j], corrupted[i]
        else:
            corrupted[i] = corrupted[i] * corrupted[j]
        if corrupted[i] == images[i] and corrupted[j] == images[j]:
            continue
        assert not _full_scan_is_homomorphism(group, corrupted)
        with pytest.raises(NotAHomomorphism, match="generator images are inconsistent"):
            Representation(group, every_image(group, corrupted))


@pytest.mark.parametrize("rep_id", rep_ids())
def test_corpus_representations_keep_the_deleted_invariants(rep_id):
    """Oracles for two checks proven needless: every image is invertible,
    and the break multiplicities add up to the rank."""
    cover_id, _, rep, _ = get_representation(rep_id)
    cover = get_cover(cover_id)
    assert all(m.is_invertible() for m in rep.images)
    assert sum(mult for _, mult in swan_conductor(rep, filt_of(cover)).breaks) == rep.r


def test_accepted_images_are_invertible_and_a_singular_one_is_refused():
    for name, group, images in _rep_cases():
        assert all(m.is_invertible() for m in Representation(group, every_image(group, images)).images), name
        zero = MatrixFF(images[0].field, images[0].n, [0] * images[0].n ** 2)
        for i in (group.identity, group.n - 1):
            with pytest.raises(NotAHomomorphism, match="generator images are inconsistent"):
                Representation(group, every_image(group, [zero if j == i else m for j, m in enumerate(images)]))
    # A singular idempotent on every element satisfies the law; only the
    # identity's image gives it away.
    z2 = FiniteGroup.cyclic(2, "sigma")
    idem = MatrixFF(F7, 2, [1, 0, 0, 0])
    assert _full_scan_is_homomorphism(z2, [idem, idem])
    with pytest.raises(NotAHomomorphism, match="generator images are inconsistent"):
        Representation(z2, every_image(z2, [idem, idem]))


def test_trivial_group_image_must_be_identity():
    trivial = FiniteGroup.cyclic(1, "sigma")
    bad = [MatrixFF(F7, 1, [2])]
    assert not _full_scan_is_homomorphism(trivial, bad)
    with pytest.raises(NotAHomomorphism, match="generator images are inconsistent"):
        Representation(trivial, every_image(trivial, bad))
    good = Representation(trivial, every_image(trivial, [MatrixFF(F7, 1, [1])]))
    assert is_faithful(good)


def test_every_generator_is_checked():
    # On Z/2 x Z/2 = <g1, g2>, g1^a g2^b -> A^a B^b with A of order 2 and B of
    # order 3 is multiplicative along g1 and fails only along g2.
    group = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    g1, g2 = group.generators()
    a_mat = MatrixFF(F7, 2, [6, 0, 0, 1])
    b_mat = MatrixFF(F7, 2, [2, 0, 0, 1])
    images = [None] * 4
    for a in range(2):
        for b in range(2):
            x = group.identity
            for _ in range(a):
                x = group.mul[x][g1]
            for _ in range(b):
                x = group.mul[x][g2]
            images[x] = (a_mat ** a) * (b_mat ** b)
    assert all(images[group.mul[x][g1]] == images[x] * images[g1] for x in range(4))
    assert not _full_scan_is_homomorphism(group, images)
    with pytest.raises(NotAHomomorphism, match="generator images are inconsistent"):
        Representation(group, every_image(group, images))



# -- generator images: the walk is the one law check -----------------------------


def _counting_products(monkeypatch):
    calls = []
    product = MatrixFF.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted)
    return calls


def test_generator_images_refuse_an_empty_map():
    with pytest.raises(NotAHomomorphism, match="at least one generator image"):
        Representation(FiniteGroup.cyclic(2, "sigma"), {})


def test_generator_images_of_mixed_shape_or_field_raise_in_the_first_products():
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2, "a"), FiniteGroup.cyclic(2, "b"))
    minus_one = MatrixFF(F7, 1, [6])
    with pytest.raises(DimensionMismatch):
        Representation(v4, {"a": minus_one, "b": MatrixFF(F7, 2, [6, 0, 0, 1])})
    with pytest.raises(FieldMismatch):
        Representation(v4, {"a": minus_one, "b": MatrixFF(F3, 1, [2])})


def _generator_image_cases():
    """Seeded random conjugates of the ``_rep_cases`` representations, given
    on the greedy generators and two random further elements."""
    from ramify.groups import _random_invertible

    rng = random.Random(26)
    for name, group, images in _rep_cases():
        c = _random_invertible(images[0].field, images[0].n, rng)
        ci = c.inverse()
        conj = [c * m * ci for m in images]
        given = set(group.generators()) | set(rng.sample(range(group.n), 2))
        yield name, group, conj, {group.labels[g]: conj[g] for g in sorted(given)}


@pytest.mark.parametrize("name", ["gl2_f3_natural", "z7_z3", "z5_z4", "z3_z2", "z6_character"])
def test_generator_image_reps_pass_the_full_law_scan_at_one_product_per_generator(name, monkeypatch):
    group, conj, gen_images = next((g, c, gi) for n, g, c, gi in _generator_image_cases() if n == name)
    calls = _counting_products(monkeypatch)
    rep = Representation(group, gen_images)
    # The two further elements are reached from the greedy generators, so
    # only those are walked, and the further images are compared by key.
    assert len(calls) == group.n * len(group.generators()) < group.n * len(gen_images)
    monkeypatch.undo()
    assert rep.images == tuple(conj)
    assert _full_scan_is_homomorphism(group, rep.images)


def test_the_work_cap_counts_the_generators_walked_and_comes_before_any_product(monkeypatch):
    # Z/4 over F_5 at rank 128, sigma -> 2: one generator walked is work
    # 4 * 1 * 128^3 = 2^23, the cap, and is admitted.  Given sigma^2 and
    # sigma^3, the greedy choice walks both (sigma^2 does not reach sigma^3):
    # work 2^24, refused before any product.
    z4 = FiniteGroup.cyclic(4, "sigma")
    F5 = field_create(5, 1)
    scalar = {k: MatrixFF(F5, 128, [pow(2, k, 5) if i == j else 0 for i in range(128) for j in range(128)])
              for k in range(4)}
    assert 4 * 128 ** 3 == ramification.REP_WORK_CAP
    calls = _counting_products(monkeypatch)
    rep = Representation(z4, {"sigma": scalar[1], "sigma^3": scalar[3]})
    assert len(calls) == 4 and rep.images == tuple(scalar[k] for k in range(4))
    calls.clear()
    with pytest.raises(SizeCapExceeded, match="'rep.r'"):
        Representation(z4, {"sigma^2": scalar[2], "sigma^3": scalar[3]})
    assert not calls


def test_random_characters_are_accepted_exactly_when_multiplicative():
    rng = random.Random(5)
    accepted = refused = 0
    for _ in range(40):
        n, x = rng.choice((2, 3, 5, 6)), rng.randrange(7)
        group = FiniteGroup.cyclic(n, "g")
        try:
            rep = Representation(group, {"g": MatrixFF(F7, 1, [x])})
        except NotAHomomorphism:
            refused += 1
            assert pow(x, n, 7) != 1
        else:
            accepted += 1
            assert pow(x, n, 7) == 1 and _full_scan_is_homomorphism(group, rep.images)
    assert accepted and refused


@pytest.mark.parametrize("rep_id", rep_ids())
def test_corpus_representations_pass_the_full_law_scan(rep_id):
    _, _, rep, _ = get_representation(rep_id)
    assert _full_scan_is_homomorphism(rep.group, rep.images)
    assert rep.images[rep.group.identity] == MatrixFF.identity(rep.field, rep.r)


def test_pullback_restriction_makes_no_law_check_product(monkeypatch):
    pairs = [(get_cover(c), rep) for c, _, rep, _ in map(get_representation, rep_ids(kinds=("tower",)))]
    filts = {cover: tower_filtrations(cover) for cover, _ in pairs}
    calls = _counting_products(monkeypatch)
    reports = [pullback_bound_check(cover, rep, *filts[cover]) for cover, rep in pairs]
    assert calls == []
    assert all(report.equality for report in reports)

import math
import random
import sys
import time

import pytest

from ramify.bounds import (
    FACTORIAL_CAP,
    DecompositionData,
    ExplicitConstants,
    claim1_check,
    decomposition_counts,
    explicit_constants,
    inertia_structure,
    jordan_bound,
    star_kernel_check,
    tameizing_subgroup,
    wild_order_bound_check,
)
from ramify.corpus import get_representation, rep_ids
from ramify.covers import build_artin_schreier, lower_break_table
from ramify.errors import (
    ComplementNotFound,
    InconsistentCounts,
    NoBoundConfigured,
    NoSuchQuotient,
    NotAGroup,
    OverflowPolicyExceeded,
    PreconditionFailed,
    PSylowNotNormal,
    QuotientNotCyclic,
)
from ramify.fields import field_create
from ramify.groups import FiniteGroup, group_closure, inertia_candidate_sample
from ramify.linalg import MatrixFF
from ramify.ramification import Representation, filtration_from_breaks
from ramify.series import LaurentSeries

F3 = field_create(3, 1)
F5 = field_create(5, 1)
F7 = field_create(7, 1)


def s3_in_gl2_f7():
    gens = [
        MatrixFF.from_int_rows(F7, [[0, 1], [1, 0]]),
        MatrixFF.from_int_rows(F7, [[0, 6], [1, 6]]),
    ]
    return list(group_closure(gens).matrices)


def mu_n_matrices(field, n):
    zeta = field.root_of_unity(n)
    return [MatrixFF(field, [[zeta ** k]]) for k in range(n)]


def test_inertia_structure_sign_group():
    elems = mu_n_matrices(F3, 2)  # {1, -1} in GL_1(F_3)
    st = inertia_structure(elems, p=2)
    assert st.P_order == 2 and st.M == 1 and st.n == 0 and st.M_prime == 1


def test_inertia_structure_s3():
    st = inertia_structure(s3_in_gl2_f7(), p=3)
    assert st.group.n == 6
    assert st.P_order == 3
    assert st.M == 2 and st.n == 0  # ell = 7 does not divide 2


def test_inertia_structure_tame_cyclic():
    elems = mu_n_matrices(F5, 4)
    st = inertia_structure(elems, p=3)
    assert st.P_order == 1 and st.M == 4


def test_inertia_structure_rejects_bad_shapes():
    swap = MatrixFF.from_int_rows(F7, [[0, 1], [1, 0]])
    with pytest.raises(NotAGroup):
        inertia_structure([MatrixFF.identity(F7, 2), swap,
                           MatrixFF.from_int_rows(F7, [[1, 1], [0, 1]])], p=3)
    # S_3 with p = 2: the three transpositions do not form a subgroup.
    with pytest.raises(PSylowNotNormal):
        inertia_structure(s3_in_gl2_f7(), p=2)
    # Klein four group inside GL_2(F_3), p = 5: quotient is not cyclic.
    one, minus = F3.one(), -F3.one()
    zero = F3.zero()
    klein = [
        MatrixFF(F3, [[a, zero], [zero, b]])
        for a in (one, minus)
        for b in (one, minus)
    ]
    with pytest.raises(QuotientNotCyclic):
        inertia_structure(klein, p=5)
    with pytest.raises(PreconditionFailed):
        inertia_structure(mu_n_matrices(F3, 2), p=3)  # p equals ell


def test_claim1_check_examples():
    st = inertia_structure(mu_n_matrices(F5, 4), p=3)  # n = 0: vacuous
    assert claim1_check(st)
    # Jordan block of size 3 over F_2 has order 4; 2^(2-1) <= 3.
    F2 = field_create(2, 1)
    jordan = MatrixFF.from_int_rows(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    grp = group_closure([jordan])
    assert grp.n == 4
    st2 = inertia_structure(list(grp.matrices), p=3)
    assert st2.n == 2  # M = 4 = 2^2 with ell = 2
    assert claim1_check(st2)  # r = 3, the size of the matrices


def test_tameizing_z6():
    field = F7
    elems = mu_n_matrices(field, 6)
    st = inertia_structure(elems, p=3)
    assert st.P_order == 3 and st.M == 2
    report = tameizing_subgroup(st)
    assert report.H_order == 2
    assert report.index_tame == 3
    assert report.alpha_image_order == 1


def test_tameizing_s3():
    st = inertia_structure(s3_in_gl2_f7(), p=3)
    report = tameizing_subgroup(st)
    assert report.H_order == 1
    assert report.index_tame == 6
    assert report.alpha_image_order == 2


def test_tameizing_trivial_complement():
    st = inertia_structure(mu_n_matrices(F3, 2), p=2)  # M = 1
    report = tameizing_subgroup(st)
    assert report.H_order == 1
    assert report.index_tame == st.P_order == 2


def test_tameizing_subgroup_is_a_subgroup_of_dividing_order():
    """Oracle for the subgroup and index tests that tameizing_subgroup proves
    needless: H is its own closure, and |H| divides |I|."""
    structures = []
    for rep_id in rep_ids():
        cover, rep, _ = get_representation(rep_id)
        structures.append(inertia_structure(rep.images, cover.p))
    for r, ell, n, p in ((2, 3, 1, 2), (2, 2, 1, 3), (2, 5, 1, 3), (2, 7, 1, 3), (1, 3, 2, 2)):
        for seed in range(3):
            for g in inertia_candidate_sample(r, ell, n, p, count=3, seed=seed):
                structures.append(inertia_structure(list(g.matrices), p))
    assert len(structures) > 50
    for st in structures:
        tame = tameizing_subgroup(st)
        h = frozenset(tame.H_indices)
        assert st.group.closure(h) == h
        assert tame.index_tame * tame.H_order == st.group.n


@pytest.mark.parametrize("rep_id", rep_ids())
def test_inertia_structure_of_all_images_equals_that_of_the_distinct_images(rep_id):
    """Oracle for the deleted ``image_matrices``: ``from_matrices`` removes
    the repeated images itself, so ``rep.images`` and the distinct images in
    key order give the same structure."""
    cover, rep, _ = get_representation(rep_id)
    distinct = {m.key(): m for m in rep.images}
    st = inertia_structure(rep.images, cover.p)
    oracle = inertia_structure([distinct[k] for k in sorted(distinct)], cover.p)
    assert st.group.mul == oracle.group.mul
    assert [m.key() for m in st.group.matrices] == sorted(distinct)
    assert (st.P_indices, st.M, st.n) == (oracle.P_indices, oracle.M, oracle.n)


def test_explicit_constants_reference_values():
    ec = explicit_constants(1, 3, 2, 1, 1)
    assert ec.N_prime == 2
    assert ec.M0 == 9
    assert ec.M_crude == 362880


def test_explicit_constants_zero_swan():
    ec = explicit_constants(2, 3, 2, 0, 5)
    assert ec.N_prime == 0
    assert ec.M0 == 2 * 5
    assert ec.M_crude == math.factorial(10)


def test_explicit_constants_overflow_policy():
    ec = explicit_constants(1, 2, 3, 5, 1)  # N' = 15, M0 = 2^15
    assert ec.M_crude is None and ec.M0 == 2 ** 15
    assert ec.crude_at_least(10 ** 100)


def test_crude_at_least_is_exact():
    # The running product against math.factorial(M0) >= value, the exact
    # comparison it replaces, whether M_crude is exact or symbolic.
    for m0 in range(61):
        fact = math.factorial(m0)
        grid = list(range(-2, 50)) + [math.factorial(k) + d for k in range(62) for d in (-1, 0, 1)]
        for value in grid + [2 * fact, 2 ** fact.bit_length()]:
            expected = fact >= value
            assert ExplicitConstants(0, m0, None).crude_at_least(value) is expected
            assert ExplicitConstants(0, m0, fact).crude_at_least(value) is expected
    # A symbolic M0 past FACTORIAL_CAP: explicit_constants(1, 71, 2, 1, 1) has M0 = 71^2.
    ec = explicit_constants(1, 71, 2, 1, 1)
    assert ec.M0 == 5041 > FACTORIAL_CAP and ec.M_crude is None
    fact = math.factorial(ec.M0)
    for value in (1, fact // ec.M0, fact - 1, fact, fact + 1, 10 ** 20000):
        assert ec.crude_at_least(value) is (fact >= value)
    # The descriptor case of explicit_constants: M0 = 2^15, M0! stays symbolic.
    ec = explicit_constants(1, 2, 3, 5, 1)
    assert ec.M_crude is None
    for k in (2, 10, 100, 1000):
        assert ec.crude_at_least(math.factorial(k))
        assert ec.crude_at_least(math.factorial(k) + 1)
    assert ec.crude_at_least(2 ** 15)
    assert ec.crude_at_least(10 ** 5000)
    # A lower bound such as M0! >= 2^(M0 - 1) would answer no to the first.
    small = ExplicitConstants(0, 20, None)
    assert small.crude_at_least(math.factorial(20))
    assert not small.crude_at_least(math.factorial(20) + 1)


def test_explicit_constants_rank_two_with_supplied_bound():
    # Straight formula evaluation with a user-supplied rank-2 bound.
    ec = explicit_constants(2, 3, 2, 1, 12)
    assert ec.N_prime == 2 * 2 * 12 * 1 == 48
    assert ec.M0 == 2 * 3 ** 48 * 12
    assert ec.M_crude is None


def test_explicit_constants_monotone():
    base = explicit_constants(1, 3, 2, 1, 1)
    for kwargs in ({"r": 2}, {"N": 2}, {"J": 2}):
        args = {"r": 1, "p": 3, "ell": 2, "N": 1, "J": 1}
        args.update(kwargs)
        bigger = explicit_constants(args["r"], args["p"], args["ell"], args["N"], args["J"])
        assert bigger.N_prime >= base.N_prime
        assert bigger.M0 >= base.M0


def test_jordan_bound_table():
    assert jordan_bound(1) == 1
    assert jordan_bound(2, {2: 12}) == 12
    with pytest.raises(NoBoundConfigured):
        jordan_bound(5)
    with pytest.raises(NoBoundConfigured):
        jordan_bound(2, {2: 0})


@pytest.mark.parametrize("rep_id", rep_ids())
def test_wild_order_bound_on_corpus(rep_id):
    cover, rep, big_n = get_representation(rep_id)
    filt = filtration_from_breaks(lower_break_table(cover), cover.p)
    st = inertia_structure(rep.images, cover.p)
    report = wild_order_bound_check(st, filt, rep, big_n)
    assert report.ok
    assert report.constants == explicit_constants(rep.r, cover.p, st.ell, big_n, jordan_bound(rep.r))
    assert report.jumps_visible <= report.swan <= big_n
    assert report.P_order <= report.torus_bound
    assert report.linear_bound_holds  # rank-1 corpus: the linear form also holds
    tame = tameizing_subgroup(st)
    h_mats = {st.group.matrices[i].key() for i in tame.H_indices}
    image_order = len({m.key() for m in rep.images} & h_mats)
    assert math.gcd(image_order, cover.p) == 1 and image_order == tame.H_order


def test_wild_order_bound_rejects_large_swan():
    cover, rep, _ = get_representation("as_p2_m3.chi")
    filt = filtration_from_breaks(lower_break_table(cover), cover.p)
    st = inertia_structure(rep.images, cover.p)
    with pytest.raises(PreconditionFailed):
        wild_order_bound_check(st, filt, rep, N=1)


@pytest.fixture
def digit_limit_4300():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_explicit_constants_refuses_a_long_M0_before_the_power(digit_limit_4300):
    # M0 = 3^(7 * 10^6): forming it would take seconds; the bit count alone refuses it.
    start = time.perf_counter()
    with pytest.raises(OverflowPolicyExceeded) as err:
        explicit_constants(1, 3, 7, 10 ** 6, 1)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "constants.M0 has more than 4300 decimal digits"


def test_explicit_constants_digit_guard_is_sound(digit_limit_4300):
    # p = 2, ell = 3: M0 = 2^(3N).  The guard refuses only an M0 of more than
    # 4300 digits, and it lets through the largest 3N below 4300 * log2(10).
    refused = []
    for big_n in range(4755, 4770):
        try:
            assert explicit_constants(1, 2, 3, big_n, 1).M0 == 2 ** (3 * big_n)
        except OverflowPolicyExceeded:
            assert 2 ** (3 * big_n) >= 10 ** 4300
            refused.append(big_n)
    assert refused == list(range(4762, 4770))


def _as_rep(p, m, ell, value, r=1):
    """(filtration, rep) of y^p - y = t^-m over F_p, with sigma -> value * I_r
    in GL_r(F_ell): r copies of one character."""
    field = field_create(p, 1)
    cover = build_artin_schreier(field, LaurentSeries.monomial(field, field.one(), -m), prec=32)
    scalar = [[value if i == j else 0 for j in range(r)] for i in range(r)]
    rep = Representation(
        cover.group, {"sigma": MatrixFF.from_int_rows(field_create(ell, 1), scalar)}
    )
    return filtration_from_breaks(lower_break_table(cover), p), rep


def test_wild_order_refusals_come_before_the_digit_guard(digit_limit_4300):
    # Sw = 2 with ell = 65521: N' = 65521 N passes the digit limit at N = 1,
    # but Sw > N is reported first; at N = 2 the guard refuses M0.
    filt, rep = _as_rep(3, 2, 65521, pow(17, 65520 // 3, 65521))
    st = inertia_structure(rep.images, 3)
    with pytest.raises(PreconditionFailed, match="exceeds N = 1"):
        wild_order_bound_check(st, filt, rep, 1)
    with pytest.raises(OverflowPolicyExceeded, match="constants.M0"):
        wild_order_bound_check(st, filt, rep, 2)
    # Rank 2 has no default Jordan bound: that is reported before the guard.
    filt, rep = _as_rep(3, 1, 7, 2, r=2)
    st = inertia_structure(rep.images, 3)
    with pytest.raises(NoBoundConfigured):
        wild_order_bound_check(st, filt, rep, 10 ** 6)
    with pytest.raises(OverflowPolicyExceeded, match="constants.M0"):
        wild_order_bound_check(st, filt, rep, 10 ** 6, jordan_table={2: 1})
    report = wild_order_bound_check(st, filt, rep, 2, jordan_table={2: 1})
    assert report.constants == explicit_constants(2, 3, 7, 2, 1)
    assert report.constants.M0 == 2 * 3 ** 28


def test_decomposition_counts_examples():
    report = decomposition_counts(
        DecompositionData(order_I=12, t=2, e=3, f_sep=2, f_insep=1, p=5)
    )
    assert report.order_IC == 3 and report.tame

    report2 = decomposition_counts(
        DecompositionData(order_I=8, t=1, e=2, f_sep=2, f_insep=2, p=2)
    )
    assert report2.order_IC == 4 and not report2.tame

    with pytest.raises(InconsistentCounts):
        decomposition_counts(DecompositionData(order_I=10, t=2, e=3, f_sep=1, f_insep=1, p=5))
    with pytest.raises(InconsistentCounts):
        decomposition_counts(DecompositionData(order_I=36, t=1, e=3, f_sep=2, f_insep=6, p=2))
    with pytest.raises(InconsistentCounts):
        decomposition_counts(DecompositionData(order_I=0, t=1, e=1, f_sep=1, f_insep=1, p=2))


def test_decomposition_counts_random_identity():
    rng = random.Random(99)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        t, e, f_sep = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
        f_insep = p ** rng.randint(0, 2)
        data = DecompositionData(t * e * f_sep * f_insep, t, e, f_sep, f_insep, p)
        report = decomposition_counts(data)
        assert report.order_IC * t * f_sep == data.order_I
        assert report.tame == (f_insep == 1 and math.gcd(e, p) == 1)


def test_star_kernel_z6():
    z6 = FiniteGroup.cyclic(6, "g")
    report = star_kernel_check(z6, range(6), f_sep=3, e=2, f_insep=1, p=2)
    assert report.passes
    assert report.kernel_order == 2
    assert report.kernel_p_sylow_order == 2


def test_star_kernel_fsep_one():
    z6 = FiniteGroup.cyclic(6, "g")
    report = star_kernel_check(z6, range(6), f_sep=1, e=6, f_insep=1, p=5)
    assert report.passes and report.kernel_order == 6


def test_star_kernel_inconsistent_orders():
    z6 = FiniteGroup.cyclic(6, "g")
    with pytest.raises(NoSuchQuotient):
        star_kernel_check(z6, range(6), f_sep=4, e=2, f_insep=1, p=2)


def test_tameizing_consistency_with_crude_bound():
    # When |P| <= M0, the degree of the taming subextension stays below M0!.
    for rep_id in rep_ids():
        cover, rep, big_n = get_representation(rep_id)
        st = inertia_structure(rep.images, cover.p)
        tame = tameizing_subgroup(st)
        ec = explicit_constants(rep.r, cover.p, st.ell, big_n, jordan_bound(rep.r))
        if st.P_order <= ec.M0:
            assert ec.crude_at_least(tame.index_tame)


def test_records_are_immutable_named_tuples():
    from ramify import bounds, groups, ramification

    names = {
        bounds: ("InertiaStructure", "TameizingReport", "ExplicitConstants", "WildOrderReport",
                 "DecompositionData", "CountsReport", "StarKernelReport"),
        ramification: ("RamFiltration", "SwanReport", "PullbackReport", "TransitivityReport"),
        groups: ("AbelianProbeReport",),
    }
    for module, classes in names.items():
        for name in classes:
            cls = getattr(module, name)
            assert issubclass(cls, tuple) and cls._fields, name
    report = bounds.WildOrderReport(*range(9))
    assert report.warnings == () and report.ok == 7
    with pytest.raises(AttributeError):
        report.ok = False
    data = DecompositionData(order_I=12, t=1, e=3, f_sep=2, f_insep=2, p=2)
    assert data._replace(order_I=13).order_I == 13 and data.order_I == 12
    assert ExplicitConstants(3, 24, 6).crude_at_least(6)

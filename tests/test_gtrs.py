import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gtrscodes import (
    GaloisField,
    GTRSError,
    GTRSParams,
    LinearCode,
    TwistSpec,
    alpha_sum,
    code,
    dual_params,
    generator_matrix,
    is_mds_plus,
    plus_dual_euclidean,
    plus_gtrs,
    poly_eval,
    u_vector,
)

from conftest import (encode, exhaustive_class, expand_twisted, field_q2,
                      flipped_block, l_block, parity_formula,
                      systematic_generator)


def subgroup(field, n):
    order = field.order - 1
    assert order % n == 0
    w = field.generator
    return [field.pow(w, (order // n) * i) for i in range(n)]


def random_twist(field, k, n, rng, ell=None):
    ell = ell or rng.randint(1, min(n - k, k))
    t = rng.sample(range(1, n - k + 1), ell)
    h = rng.sample(range(k), ell)
    eta = [rng.randrange(1, field.order) for _ in range(ell)]
    return TwistSpec(k, n, t, h, eta)


def random_subgroup_params(field, k, n, rng):
    alpha = subgroup(field, n)
    v = [rng.randrange(1, field.order) for _ in range(n)]
    return GTRSParams(field, alpha, v, random_twist(field, k, n, rng))


def test_twist_spec_validation():
    TwistSpec(3, 6, [1], [2], [5])
    with pytest.raises(GTRSError):
        TwistSpec(3, 6, [4], [2], [5])       # t out of range
    with pytest.raises(GTRSError):
        TwistSpec(3, 6, [1], [3], [5])       # h out of range
    with pytest.raises(GTRSError):
        TwistSpec(3, 6, [1, 1], [0, 1], [5, 5])
    with pytest.raises(GTRSError):
        TwistSpec(3, 6, [1], [2], [0])       # zero coefficient
    with pytest.raises(GTRSError):
        TwistSpec(6, 6, [1], [2], [5])       # k = n


def test_params_validation(gf7):
    tw = TwistSpec(1, 2, [1], [0], [3])
    GTRSParams(gf7, [1, 2], [1, 1], tw)
    with pytest.raises(GTRSError):
        GTRSParams(gf7, [1, 1], [1, 1], tw)
    with pytest.raises(GTRSError):
        GTRSParams(gf7, [1, 2], [1, 0], tw)
    with pytest.raises(GTRSError):
        GTRSParams(gf7, [1, 2, 3], [1, 1, 1], tw)


def test_expand_twisted(gf7):
    tw = TwistSpec(3, 6, [1], [2], [5])       # single twist at (t,h)=(1,2)
    assert expand_twisted(gf7, tw, [0, 0, 0]) == [0] * 6
    assert expand_twisted(gf7, tw, [0, 0, 1]) == [0, 0, 1, 5, 0, 0]
    assert expand_twisted(gf7, tw, [2, 3, 0]) == [2, 3, 0, 0, 0, 0]
    with pytest.raises(GTRSError):
        expand_twisted(gf7, tw, [1, 2])
    two = TwistSpec(3, 6, [1, 3], [2, 0], [5, 4])
    assert expand_twisted(gf7, two, [1, 0, 1]) == [1, 0, 1, 5, 0, 4]


def test_encode(gf7):
    tw = TwistSpec(2, 4, [1], [1], [3])
    params = GTRSParams(gf7, [1, 2, 3, 4], [1, 1, 1, 1], tw)
    assert encode(params, [0, 0]) == [0, 0, 0, 0]
    assert encode(params, [1, 0]) == [1, 1, 1, 1]
    # f = (0,1) expands to x + 3x^2
    expect = [gf7.add(a, gf7.mul(3, gf7.mul(a, a))) for a in (1, 2, 3, 4)]
    assert encode(params, [0, 1]) == expect
    scaled = GTRSParams(gf7, [1, 2, 3, 4], [2, 2, 2, 2], tw)
    assert encode(scaled, [0, 1]) == [gf7.mul(2, x) for x in expect]


def test_generator_matrix_plus_rows(gf49):
    params = plus_gtrs(gf49, subgroup(gf49, 8), [1] * 8, gf49.generator, 4)
    g = generator_matrix(params)
    assert g.rank() == 4
    f = gf49
    for j, a in enumerate(params.alpha):
        for i in range(3):
            assert g.data[i][j] == f.pow(a, i)
        expect = f.add(f.pow(a, 3), f.mul(params.twist.eta[0], f.pow(a, 4)))
        assert g.data[3][j] == expect


def test_generator_matrix_full_rank_random():
    # the rank fact that generator_matrix's docstring proves: k for every
    # accepted datum, on subgroup locators and on arbitrary distinct ones
    f = field_q2(11)
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice([d for d in (2, 3, 4, 5, 6, 8, 10) if 120 % d == 0])
        k = rng.randint(1, n - 1)
        params = random_subgroup_params(f, k, n, rng)
        assert generator_matrix(params).rank() == k
    multi_at_n_minus_k = 0
    for f in (field_q2(2), GaloisField(2, 3), field_q2(3), field_q2(7)):
        for _ in range(40):
            n = rng.randint(2, min(f.order, 12))
            k = rng.randint(1, n - 1)
            # half the time as many twists as fit, so that t = n - k is
            # often taken
            ell = rng.choice([None, min(k, n - k)])
            alpha = rng.sample(range(f.order), n)
            v = [rng.randrange(1, f.order) for _ in range(n)]
            twist = random_twist(f, k, n, rng, ell)
            multi_at_n_minus_k += twist.ell > 1 and n - k in twist.t
            params = GTRSParams(f, alpha, v, twist)
            assert generator_matrix(params).rank() == k
    assert multi_at_n_minus_k >= 20


@pytest.mark.parametrize("q,lengths", [(7, (2, 3, 4, 6, 8, 12, 16, 24)),
                                       (4, (3, 5, 15))])
def test_structured_forms_match_entrywise(q, lengths):
    # subgroup data over GF(49) and GF(16): the generator equals [I | L] V
    # diag(v), the dual datum's generator equals the written-out parity
    # formula, and the dual datum's L block is J (-L^T) J
    f = field_q2(q)
    rng = random.Random(41 + q)
    for n in lengths:
        for _ in range(6):
            k = rng.randint(1, n - 1)
            params = random_subgroup_params(f, k, n, rng)
            assert generator_matrix(params).data == systematic_generator(params)
            dual = dual_params(params)
            assert generator_matrix(dual).data == parity_formula(params)
            assert l_block(f, dual.twist) == flipped_block(params)


def test_generator_matches_systematic_form_on_any_locators(gf9):
    # row i is also the twisted expansion of the i-th unit message
    # evaluated at the locators (the conftest `encode` oracle)
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        alpha = rng.sample(range(gf9.order), n)
        v = [rng.randrange(1, gf9.order) for _ in range(n)]
        params = GTRSParams(gf9, alpha, v, random_twist(gf9, k, n, rng))
        g = generator_matrix(params)
        assert g.data == systematic_generator(params)
        assert [list(row) for row in g.data] == [
            encode(params, [int(j == i) for j in range(k)]) for i in range(k)]


def test_dual_parity_small_case(gf7):
    # n=2, k=1 over GF(7) with alpha = {1, 6}
    params = plus_gtrs(gf7, [1, 6], [1, 1], 2, 1)
    h = generator_matrix(dual_params(params))
    assert h.rows == 1 and h.cols == 2
    g = generator_matrix(params)
    assert g.mul(h.transpose()).is_zero()


def test_dual_parity_contract(gf49):
    rng = random.Random(29)
    for n in (2, 3, 4, 6, 8, 12, 16, 24):
        for _ in range(4):
            k = rng.randint(1, n - 1)
            params = random_subgroup_params(gf49, k, n, rng)
            h = generator_matrix(dual_params(params))
            assert h.rank() == n - k
            g = generator_matrix(params)
            assert g.mul(h.transpose()).is_zero()
            assert LinearCode(h).equals(code(params).dual_euclidean())


def test_dual_parity_requires_subgroup(gf49):
    params = plus_gtrs(gf49, [1, 2, 3], [1, 1, 1], 5, 1)
    with pytest.raises(GTRSError, match="multiplicative subgroup"):
        generator_matrix(dual_params(params))


def test_dual_params_map_and_involution(gf49):
    rng = random.Random(37)
    for n in (4, 6, 8, 12):
        for _ in range(4):
            k = rng.randint(1, n - 1)
            params = random_subgroup_params(gf49, k, n, rng)
            dual = dual_params(params)
            assert dual.twist.k == n - k
            for mu in range(len(params.twist.t)):
                t, h, eta = (params.twist.t[mu], params.twist.h[mu],
                             params.twist.eta[mu])
                assert k - h in dual.twist.t
                assert n - k - t in dual.twist.h
                assert gf49.neg(eta) in dual.twist.eta
            assert code(dual).equals(code(params).dual_euclidean())
            back = dual_params(dual)
            assert back.twist == params.twist
            assert back.v == params.v
            assert code(back).equals(code(params))


def test_plus_and_group_dual_maps_agree_at_zero_sum(gf49):
    # (+) spec (t,h) = (1, k-1) maps to (1, n-k-1) with negated coefficient
    params = plus_gtrs(gf49, subgroup(gf49, 6), [1] * 6, gf49.generator, 2)
    dual = dual_params(params)
    assert dual.twist.t == (1,)
    assert dual.twist.h == (6 - 2 - 1,)
    assert dual.twist.eta == (gf49.neg(gf49.generator),)


def test_u_vector_and_alpha_sum(gf49):
    alpha = [1, 2, 3, 4, 5, 6]
    u = u_vector(gf49, alpha)
    assert u == [6, 5, 4, 3, 2, 1]
    assert alpha_sum(gf49, alpha) == 0     # 21 mod 7
    assert alpha_sum(gf49, [1, 2]) == 3
    a1, a2 = gf49.generator, gf49.pow(gf49.generator, 5)
    u2 = u_vector(gf49, [a1, a2])
    assert u2 == [gf49.inv(gf49.sub(a1, a2)), gf49.inv(gf49.sub(a2, a1))]
    with pytest.raises(GTRSError):
        u_vector(gf49, [1, 1])
    assert alpha_sum(gf49, subgroup(gf49, 8)) == 0


def test_plus_dual_euclidean_contract(gf9, gf49):
    rng = random.Random(43)
    for f in (gf9, gf49):
        for _ in range(12):
            n = rng.randint(2, min(6, f.order - 1))
            k = rng.randint(1, n - 1)
            alpha = rng.sample(range(f.order), n)
            v = [rng.randrange(1, f.order) for _ in range(n)]
            eta = rng.randrange(1, f.order)
            a = alpha_sum(f, alpha)
            params = plus_gtrs(f, alpha, v, eta, k)
            if a != 0 and f.mul(a, eta) == f.neg(1):
                with pytest.raises(GTRSError):
                    plus_dual_euclidean(params)
                continue
            dual = plus_dual_euclidean(params)
            assert dual.twist.t == (1,) and dual.twist.h == (n - k - 1,)
            u = u_vector(f, alpha)
            assert dual.v == tuple(f.div(ui, vi) for ui, vi in zip(u, v))
            expect_eta = f.neg(f.div(eta, f.add(1, f.mul(a, eta))))
            assert dual.twist.eta == (expect_eta,)
            assert code(dual).equals(code(params).dual_euclidean())


def test_plus_dual_all_ones_multipliers(gf49):
    # with v = 1 the dual multipliers are exactly u
    alpha = [0, 1, 2, 3, 4]
    params = plus_gtrs(gf49, alpha, [1] * 5, 3, 2)
    dual = plus_dual_euclidean(params)
    assert dual.v == tuple(u_vector(gf49, alpha))


def test_is_mds_plus_reference_values(gf49):
    from gtrscodes.reference import OMEGA_LOG, REFERENCE_ROWS, resolve_token
    # the stated primitive-element convention: w^8 = 3
    w = gf49.pow(gf49.generator, OMEGA_LOG)
    assert gf49.pow(w, 8) == 3
    alpha = [1, 2, 3, 4, 5, 6]
    assert is_mds_plus(gf49, alpha, gf49.pow(w, 4), 3)
    # the distance-3 bundled row: subset criterion says NMDS
    row = REFERENCE_ROWS[2]
    alpha3 = [resolve_token(gf49, w, t) for t in row["alpha"]]
    eta3 = resolve_token(gf49, w, row["eta"][0])
    assert not is_mds_plus(gf49, alpha3, eta3, 3)
    assert not is_mds_plus(gf49, alpha3, eta3, 3)
    # oracle: direct 3-subset sum scan
    for pts, e in ((alpha, gf49.pow(w, 4)), (alpha3, eta3)):
        sums = {alpha_sum(gf49, s) for s in itertools.combinations(pts, 3)}
        attained = gf49.neg(gf49.inv(e)) in sums
        assert (not is_mds_plus(gf49, pts, e, 3)) == attained


def test_is_mds_plus_caps_the_subset_count(gf49, monkeypatch):
    import gtrscodes.gtrs as gtrs_module
    # n = 30 > 28, but C(30, 1) = 30 subsets: NMDS when -1/eta is a
    # locator (-1/5 = 4), MDS when it is not (40)
    assert not is_mds_plus(gf49, range(1, 31), 5, 1)
    assert is_mds_plus(gf49, range(1, 31), gf49.neg(gf49.inv(40)), 1)
    scanned = []
    monkeypatch.setattr(gtrs_module, "alpha_sum",
                        lambda *args: scanned.append(args))
    with pytest.raises(GTRSError, match="exceed the cap"):
        is_mds_plus(gf49, range(28), 1, 14)     # C(28, 14) > 2^24
    assert scanned == []


def test_mds_dichotomy_exhaustive_small():
    # every (+)-GTRS over GF(9) with subfield locators is MDS or NMDS, and
    # the subset criterion matches the exhaustive distance
    f = field_q2(3)
    sub = [x for x in f.subfield_elements()]
    rng = random.Random(47)
    for n in (3, 4):
        for alpha in itertools.combinations(sub, n):
            for k in range(1, n):
                for eta in rng.sample(range(1, 9), 4):
                    params = plus_gtrs(f, alpha, [1] * n, eta, k)
                    label = exhaustive_class(code(params))
                    assert label in {"MDS", "NMDS"}
                    assert (label == "MDS") == is_mds_plus(f, alpha, eta, k)


def test_poly_eval(gf7):
    # 2 + 3x + x^3 at x = 4: 2 + 12 + 64 = 78 = 1 mod 7
    assert poly_eval(gf7, [2, 3, 0, 1], 4) == 1
    assert poly_eval(gf7, [], 5) == 0


def test_params_serialization_roundtrip(gf49):
    params = plus_gtrs(gf49, [1, 2, 3, 4, 5, 6], [1, 2, 3, 1, 2, 3],
                       gf49.generator, 3)
    back = GTRSParams.from_dict(params.to_dict())
    assert back == params
    assert back.field == gf49


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_duals_equal_kernel_dual(data):
    f = field_q2(data.draw(st.sampled_from([3, 5, 7]), label="q"))
    n = data.draw(st.sampled_from([d for d in range(2, 13)
                                   if (f.order - 1) % d == 0 and d % f.p]),
                  label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    nonzero = st.integers(1, f.order - 1)
    v = data.draw(st.lists(nonzero, min_size=n, max_size=n), label="v")
    if data.draw(st.booleans(), label="single twist"):
        twist = TwistSpec(k, n, (1,), (k - 1,), (data.draw(nonzero),))
    else:
        ell = data.draw(st.integers(1, min(n - k, k)), label="ell")
        t = data.draw(st.permutations(range(1, n - k + 1)), label="t")[:ell]
        h = data.draw(st.permutations(range(k)), label="h")[:ell]
        eta = data.draw(st.lists(nonzero, min_size=ell, max_size=ell))
        twist = TwistSpec(k, n, t, h, eta)
    params = GTRSParams(f, subgroup(f, n), v, twist)
    kernel = code(params).dual_euclidean()
    assert code(dual_params(params)).equals(kernel)
    if twist.is_plus():
        # subgroup locators sum to 0, so 1 + a*eta = 1 is never excluded
        assert code(plus_dual_euclidean(params)).equals(kernel)

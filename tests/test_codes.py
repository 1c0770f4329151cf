import gc
import itertools
import json
import random
import sys
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from gtrscodes import (
    CodeError,
    DistanceCapExceeded,
    GaloisField,
    GTRSError,
    InvariantError,
    LinearCode,
    Matrix,
    code,
    frobenius_image,
    plus_gtrs,
)

from gtrscodes.reference import verify_reference_rows
from gtrscodes.selfdual import construct_class1

from conftest import (exhaustive_class, exhaustive_min_distance, field_q2,
                      proportional_rows_code, subset_class)


def naive_min_distance(code):
    """Plain itertools enumeration of every nonzero message."""
    f = code.field
    best = code.n
    for msg in itertools.product(range(f.order), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for coef, row in zip(msg, code.gen.data):
            if coef:
                word = [f.add(w, f.mul(coef, g)) for w, g in zip(word, row)]
        best = min(best, sum(1 for x in word if x))
    return best


def random_code(field, n, k, rng):
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
        m = Matrix(field, rows)
        if m.rank() == k:
            return LinearCode(m)


def test_constructor_validation(gf7):
    with pytest.raises(CodeError):
        LinearCode(Matrix(gf7, [[1, 2], [2, 4]]))  # rank deficient
    c = LinearCode(Matrix(gf7, [[1, 2], [0, 1]]))
    assert (c.n, c.k) == (2, 2)


def test_dual_euclidean_full_space(gf7):
    c = LinearCode(Matrix(gf7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    d = c.dual_euclidean()
    assert d.k == 0 and d.n == 3
    assert d.dual_euclidean().equals(c)


def test_dual_euclidean_repetition(gf7):
    n = 5
    c = LinearCode(Matrix(gf7, [[1] * n]))
    d = c.dual_euclidean()
    assert d.k == n - 1
    # every dual generator row sums to zero
    for row in d.gen.data:
        acc = 0
        for x in row:
            acc = gf7.add(acc, x)
        assert acc == 0


def test_dual_euclidean_random_gram(gf49):
    rng = random.Random(3)
    for _ in range(10):
        c = random_code(gf49, 6, 3, rng)
        d = c.dual_euclidean()
        assert d.k == 3
        assert c.gen.mul(d.gen.transpose()).is_zero()
        assert d.dual_euclidean().equals(c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_double_dual_is_the_code(data):
    f = field_q2(data.draw(st.sampled_from([2, 3, 7]), label="q"))
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(0, n), label="k")
    row = st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n)
    gen = Matrix(f, data.draw(st.lists(row, min_size=k, max_size=k)), cols=n)
    assume(gen.rank() == k)
    c = LinearCode(gen)
    for dual, form in ((LinearCode.dual_euclidean, Matrix.transpose),
                       (LinearCode.dual_hermitian, Matrix.conj_transpose)):
        d = dual(c)
        assert d.k == n - k
        if 0 < k < n:
            assert c.gen.mul(form(d.gen)).is_zero()
        assert dual(d).equals(c)


def test_dual_hermitian(gf49, gf7):
    rng = random.Random(7)
    for _ in range(10):
        c = random_code(gf49, 6, 2, rng)
        d = c.dual_hermitian()
        assert d.k == 4
        assert c.gen.mul(d.gen.conj_transpose()).is_zero()
        assert d.equals(LinearCode(frobenius_image(c.gen)).dual_euclidean())
    # subfield-entry generator: Hermitian dual coincides with Euclidean
    sub = LinearCode(Matrix(gf49, [[1, 2, 3, 4], [0, 1, 5, 6]]))
    assert sub.dual_hermitian().equals(sub.dual_euclidean())
    plain = LinearCode(Matrix(gf7, [[1, 0], [0, 1]]))
    from gtrscodes import FieldError
    with pytest.raises(FieldError):
        plain.dual_hermitian()


def test_is_hermitian_self_dual(gf49):
    from conftest import field_q2
    gf4 = field_q2(2)
    assert LinearCode(Matrix(gf4, [[1, 1]])).is_hermitian_self_dual()
    assert not LinearCode(Matrix(gf4, [[1, 1, 0]])).is_hermitian_self_dual()
    # bundled self-dual instances over GF(49)
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    for eta, _label in res.eta_list:
        c = code(res.params(eta))
        assert c.is_hermitian_self_dual()
        assert c.dual_hermitian().equals(c)


def test_min_distance_repetition(gf9):
    for n in (1, 4, 7):
        c = LinearCode(Matrix(gf9, [[1] * n]))
        assert c.min_distance() == n


def test_min_distance_against_naive(gf7, gf9):
    rng = random.Random(19)
    for field in (gf7, gf9, field_q2(4)):     # GF(16): the XOR add path
        for _ in range(8):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            c = random_code(field, n, k, rng)
            assert c.min_distance() == naive_min_distance(c)


def test_min_distance_reference_instances(gf49):
    # self-dual [6,3] families: class (I) with a=0 gives distance 4,
    # class (I) with a != 0 at a_l=1 includes a distance-3 member
    r1 = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    assert {code(r1.params(eta)).min_distance() for eta, _ in r1.eta_list} == {4}
    r2 = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    assert {code(r2.params(eta)).min_distance() for eta, _ in r2.eta_list} == {3, 4}


def test_min_distance_cap(gf49):
    # the first layer is 2 information sets x 3 messages
    rng = random.Random(2)
    c = random_code(gf49, 6, 3, rng)
    with pytest.raises(DistanceCapExceeded):
        c.min_distance(cap=5)


def test_min_distance_refuses_odd_fields_past_the_table_cap():
    # GF(67^2) has no addition table: a refusal, as for any cap, so that
    # `gtrs classify` still replies with the class
    f = GaloisField(67, 2)
    c = LinearCode(Matrix(f, [[1, 1, 0, 0]]))
    assert c.classify() == "other"
    with pytest.raises(DistanceCapExceeded, match="above 4096 elements"):
        c.min_distance()


def test_min_distance_past_the_q_to_the_k_cap(gf49):
    # 49^5 > 2^24 projective messages, but d = 2 shows in layer 2: 5 + 480
    # messages on the one information set
    c = proportional_rows_code(gf49)
    assert c.classify() == "other"
    assert c.min_distance() == 2
    assert c.min_distance(cap=485) == 2
    with pytest.raises(DistanceCapExceeded):
        c.min_distance(cap=484)


def test_min_distance_and_classify_match_the_oracles():
    """Information-set distance equals full enumeration and the plain
    itertools loop, and the shared-prefix column walk equals ranking every
    subset on its own, on seeded codes with zero and repeated columns,
    k = 1, k = n, and one or several disjoint information sets."""
    rng = random.Random(61)
    fields = [GaloisField(2), GaloisField(7)] + [field_q2(q)
                                                 for q in (2, 3, 4, 5, 7)]
    seen = set()
    codes = 0
    for field in fields:
        while codes < 100 * (fields.index(field) + 1):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            if field.order ** k > 2500:
                continue
            zeros = 0.6 * rng.random()
            rows = [[0 if rng.random() < zeros else rng.randrange(field.order)
                     for _ in range(n)] for _ in range(k)]
            if k < n and rng.random() < 0.2:
                i, j = rng.sample(range(n), 2)
                for row in rows:
                    row[j] = row[i]
            if Matrix(field, rows).rank() < k:
                continue
            c = LinearCode(Matrix(field, rows))
            d = c.min_distance()
            assert d == exhaustive_min_distance(c) == naive_min_distance(c), rows
            assert c.classify() == subset_class(c), rows
            cols = list(zip(*rows))
            seen |= {("sets", min(len(c._redundancies()), 2)),
                     ("k", "1" if k == 1 else "n" if k == n else "1 < k < n"),
                     ("zero column", (0,) * k in cols),
                     ("repeated column", len(set(cols)) < n)}
            codes += 1
    assert codes == 700
    assert seen >= {("sets", 1), ("sets", 2), ("k", "1"), ("k", "n"),
                    ("k", "1 < k < n"), ("zero column", True),
                    ("repeated column", True)}


def test_kernels_leave_no_reference_cycle():
    # with the cyclic collector off, a dropped code must free its field
    gc.disable()
    try:
        field = GaloisField(7, 2)
        ref = weakref.ref(field)
        c = proportional_rows_code(field)
        c.classify()
        c.min_distance()
        del c, field
        assert ref() is None
    finally:
        gc.enable()


def test_singleton_bound_random(gf9):
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        c = random_code(gf9, n, k, rng)
        assert c.min_distance() <= c.n - c.k + 1


def test_classify(gf7, gf49):
    rep = LinearCode(Matrix(gf7, [[1] * 5]))
    assert rep.classify() == "MDS"
    r = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    labels = {code(r.params(eta)).classify() for eta, _ in r.eta_list}
    assert labels == {"MDS", "NMDS"}
    # MDS duals are MDS; the construction label matches the classifier
    for eta, label in r.eta_list:
        c = code(r.params(eta))
        assert c.classify() == label
        if label == "MDS":
            assert c.dual_euclidean().classify() == "MDS"
    # [4,2,2] over GF(7): columns 2 and 4 are equal, so the dual distance
    # is 2 = k and the code is NMDS
    nmds = LinearCode(Matrix(gf7, [[1, 0, 1, 0], [0, 1, 1, 1]]))
    assert nmds.min_distance() == 2
    assert nmds.classify() == "NMDS"
    # an AMDS-but-not-NMDS example: [4,2,2] with a zero column, dual distance 1
    amds = LinearCode(Matrix(gf7, [[1, 0, 1, 0], [0, 1, 1, 0]]))
    assert amds.min_distance() == 2
    assert amds.dual_euclidean().min_distance() == 1
    assert amds.classify() == "AMDS"
    # 'other' example: [5,2,2], far below the Singleton defect-1 line
    other = LinearCode(Matrix(gf7, [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0]]))
    assert other.classify() == "other"


def test_classify_matches_enumeration(gf7, gf9):
    """Column-rank labels equal exhaustive labels on seeded random codes,
    k = 1 and k = n included, and on every criterion-5 code over GF(9)."""
    rng = random.Random(53)
    seen = set()
    edges = set()
    for field in (gf7, gf9, field_q2(4)):
        for _ in range(200):
            n = rng.randint(1, 7)
            k = rng.randint(1, n)
            if field.order ** max(k, n - k) > 1 << 17:
                continue
            # sparse rows reach the AMDS and 'other' classes often
            zeros = 0.6 * rng.random()
            while True:
                rows = [[0 if rng.random() < zeros else rng.randrange(1, field.order)
                         for _ in range(n)] for _ in range(k)]
                if Matrix(field, rows).rank() == k:
                    break
            c = LinearCode(Matrix(field, rows))
            label = c.classify()
            assert label == exhaustive_class(c), (field, rows)
            seen.add(label)
            edges.add((field.order, k == 1, k == n))
    assert seen == {"MDS", "NMDS", "AMDS", "other"}
    assert {(q, True, False) for q in (7, 9, 16)} <= edges    # k = 1 < n
    assert {(q, False, True) for q in (7, 9, 16)} <= edges    # k = n > 1
    sub = gf9.subfield_elements()
    for n in (2, 3):
        for alpha in itertools.combinations(sub, n):
            for k in range(1, n):
                for eta in range(1, gf9.order):
                    c = code(plus_gtrs(gf9, alpha, [1] * n, eta, k))
                    assert c.classify() == exhaustive_class(c)


def test_classify_cap_counts_subsets(gf49):
    # [6,3]: C(6,2) + C(6,3) + C(6,4) = 50 subsets, whatever q is
    c = random_code(gf49, 6, 3, random.Random(2))
    with pytest.raises(DistanceCapExceeded):
        c.classify(cap=49)
    assert c.classify(cap=50) in {"MDS", "NMDS", "AMDS", "other"}
    with pytest.raises(CodeError):
        LinearCode(Matrix(gf49, [], cols=3)).classify()


def test_codes_equal_and_errors(gf7, gf9):
    a = LinearCode(Matrix(gf7, [[1, 2, 3], [0, 1, 1]]))
    permuted = LinearCode(Matrix(gf7, [[0, 1, 1], [1, 2, 3]]))
    assert a.equals(permuted)
    assert not a.equals(a.dual_euclidean())
    with pytest.raises(CodeError):
        a.equals(LinearCode(Matrix(gf7, [[1, 2]])))
    with pytest.raises(CodeError):
        a.equals(LinearCode(Matrix(gf9, [[1, 2, 3]])))


def test_dim_sum(gf49):
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        c = random_code(gf49, n, k, rng)
        assert c.dual_euclidean().k + c.k == n
        assert c.dual_hermitian().k + c.k == n


def test_serialization_roundtrip(gf49):
    rng = random.Random(41)
    c = random_code(gf49, 6, 3, rng)
    d = c.to_dict()
    back = LinearCode.from_dict(d)
    assert back.equals(c) and back.gen == c.gen


def test_reference_rows_all_pass():
    reports = verify_reference_rows()
    assert len(reports) == 6
    assert all(r.passed for r in reports)


def test_reference_eta_index_bounds():
    # rows 3 and 6 list one eta, so 0 is the only index every row has
    for index in (1, -1):
        with pytest.raises(GTRSError, match="eta_index"):
            verify_reference_rows(eta_index=index)


def test_reference_invariant_failure_is_not_a_failed_row(monkeypatch):
    import gtrscodes.reference as reference

    def broken(params):
        raise InvariantError("routes disagree")

    monkeypatch.setattr(reference, "check_self_dual_criterion", broken)
    with pytest.raises(InvariantError):
        verify_reference_rows()


def test_reference_failed_row_names_the_convention(monkeypatch):
    import gtrscodes.reference as reference
    rows = list(reference.REFERENCE_ROWS)
    rows[2] = dict(rows[2], eta=("w27",))
    monkeypatch.setattr(reference, "REFERENCE_ROWS", tuple(rows))
    reports = verify_reference_rows()
    assert [r.passed for r in reports] == [True, True, False, True, True, True]
    assert reports[2].detail == "does not verify with w = generator^5"


def test_reference_builds_one_generator_per_datum(monkeypatch):
    import gtrscodes.gtrs as gtrs
    calls = []

    def counted(params):
        calls.append(json.dumps(params.to_dict(), sort_keys=True))
        return generator_matrix(params)

    generator_matrix = gtrs.generator_matrix
    # every module that binds the function, so no caller escapes the count
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "gtrscodes"
                and getattr(mod, "generator_matrix", None) is generator_matrix):
            monkeypatch.setattr(mod, "generator_matrix", counted)
    assert all(r.passed for r in verify_reference_rows(eta_index=0))
    assert len(calls) == len(set(calls)) == 6

import functools
import random

import pytest

from gtrscodes import (
    FieldError,
    GaloisField,
    LinalgError,
    Matrix,
    frobenius_image,
    is_multiplicative_subgroup,
)
from gtrscodes.linalg import echelon

from conftest import field_q2, inverse_vandermonde_identity, reference_rref


def naive_mul(f, a, b):
    return [[_dot(f, ar, [br[j] for br in b]) for j in range(len(b[0]))] for ar in a]


def _dot(f, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def test_mul_against_naive(gf49):
    rng = random.Random(11)
    for _ in range(20):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randrange(49) for _ in range(k)] for _ in range(r)]
        b = [[rng.randrange(49) for _ in range(c)] for _ in range(k)]
        prod = Matrix(gf49, a).mul(Matrix(gf49, b))
        assert [list(row) for row in prod.data] == naive_mul(gf49, a, b)


def test_shapes_and_errors(gf7, gf49):
    with pytest.raises(LinalgError):
        Matrix(gf7, [[1, 2], [3]])
    with pytest.raises(LinalgError):
        Matrix(gf7, [])
    z = Matrix(gf7, [], cols=4)
    assert z.rows == 0 and z.cols == 4 and z.rank() == 0
    a = Matrix(gf7, [[1, 2, 3]])
    with pytest.raises(LinalgError):
        a.mul(a)
    with pytest.raises(LinalgError):
        a.mul(Matrix(gf49, [[1], [2], [3]]))


def test_rref_rank_kernel(gf7):
    a = Matrix(gf7, [[1, 2, 3, 4],
                     [2, 4, 6, 2],
                     [0, 0, 0, 0]])
    red, rank, pivots = a.rref()
    assert rank == 2 and pivots == (0, 3)
    # every RREF row stays in the original row space: verify by checking that
    # stacking leaves the rank unchanged
    both = Matrix(gf7, list(a.data) + list(red.data))
    assert both.rank() == 2
    ker = a.kernel_basis()
    assert ker.rows == 2
    assert a.mul(ker.transpose()).is_zero()
    assert ker.rank() == 2


def test_kernel_dimension_random(gf9):
    rng = random.Random(5)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        a = Matrix(gf9, [[rng.randrange(9) for _ in range(c)] for _ in range(r)])
        ker = a.kernel_basis()
        assert ker.rows == c - a.rank()
        assert a.mul(ker.transpose()).is_zero()


def test_row_space_key_is_canonical(gf7):
    a = Matrix(gf7, [[1, 2, 3], [0, 1, 1]])
    b = Matrix(gf7, [[2, 4, 6], [1, 3, 4]])   # row-equivalent to a
    c = Matrix(gf7, [[1, 2, 3], [0, 1, 2]])
    assert a.row_space_key() == b.row_space_key()
    assert a.row_space_key() != c.row_space_key()


def test_conj_transpose(gf49):
    w = gf49.generator
    a = Matrix(gf49, [[w, 1], [0, gf49.pow(w, 3)]])
    at = a.conj_transpose()
    assert at.data[0][0] == gf49.pow(w, 7)
    assert at.data[1][0] == 1
    assert frobenius_image(a).transpose() == at
    assert at.conj_transpose() == a


def test_is_multiplicative_subgroup(gf49):
    w = gf49.generator
    g6 = [gf49.pow(w, 8 * i) for i in range(6)]
    assert is_multiplicative_subgroup(gf49, g6)
    assert not is_multiplicative_subgroup(gf49, g6[:-1])
    assert not is_multiplicative_subgroup(gf49, [0, 1])
    assert not is_multiplicative_subgroup(gf49, [1, 1])


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_inverse_vandermonde_identity_all_subgroups(q):
    f = field_q2(q)
    order = f.order - 1
    w = f.generator
    for n in range(1, 49):
        if order % n or n % f.p == 0:
            continue
        alpha = [f.pow(w, (order // n) * i) for i in range(n)]
        assert inverse_vandermonde_identity(f, alpha)


def test_inverse_vandermonde_identity_errors():
    f = field_q2(2)   # unit group of GF(4) has order 3
    alpha3 = sorted({f.pow(f.generator, i) for i in range(3)})
    assert is_multiplicative_subgroup(f, alpha3)
    assert inverse_vandermonde_identity(f, alpha3)


def test_entries_checked_once_per_matrix(gf7):
    for bad in ([[7]], [[1, 2], [3, -1]]):
        with pytest.raises(FieldError):
            Matrix(gf7, bad)
    assert Matrix(gf7, [[], []]).cols == 0
    assert Matrix(gf7, [[0, 6]]).data == ((0, 6),)


def _shapes(f, rng):
    """Seeded matrices over f: 0 x n, m x 0, tall, wide, square, a zero row
    and repeated or scaled rows, with sparse entries so ranks drop."""
    def rand(m, n):
        return [[rng.randrange(f.order) if rng.random() < 0.6 else 0
                 for _ in range(n)] for _ in range(m)]

    yield [], 5
    yield [[], [], []], 0
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        yield rand(m, n), n
    yield rand(8, 3), 3
    yield rand(2, 9), 9
    for _ in range(10):
        a = rand(4, 6)
        a.insert(rng.randrange(5), [0] * 6)
        a.append(list(a[0]))
        c = rng.randrange(1, f.order)
        a.append([f.mul(c, x) for x in a[1]])
        rng.shuffle(a)
        yield a, 6


@pytest.mark.parametrize("field", [GaloisField(7), field_q2(3), field_q2(4),
                                   field_q2(7)],
                         ids=["GF7", "GF9", "GF16", "GF49"])
def test_rref_and_echelon_match_reference(field):
    rng = random.Random(field.order)
    for rows, cols in _shapes(field, rng):
        red, rank, pivots = Matrix(field, rows, cols=cols).rref()
        ref_rows, ref_rank, ref_pivots = reference_rref(field, rows, cols)
        assert (red.data, rank, pivots) == (ref_rows, ref_rank, ref_pivots)
        assert red.rows == len(rows) and red.cols == cols
        assert len(echelon(field, rows)) == ref_rank


def test_declared_cols_must_match_rows(gf7):
    with pytest.raises(LinalgError, match="declared"):
        Matrix(gf7, [[1, 2]], cols=3)
    assert Matrix(gf7, [[1, 2]], cols=2).cols == 2


@pytest.mark.parametrize("field", [field_q2(3), field_q2(4)],
                         ids=["GF9", "GF16"])
def test_echelon_pivots_read_the_rank_of_a_column_prefix(field):
    # the one-elimination rank test of the polynomial self-duality route:
    # no echelon pivot is >= k exactly when the first k columns have the
    # rank of the whole matrix
    rng = random.Random(field.order + 1)

    def spanned(m, k, extra):
        # extra columns that are combinations of the first k, so the test
        # holds on each of these matrices for the split at k
        rows = [[rng.randrange(field.order) for _ in range(k)]
                for _ in range(m)]
        mix = [[rng.randrange(field.order) for _ in range(extra)]
               for _ in range(k)]
        return [r + [functools.reduce(field.add, map(field.mul, r, col), 0)
                     for col in zip(*mix)] for r in rows], k + extra

    shapes = list(_shapes(field, rng))
    shapes += [spanned(rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 4))
               for _ in range(20)]
    seen = set()
    for rows, cols in shapes:
        pivots = [p for p, _ in echelon(field, rows)]
        for k in range(cols + 1):
            prefix = len(echelon(field, [r[:k] for r in rows]))
            holds = all(p < k for p in pivots)
            assert holds == (len(pivots) == prefix)
            seen.add(holds)
    assert seen == {True, False}

import functools
from itertools import combinations

import numpy as np
import pytest

from gtrscodes import (DEFAULT_DISTANCE_CAP, DistanceCapExceeded, GaloisField,
                       GTRSError, LinearCode, Matrix, poly_eval,
                       quadratic_extension, sweep_constructions, u_vector)
from gtrscodes.linalg import echelon


@functools.lru_cache(maxsize=None)
def field_q2(q: int) -> GaloisField:
    """Shared GF(q^2) instances (table construction is the slow part)."""
    return quadratic_extension(q)


@functools.lru_cache(maxsize=None)
def sweep_cache(q: int):
    return sweep_constructions(field_q2(q))


def proportional_rows_code(field):
    """An [8,5,2] 'other' code over GF(49): [I | A] with rows 0 and 1 of A
    proportional, so row 1 - 3 row 0 weighs 2."""
    a = [[1, 2, 3], [3, 6, 2], [8, 9, 10], [11, 20, 30], [40, 41, 42]]
    rows = [[int(i == j) for j in range(5)] + a[i] for i in range(5)]
    return LinearCode(Matrix(field, rows))


def exhaustive_min_distance(code, cap: int = DEFAULT_DISTANCE_CAP) -> int:
    """Minimum weight over every projective message (first nonzero message
    symbol 1), vectorised in chunks: an enumeration independent of the
    information sets of `LinearCode.min_distance`, and its oracle."""
    q, n, k = code.field.order, code.n, code.k
    if q ** k > cap:
        raise DistanceCapExceeded(f"q^k = {q}^{k} exceeds enumeration cap {cap}")
    exp, log, addt = code.field.np_tables()
    g = np.array(code.gen.data, dtype=np.int32)
    best = n
    chunk = 1 << 16
    for lead in range(k):
        nfree = k - lead - 1
        total = q ** nfree
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            cw = np.broadcast_to(g[lead], (len(idx), n)).copy()
            for j in range(nfree):
                row = g[lead + 1 + j]
                sym = ((idx // q ** (nfree - 1 - j)) % q).astype(np.int32)
                prod = exp[log[sym][:, None] + log[row][None, :]]
                prod = np.where((sym == 0)[:, None] | (row == 0)[None, :], 0, prod)
                cw = cw ^ prod if addt is None else addt[cw, prod]
            best = min(best, int((cw != 0).sum(axis=1).min()))
    return best


def distance_class(code, distance) -> str:
    """MDS / AMDS / NMDS / other from distance(code), the minimum distance,
    plus distance(dual) when d = n - k."""
    d = distance(code)
    if d == code.n - code.k + 1:
        return "MDS"
    if d == code.n - code.k:
        return "NMDS" if distance(code.dual_euclidean()) == code.k else "AMDS"
    return "other"


def exhaustive_class(code) -> str:
    """The class by exhaustive enumeration: the oracle for
    `LinearCode.classify`, which decides from column ranks."""
    return distance_class(code, exhaustive_min_distance)


def subset_class(code) -> str:
    """The class rules of `LinearCode.classify`, with every column subset
    ranked on its own by `reference_rref`: the oracle for its shared-prefix
    walk."""
    n, k = code.n, code.k
    cols = list(zip(*code.gen.data))

    def every(size: int, rank: int) -> bool:
        return all(reference_rref(code.field, [cols[i] for i in s], k)[1] == rank
                   for s in combinations(range(n), size))

    if every(k, k):
        return "MDS"
    if not every(k + 1, k):
        return "other"
    return "NMDS" if every(k - 1, k - 1) else "AMDS"


def reference_rref(field, rows, cols):
    """RREF by column Gauss-Jordan with row swaps, rank and pivot columns:
    an elimination independent of `linalg.echelon`, the oracle for
    `Matrix.rref` and the sweep's row-space key."""
    mul, add, inv, neg = field.mul, field.add, field.inv, field.neg
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        s = inv(a[r][c])
        a[r] = [mul(s, x) for x in a[r]]
        prow = a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                t = neg(a[i][c])
                a[i] = [add(x, mul(t, y)) for x, y in zip(a[i], prow)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, a)), r, tuple(pivots)


def poly_route_oracle(params) -> bool:
    """The polynomial self-duality route on one single-twist datum, n = 2k
    and 1 + a*eta != 0, with every power taken by `pow` and the rank test
    rank [B | targets] = rank B read from two eliminations: the oracle for
    the sweep's `_polynomial_route`."""
    field = params.field
    q, k = field.q, params.k
    eta = params.twist.eta[0]
    a = functools.reduce(field.add, params.alpha, 0)
    c = field.div(eta, field.add(1, field.mul(a, eta)))
    u = u_vector(field, params.alpha)
    rows = []
    for ai, vi, ui in zip(params.alpha, params.v, u):
        powers = [field.pow(ai, j) for j in range(k + 1)]
        base = powers[:k - 1] + [
            field.sub(powers[k - 1], field.mul(c, powers[k]))]
        # f(alpha_i) for the twisted expansion of each basis vector
        vals = powers[:k - 1] + [
            field.add(powers[k - 1], field.mul(eta, powers[k]))]
        scale = field.div(field.pow(vi, q + 1), ui)
        rows.append(base + [field.mul(scale, field.pow(x, q)) for x in vals])
    return (len(echelon(field, rows))
            == len(echelon(field, [r[:k] for r in rows])))


# The GTRS map stated twice more, on plain lists, as oracles for
# `generator_matrix`: entrywise, as the twisted expansion of a message
# evaluated at the locators, and, for subgroup locators, as the product
# forms of the generator and of the dual datum's generator.

def expand_twisted(field, twist, f):
    """Full coefficient list (length n) of the twisted polynomial with base
    coefficients f."""
    f = list(f)
    if len(f) != twist.k:
        raise GTRSError(f"expected {twist.k} coefficients, got {len(f)}")
    out = [0] * twist.n
    for i, c in enumerate(f):
        out[i] = field.check(c)
    for t, h, e in zip(twist.t, twist.h, twist.eta):
        d = twist.k - 1 + t
        out[d] = field.add(out[d], field.mul(e, f[h]))
    return out


def encode(params, f):
    """Codeword [v_i * F(alpha_i)] for the twisted expansion F of f."""
    field = params.field
    full = expand_twisted(field, params.twist, f)
    return [field.mul(vi, poly_eval(field, full, ai))
            for ai, vi in zip(params.alpha, params.v)]


def _product(field, a, b):
    mul, add = field.mul, field.add
    return tuple(tuple(functools.reduce(add, map(mul, row, col), 0)
                       for col in zip(*b)) for row in a)


def _scale_columns(field, rows, d):
    return tuple(tuple(map(field.mul, row, d)) for row in rows)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _reversal(n):
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def _vandermonde(field, alpha):
    rows = [[1] * len(alpha)]
    for _ in range(len(alpha) - 1):
        rows.append(list(map(field.mul, rows[-1], alpha)))
    return rows


def _systematic(field, block, alpha, scale):
    """[I | block] V_n(alpha) diag(scale)."""
    rows = [(*i, *b) for i, b in zip(_identity(len(block)), block)]
    vander = _vandermonde(field, alpha)
    return _scale_columns(field, _product(field, rows, vander), scale)


def l_block(field, twist):
    """The sparse k x (n-k) block placing eta_mu at (h_mu + 1, t_mu)."""
    rows = [[0] * (twist.n - twist.k) for _ in range(twist.k)]
    for t, h, e in zip(twist.t, twist.h, twist.eta):
        rows[h][t - 1] = e
    return tuple(map(tuple, rows))


def systematic_generator(params):
    """[I | L] V_n(alpha) diag(v)."""
    f = params.field
    return _systematic(f, l_block(f, params.twist), params.alpha, params.v)


def flipped_block(params):
    """J_{n-k} (-L^T) J_k, from the L block of params."""
    f, n, k = params.field, params.n, params.k
    neg_lt = [[f.neg(x) for x in col] for col in zip(*l_block(f, params.twist))]
    return _product(f, _product(f, _reversal(n - k), neg_lt), _reversal(k))


def parity_formula(params):
    """[I | J_{n-k} (-L^T) J_k] V_n(alpha) diag(alpha / n) diag(v)^{-1}."""
    f = params.field
    inv_n = f.inv(f.scalar(params.n))
    scale = [f.mul(f.mul(a, inv_n), f.inv(x))
             for a, x in zip(params.alpha, params.v)]
    return _systematic(f, flipped_block(params), params.alpha, scale)


def inverse_vandermonde_identity(field, alpha) -> bool:
    """V^T (J V diag(alpha / n)) = I for the Vandermonde V of a
    multiplicative subgroup alpha of order n, n invertible in the field."""
    n = len(alpha)
    inv_n = field.inv(field.scalar(n))
    v = _vandermonde(field, alpha)
    jvd = _scale_columns(field, _product(field, _reversal(n), v),
                         [field.mul(a, inv_n) for a in alpha])
    return _product(field, list(zip(*v)), jvd) == _identity(n)


@pytest.fixture(scope="session")
def gf7():
    return GaloisField(7)


@pytest.fixture(scope="session")
def gf49():
    return field_q2(7)


@pytest.fixture(scope="session")
def gf9():
    return field_q2(3)


@pytest.fixture(scope="session")
def gf25():
    return field_q2(5)

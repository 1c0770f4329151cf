import functools
from itertools import combinations

import numpy as np
import pytest

from gtrscodes import (DEFAULT_DISTANCE_CAP, DistanceCapExceeded, GaloisField,
                       LinearCode, Matrix, quadratic_extension,
                       sweep_constructions)


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
    return LinearCode(field, Matrix(field, rows))


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


def exhaustive_class(code, cap: int = DEFAULT_DISTANCE_CAP) -> str:
    """MDS / AMDS / NMDS / other by exhaustive enumeration: the minimum
    distance, plus the dual distance when d = n - k.  The oracle for
    `LinearCode.classify`, which decides from column ranks."""
    d = exhaustive_min_distance(code, cap)
    if d == code.n - code.k + 1:
        return "MDS"
    if d == code.n - code.k:
        dual_d = exhaustive_min_distance(code.dual_euclidean(), cap)
        return "NMDS" if dual_d == code.k else "AMDS"
    return "other"


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

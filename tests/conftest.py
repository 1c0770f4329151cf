import functools

import pytest

from gtrscodes import (DEFAULT_DISTANCE_CAP, GaloisField, quadratic_extension,
                       sweep_constructions)


@functools.lru_cache(maxsize=None)
def field_q2(q: int) -> GaloisField:
    """Shared GF(q^2) instances (table construction is the slow part)."""
    return quadratic_extension(q)


@functools.lru_cache(maxsize=None)
def sweep_cache(q: int):
    return sweep_constructions(field_q2(q))


def exhaustive_class(code, cap: int = DEFAULT_DISTANCE_CAP) -> str:
    """MDS / AMDS / NMDS / other by exhaustive enumeration: the minimum
    distance, plus the dual distance when d = n - k.  The oracle for
    `LinearCode.classify`, which decides from column ranks."""
    d = code.min_distance(cap)
    if d == code.n - code.k + 1:
        return "MDS"
    if d == code.n - code.k:
        dual_d = code.dual_euclidean().min_distance(cap)
        return "NMDS" if dual_d == code.k else "AMDS"
    return "other"


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

import functools
import itertools
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtrscodes
from gtrscodes import FieldError, GaloisField
from gtrscodes.field import (TABLE_CAP, _prime_power, is_irreducible,
                             is_prime)

from conftest import field_q2


def brute_order(modulus_mul, x, size):
    n, w = 1, x
    while w != 1:
        w = modulus_mul(w, x)
        n += 1
        assert n <= size
    return n


def test_gf7_default_generator_is_three(gf7):
    # oracle: exhaustive order scan of 2..6 mod 7
    orders = {x: brute_order(lambda a, b: a * b % 7, x, 7) for x in range(2, 7)}
    smallest = min(x for x, o in orders.items() if o == 6)
    assert smallest == 3
    assert gf7.generator == 3


def test_gf2_generator():
    f = GaloisField(2, 1)
    assert f.generator == 1
    assert f.order == 2


def test_gf49_modulus_is_first_irreducible_quadratic(gf49):
    # oracle: scan monic quadratics x^2 + bx + c in encoding order, keep the
    # first with no root in GF(7)
    def has_root(c, b):
        return any((x * x + b * x + c) % 7 == 0 for x in range(7))

    first = next((c, b, 1) for j in range(49)
                 for c, b in [(j % 7, j // 7)] if not has_root(c, b))
    assert gf49.modulus == first
    assert gf49.modulus == (1, 0, 1)


def test_build_field_errors():
    with pytest.raises(FieldError):
        GaloisField(6)
    with pytest.raises(FieldError):
        GaloisField(7, 2, modulus=[0, 0, 1])      # x^2, reducible
    with pytest.raises(FieldError):
        GaloisField(7, 1, generator=2)            # order 3, not primitive


def test_basic_arithmetic(gf7, gf49):
    assert gf7.mul(3, 5) == 1
    w = gf49.generator
    assert gf49.mul(w, gf49.pow(w, 47)) == 1
    for k in (1, 5, 13, 40):
        assert gf49.inv(gf49.pow(w, k)) == gf49.pow(w, 48 - k)
    with pytest.raises(FieldError):
        gf49.inv(0)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (3, 2), (7, 2), (2, 4), (13, 2)])
def test_exp_log_roundtrip_and_unit_group(p, m):
    f = GaloisField(p, m)
    n1 = f.order - 1
    for i in range(n1):
        assert f.log[f.exp[i]] == i
    for x in range(1, f.order):
        assert f.exp[f.log[x]] == x
        assert f.pow(x, n1) == 1


def test_field_axioms_exhaustive_gf9():
    f = GaloisField(3, 2)
    for x in range(f.order):
        for y in range(f.order):
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.sub(f.add(x, y), y) == x
            for z in range(f.order):
                lhs = f.mul(x, f.add(y, z))
                assert lhs == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_frobenius_is_automorphism(q):
    f = field_q2(q)
    for x in range(f.order):
        for y in range(f.order):
            assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))
            assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))


def test_frobenius_basics(gf49):
    assert gf49.frobenius(0) == 0
    w = gf49.generator
    assert gf49.frobenius(w) == gf49.pow(w, 7)
    for x in gf49.subfield_elements():
        assert gf49.frobenius(x) == x
    for x in range(gf49.order):
        assert gf49.frobenius(gf49.frobenius(x)) == x
    plain = GaloisField(7, 3)
    with pytest.raises(FieldError):
        plain.frobenius(2)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 11])
def test_solve_norm_roundtrip(q):
    f = field_q2(q)
    for c in f.subfield_elements():
        if c == 0:
            continue
        xi = f.solve_norm(c)
        assert f.pow(xi, q + 1) == c
    assert f.solve_norm(1) == 1


def test_solve_norm_examples_and_errors(gf49, gf9):
    # q+1 = 8 divides the log of every subfield element
    for t in range(6):
        c = gf49.exp[8 * t % 48]
        xi = gf49.solve_norm(c)
        assert gf49.pow(xi, 8) == c
    xi = gf9.solve_norm(2)
    assert gf9.pow(xi, 4) == 2
    # oracle: exhaustive scan of GF(9)*
    assert xi in {x for x in range(1, 9) if gf9.pow(x, 4) == 2}
    with pytest.raises(FieldError):
        gf49.solve_norm(0)
    with pytest.raises(FieldError):
        gf49.solve_norm(gf49.generator)  # not Frobenius-fixed


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_subfield_elements(q):
    f = field_q2(q)
    sub = f.subfield_elements()
    # oracle: scan for x^q = x
    assert set(sub) == {x for x in range(f.order) if f.pow(x, q) == x or x == 0}
    assert len(sub) == q
    assert sub[0] == 0
    for x in sub:
        for y in sub:
            assert f.add(x, y) in sub
            assert f.mul(x, y) in sub


def test_gf4_subfield_is_prime_field():
    f = field_q2(2)
    assert f.subfield_elements() == (0, 1)


def test_poly_roots(gf49):
    f = gf49
    for c in (0, 3, f.generator):
        assert f.poly_roots([f.neg(c), 1]) == {c}
    gf4 = field_q2(2)
    roots = gf4.poly_roots([1, 1, 1])
    assert len(roots) == 2 and 0 not in roots
    assert roots == {x for x in range(gf4.order)
                     if gf4.add(gf4.add(gf4.mul(x, x), x), 1) == 0}
    # zeta^7 + zeta^6 + 1 has exactly 7 distinct nonzero roots in GF(49)
    coeffs = [1, 0, 0, 0, 0, 0, 1, 1]
    roots = f.poly_roots(coeffs)
    assert len(roots) == 7 and 0 not in roots
    with pytest.raises(FieldError):
        f.poly_roots([0, 0])


def test_power_roots(gf49):
    sols = gf49.power_roots(6, gf49.neg(1))
    assert len(sols) == 6
    assert sorted(gf49.log[s] for s in sols) == [4, 12, 20, 28, 36, 44]
    for s in sols:
        assert gf49.pow(s, 6) == gf49.neg(1)
    assert gf49.power_roots(8, gf49.generator) == []


def test_serialization_roundtrip(gf49):
    d = gf49.to_dict()
    f2 = GaloisField.from_dict(d)
    assert f2 == gf49
    x = gf49.exp[17]
    assert gf49.from_coeffs(gf49.coeffs(x)) == x


def digit_add(p, x, y, sign=1):
    """x + sign*y computed digit by digit mod p (independent oracle)."""
    out, place = 0, 1
    while x or y:
        out += (x % p + sign * (y % p)) % p * place
        x, y, place = x // p, y // p, place * p
    return out


# GF(2^m) on both sides of TABLE_CAP, odd p with a table (prime fields,
# extensions of degree 2, 3, 5 and 7, 61^2 near the cap) and odd p above the
# cap (67^2)
TABLE_FIELDS = [(2, 4), (2, 12), (2, 16), (7, 1), (4093, 1), (3, 5), (61, 2),
                (67, 2), (3, 7), (5, 3), (7, 2), (37, 2)]


@functools.lru_cache(maxsize=None)
def table_field(p, m):
    return GaloisField(p, m)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_add_neg_sub_against_digit_oracle(p, m, data):
    f = table_field(p, m)
    x = data.draw(st.integers(0, f.order - 1))
    y = data.draw(st.integers(0, f.order - 1))
    s = f.add(x, y)
    assert s == digit_add(p, x, y) and type(s) is int
    assert f.neg(y) == digit_add(p, 0, y, sign=-1)
    assert f.sub(x, y) == digit_add(p, x, y, sign=-1)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_vectorised_add_matches_scalar(p, m):
    f = table_field(p, m)
    if f.order > TABLE_CAP:
        with pytest.raises(FieldError):
            f.np_tables()
        return
    _, _, addt = f.np_tables()
    if f.order <= 729:
        xs, ys = np.divmod(np.arange(f.order ** 2), f.order)
    else:
        rng = np.random.default_rng(p * 100 + m)
        xs, ys = rng.integers(0, f.order, size=(2, 500))
    if p == 2:
        assert addt is None
        vec = xs ^ ys
    else:
        # scalar add indexes the table through a memoryview
        assert addt.shape == (f.order, f.order)
        assert addt.dtype == np.uint16 and addt.flags.c_contiguous
        vec = addt[xs, ys]
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert vec.tolist() == [f._raw_add(x, y) for x, y in pairs] \
        == [f.add(x, y) for x, y in pairs]


def test_large_fields_construct_and_compute():
    for p, m in ((67, 2), (2, 16)):
        f = table_field(p, m)
        w = f.generator
        assert f.mul(w, f.inv(w)) == 1
        assert f.pow(w, f.order - 1) == 1
        assert f.add(w, f.neg(w)) == 0
    with pytest.raises(FieldError):
        GaloisField(2, 17)
    with pytest.raises(FieldError):
        GaloisField(257, 2)


def test_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(gtrscodes.__file__))
    code = "import sys, gtrscodes; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


# the exp table's and generator's independent oracles: powers by a _raw_mul
# chain, orders by brute force
ORACLE_FIELDS = [(2, 4), (2, 12), (3, 5), (3, 7), (5, 3), (7, 2), (37, 2),
                 (4093, 1)]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_exp_table_is_the_generator_power_chain(p, m):
    f = table_field(p, m)
    n1, acc = f.order - 1, 1
    for i in range(2 * n1):
        assert f.exp[i] == acc, i
        acc = f._raw_mul(acc, f.generator)


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_default_generator_is_the_smallest_full_order_element(p, m):
    f = table_field(p, m)
    orders = [brute_order(f._raw_mul, x, f.order) for x in
              range(1, f.generator + 1)]
    assert orders[-1] == f.order - 1
    assert all(o < f.order - 1 for o in orders[:-1])


def test_prime_power_against_a_table():
    # oracle: every prime power below 5000, built upwards from the primes
    primes = [p for p in range(2, 5000)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    table = {p ** s: (p, s) for p in primes
             for s in range(1, 13) if p ** s < 5000}
    for q in range(-3, 5000):
        if q in table:
            assert _prime_power(q) == table[q]
        else:
            with pytest.raises(FieldError, match=f"^{q} is not a prime power$"):
                _prime_power(q)


def test_is_prime_against_a_sieve():
    top = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 2)
    for d in range(2, int(top ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, top, d)))
    for n in range(-3, top):
        assert is_prime(n) == (n >= 2 and sieve[n] == 1), n


def has_monic_factor(f, p):
    """True iff the monic f (constant term first) has a monic factor of
    degree 1 to deg(f)/2 over GF(p), by long division by every candidate."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = [*low, 1]
            r = list(f)
            for i in range(m - d, -1, -1):
                c = r[i + d]
                for j in range(d + 1):
                    r[i + j] = (r[i + j] - c * g[j]) % p
            if not any(r):
                return True
    return False


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 4), (7, 3), (11, 2)])
def test_is_irreducible_against_factor_search(p, top):
    # every monic polynomial of degree 1 to top over GF(p)
    for m in range(1, top + 1):
        for low in itertools.product(range(p), repeat=m):
            f = [*low, 1]
            assert is_irreducible(f, p) == (not has_monic_factor(f, p)), f
    assert not is_irreducible([1, 1, 0], p)      # leading coefficient 0
    assert not is_irreducible([1], p)            # degree 0


HUGE_P = 10 ** 4299 + 1      # 4 300 digits


@pytest.mark.parametrize("p,m,message", [
    (3, 11, "field size 177147 exceeds cap 65536"),
    (2, 20000, "field size 2^20000 exceeds cap 65536"),
    (2, 10 ** 9, "field size 2^1000000000 exceeds cap 65536"),
    (2 ** 61 - 1, 1, "field size 2305843009213693951 exceeds cap 65536"),
    (2 ** 61, 1, "field size 2305843009213693952 exceeds cap 65536"),
    (65537, 2, "field size 65537^2 exceeds cap 65536"),
    # str() of this p to the 17th power would pass the digit limit
    pytest.param(HUGE_P, 17, f"field size {HUGE_P}^17 exceeds cap 65536",
                 id="4300_digit_p-17"),
    # str() of this p itself passes the digit limit
    pytest.param(10 ** 4300, 1, "field size >= 2^14284 exceeds cap 65536",
                 id="4301_digit_p-1")])
def test_oversize_field_messages(p, m, message):
    # the cap is checked before any number theory on p
    start = time.perf_counter()
    with pytest.raises(FieldError, match=f"^{re.escape(message)}$"):
        GaloisField(p, m)
    assert time.perf_counter() - start < 1

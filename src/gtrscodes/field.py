"""Exact arithmetic in GF(p^m) with exp/log tables.

Elements are plain integers in [0, p^m): the base-p digits of the integer
are the coefficients (constant term first) of the element written as a
polynomial over GF(p).  For a prime field this is just the usual residue.
Each field builds one table set at construction (see
GaloisField._build_tables): multiplication, inversion and powers go through
discrete-log tables, negation and odd-characteristic addition through
lookup tables, and characteristic-2 addition is XOR of the encodings.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Sequence

MAX_ORDER = 1 << 16      # largest field constructed
TABLE_CAP = 4096         # largest odd-p addition table; min_distance limit


class FieldError(ValueError):
    """Invalid field construction or an operation outside the field's domain."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault in the package, not in
    its input."""


def is_prime(n: int) -> bool:
    """Trial division up to isqrt(n).  Callers bound n first: GaloisField
    tests only p <= MAX_ORDER."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Coefficient lists are constant-term first.
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while _poly_trim(a) and len(a) - 1 >= dm:
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(mod):
            a[i + shift] = (a[i + shift] - factor * mi) % p
    return a


def _poly_mulmod(a, b, mod, p):
    return _poly_mod(_poly_mul(a, b, p), mod, p)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_pow_frobenius(r: list[int], mod: Sequence[int], p: int) -> list[int]:
    """r ** p reduced mod `mod`, by square-and-multiply."""
    out = [1]
    base = list(r)
    e = p
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return out


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Ben-Or's test: f of degree m is irreducible over GF(p) iff
    gcd(f, x^(p^i) - x) = 1 for 1 <= i <= m/2, since a reducible f has an
    irreducible factor of degree i <= m/2, which divides x^(p^i) - x."""
    mod = [c % p for c in modulus]
    m = len(mod) - 1
    if m < 1 or mod[-1] == 0:
        return False
    r = [0, 1]                        # r_i = x^(p^i) mod f
    for _ in range(m // 2):
        r = _poly_pow_frobenius(r, mod, p)
        diff = r + [0] * (2 - len(r))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(mod, diff, p)) > 1:
            return False
    return True


def _find_irreducible(p: int, m: int) -> list[int]:
    """Smallest monic irreducible of degree m, by the integer encoding of
    its low coefficients; one exists for every p and m."""
    candidates = ([j // p ** i % p for i in range(m)] + [1]
                  for j in range(p ** m))
    return next(c for c in candidates if is_irreducible(c, p))


class GaloisField:
    """GF(p^m), immutable after construction and shareable.

    Parameters
    ----------
    p : prime characteristic
    m : extension degree
    modulus : optional monic irreducible of degree m over GF(p), coefficient
        list constant-term first.  Defaults to the smallest one.
    generator : optional primitive element (int encoding or coefficient
        sequence).  Defaults to the smallest element of full order.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None,
                 generator: int | Sequence[int] | None = None):
        # number theory runs only on p within the cap; p^m >= 2^m, so a
        # huge p or m is refused before p^m is built or formatted
        if p <= MAX_ORDER and not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        if p > MAX_ORDER or m > MAX_ORDER.bit_length():
            try:
                size = str(p) if m == 1 else f"{p}^{m}"
            except ValueError:          # p past the int-to-str digit limit
                size = f">= 2^{p.bit_length() - 1}"
            raise FieldError(f"field size {size} exceeds cap {MAX_ORDER}")
        self.p = p
        self.m = m
        self.order = p ** m
        if self.order > MAX_ORDER:
            raise FieldError(f"field size {self.order} exceeds cap {MAX_ORDER}")

        if modulus is None:
            modulus = _find_irreducible(p, m)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise FieldError("supplied modulus is reducible")
        self.modulus = tuple(modulus)

        # subfield size for square extensions (Frobenius, norm equations)
        self.q = p ** (m // 2) if m % 2 == 0 else None

        if generator is None:
            # the smallest element of full order; every field has one.  An
            # element of GF(p) has order dividing p - 1, so an extension
            # field starts the search past the prime subfield.
            for gen in range(p if m > 1 else 1, self.order):
                exp = self._exp_table(gen)
                if exp is not None:
                    break
        else:
            gen = self.from_coeffs(generator) if isinstance(generator, (list, tuple)) else int(generator)
            if not (0 < gen < self.order):
                raise FieldError("generator out of range")
            exp = self._exp_table(gen)
            if exp is None:
                raise FieldError("supplied generator is not primitive")
        self.generator = gen
        self._build_tables(exp)
        self._subfield = None

    def _exp_table(self, g: int):
        """Two periods of the powers of g as a numpy array, or None when g
        is not primitive.  Built by doubling: multiplying by a fixed c is
        GF(p)-linear on the digits, row j of its matrix being c * x^j, and
        the matrix of c^2 is the square of the matrix of c."""
        import numpy as np    # deferred: `import gtrscodes` stays numpy-free
        p, m, n1 = self.p, self.m, self.order - 1
        place = p ** np.arange(m, dtype=np.int64)
        exp = np.empty(2 * n1, dtype=np.int32)
        exp[0] = 1
        times_c = np.array([self.coeffs(self._raw_mul(g, p ** j))
                            for j in range(m)], dtype=np.int64)
        done = 1                             # times_c multiplies by g^done
        while done < n1:
            step = min(done, n1 - done)
            block = exp[:step, None] // place % p @ times_c % p @ place
            if (block == 1).any():           # g^i = 1 for some 0 < i < n1
                return None
            exp[done:done + step] = block
            done, times_c = done + step, times_c @ times_c % p
        exp[n1:] = exp[:n1]
        return exp

    def _build_tables(self, exp):
        """The field's one table set, vectorised over all elements.

        exp holds two periods of generator powers, so that
        exp[log x + log y] needs no reduction; log[0] is 0 and never read
        for a product.  neg is the digit-wise negation.  For odd p up to
        TABLE_CAP elements, _add is the q x q addition table; in
        characteristic 2 addition is XOR and above the cap it runs digit by
        digit, so no table is stored.  Scalar methods read the tables
        through memoryviews (Python ints out); np_tables hands the same
        buffers to LinearCode.min_distance.
        """
        import numpy as np
        p, m, n1 = self.p, self.m, self.order - 1
        place = p ** np.arange(m)
        digits = np.arange(self.order)[:, None] // place % p
        log = np.zeros(self.order, dtype=np.int32)
        log[exp[:n1]] = np.arange(n1, dtype=np.int32)
        self.exp = memoryview(exp)
        self.log = memoryview(log)
        self._neg = memoryview((-digits % p @ place).astype(np.int32))

        self._add = None
        if p != 2 and self.order <= TABLE_CAP:
            # digit sums mod p, then one more digit per step: on axes
            # (x_i, x_low, y_i, y_low) the sum is p^i s[x_i, y_i] plus the
            # table of the low digits
            small = np.arange(p, dtype=np.uint16)
            s = np.add.outer(small, small)
            np.subtract(s, p, out=s, where=s >= p)
            add = s
            for i in range(1, m):
                add = ((p ** i * s)[:, None, :, None]
                       + add[None, :, None, :]).reshape(p ** (i + 1), -1)
            self._add = memoryview(add)

    # -- raw (table-free) arithmetic, used during construction ------------

    def _raw_add(self, x: int, y: int) -> int:
        p = self.p
        if self.m == 1:
            return (x + y) % p
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((x % p + y % p) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def _raw_mul(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x * y) % self.p
        a = self.coeffs(x)
        b = self.coeffs(y)
        prod = _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)
        return self.from_coeffs(prod)

    # -- element encoding ---------------------------------------------------

    def coeffs(self, x: int) -> list[int]:
        """Coefficient list over GF(p), constant term first, length m."""
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return out

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.m and any(c % self.p for c in coeffs[self.m:]):
            raise FieldError("coefficient tuple too long")
        out = 0
        for c in reversed(list(coeffs[:self.m])):
            out = out * self.p + (c % self.p)
        return out

    def check(self, x: int) -> int:
        if not (0 <= x < self.order):
            raise FieldError(f"{x} is not an element of GF({self.order})")
        return x

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self._add is not None:
            return self._add[x, y]
        return x ^ y if self.p == 2 else self._raw_add(x, y)

    def neg(self, x: int) -> int:
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise FieldError("inversion of zero")
        return self.exp[self.order - 1 - self.log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("negative power of zero")
        return self.exp[(self.log[x] * e) % (self.order - 1)]

    def scalar(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    # -- square-extension structure ------------------------------------------

    def _require_square(self) -> int:
        if self.q is None:
            raise FieldError("operation requires a square extension GF(q^2)")
        return self.q

    def frobenius(self, x: int) -> int:
        q = self._require_square()
        if x == 0:
            return 0
        return self.exp[(self.log[x] * q) % (self.order - 1)]

    def in_subfield(self, x: int) -> bool:
        self._require_square()
        return self.frobenius(x) == x

    def subfield_elements(self) -> tuple[int, ...]:
        """The q elements fixed by Frobenius: zero first, then ascending
        discrete log."""
        q = self._require_square()
        if self._subfield is None:
            out = [0] + [self.exp[s * (q + 1)] for s in range(q - 1)]
            if len(set(out)) != q:
                raise InvariantError(f"expected {q} distinct subfield elements")
            self._subfield = tuple(out)
        return self._subfield

    def solve_norm(self, c: int) -> int:
        """Deterministic xi with xi^(q+1) = c: the smallest exponent j such
        that generator^j works."""
        q = self._require_square()
        if c == 0:
            raise FieldError("norm equation with zero right-hand side")
        if not self.in_subfield(c):
            raise FieldError("right-hand side is not in the subfield")
        # c^q = c, so (q^2 - 1) | (q - 1) log c, that is (q + 1) | log c
        j = (self.log[c] // (q + 1)) % (q - 1)
        return self.exp[j]

    def power_roots(self, d: int, c: int) -> list[int]:
        """All x with x^d = c (c nonzero), ascending by discrete log."""
        if c == 0:
            raise FieldError("power equation with zero right-hand side")
        n1 = self.order - 1
        g = gcd(d, n1)
        lc = self.log[c]
        if lc % g:
            return []
        step = n1 // g
        j0 = (lc // g) * pow(d // g, -1, step) % step
        return [self.exp[(j0 + s * step) % n1] for s in range(g)]

    def poly_roots(self, coeffs: Sequence[int]) -> set[int]:
        """Exact root set of a nonzero polynomial by exhaustive evaluation."""
        coeffs = [self.check(c) for c in coeffs]
        if not any(coeffs):
            raise FieldError("root finding on the zero polynomial")
        return {x for x in range(self.order) if poly_eval(self, coeffs, x) == 0}

    # -- numpy tables for LinearCode.min_distance -------------------------

    def np_tables(self):
        """(exp, log, add): numpy views of the field's own tables.  add is
        None in characteristic 2, where min_distance adds with XOR."""
        if self.order > TABLE_CAP:
            raise FieldError(
                f"vectorized tables unsupported above {TABLE_CAP} elements")
        import numpy as np
        add = None if self._add is None else np.asarray(self._add)
        return np.asarray(self.exp), np.asarray(self.log), add

    # -- identity / serialization ---------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GaloisField)
                and (self.p, self.m, self.modulus, self.generator)
                == (other.p, other.m, other.modulus, other.generator))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.generator))

    def __repr__(self):
        return f"GaloisField(p={self.p}, m={self.m})"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "generator": self.coeffs(self.generator),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaloisField":
        return cls(d["p"], d["m"], modulus=d.get("modulus"),
                   generator=d.get("generator"))


def poly_eval(field: GaloisField, coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of a coefficient list (constant term first) at x."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def quadratic_extension(q: int) -> GaloisField:
    """GF(q^2) for a prime power q, with default modulus and generator."""
    if q > isqrt(MAX_ORDER):
        raise FieldError(f"field size {q}^2 exceeds cap {MAX_ORDER}")
    p, s = _prime_power(q)
    return GaloisField(p, 2 * s)


def _prime_power(q: int) -> tuple[int, int]:
    """(p, s) with q = p^s.  p is the smallest divisor of q above 1, hence
    prime, and q is a prime power iff dividing out p leaves 1.  Callers
    bound q first: quadratic_extension refuses q > 256."""
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        rest, s = q, 0
        while rest % p == 0:
            rest, s = rest // p, s + 1
        if rest == 1:
            return p, s
    raise FieldError(f"{q} is not a prime power")

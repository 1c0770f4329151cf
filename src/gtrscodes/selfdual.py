"""Hermitian self-dual single-twist codes over GF(q^2).

Two constructive families of locator sets, both cosets of size q:

  class I  : a_l * w + GF(q)          (w the field's primitive element)
  class II : a_l + w^m * GF(q),  1 <= m <= q

For each, a canonical multiplier vector is produced by solving norm
equations, and the admissible twist coefficients eta are the roots of an
explicit equation over GF(q^2); every admissible eta yields a Hermitian
self-dual [n, n/2] code that is MDS or NMDS (`classify_eta`). Over GF(9),
locators (0, 1) with eta = 1 satisfy a*eta + 2 = 0 (a the locator sum)
and give the MDS [2, 1, 2] code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .codes import LinearCode
from .field import GaloisField, InvariantError
from .gtrs import (GTRSError, GTRSParams, alpha_sum, code, generator_matrix,
                   is_mds_plus, plus_gtrs, u_vector)
from .linalg import echelon


class ConstructionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Self-duality criterion for single-twist codes
# ---------------------------------------------------------------------------

def check_self_dual_criterion(params: GTRSParams) -> LinearCode | None:
    """Exact Hermitian self-duality test for a single-twist code: the code
    of params when it is Hermitian self-dual, else None. Two independent
    routes decide and must agree (`InvariantError` otherwise): (i) the Gram
    route G conj(G)^T = 0 with n = 2k; (ii) the polynomial route
    (`_polynomial_route`, on the one eta of params): for every basis
    polynomial f, the point values v_i^{q+1} f(alpha_i)^q / u_i are
    interpolated by some g of the constrained dual shape
    g = sum_{i<k-1} g_i x^i + g_{k-1} (x^{k-1} - eta/(1+a*eta) x^k)."""
    field = params.field
    field._require_square()
    if not params.twist.is_plus():
        raise GTRSError("criterion applies to the single-twist family")
    n, k = params.n, params.k
    if n != 2 * k:
        raise GTRSError("n odd" if n % 2 else "criterion requires n = 2k")
    eta = params.twist.eta[0]
    a = alpha_sum(field, params.alpha)
    if field.add(1, field.mul(a, eta)) == 0:
        raise GTRSError("excluded eta: 1 + a*eta = 0")
    lin = code(params)
    gram_ok = lin.is_hermitian_self_dual()
    [poly_ok] = _polynomial_route(field, params.alpha, params.v, k, a, [eta])
    _require_agreement(gram_ok, poly_ok)
    return lin if gram_ok else None


def _require_agreement(gram_ok: bool, poly_ok: bool) -> None:
    if gram_ok != poly_ok:
        raise InvariantError(
            "internal invariant violated: Gram and polynomial self-duality "
            "checks disagree")


def _polynomial_route(field: GaloisField, alpha, v, k: int, a: int,
                      etas) -> list[bool]:
    """The polynomial route of `check_self_dual_criterion` for the
    single-twist data (alpha, v, eta, k) with locator sum a, n = 2k and
    1 + a*eta != 0, one verdict per listed eta in order: every target column
    lies in the column space of the dual-shape basis B. The locator powers
    up to x^k, their conjugates, u and N(v_i)/u_i are computed once; each
    eta adds its two columns and runs one `echelon` of the n x 2k matrix
    [B | targets], whose targets lie in the column space of B exactly when
    no pivot (the first nonzero entry of an echelon row) is >= k."""
    q = field.q
    mul, add = field.mul, field.add
    low, last = [], []
    for ai, vi, ui in zip(alpha, v, u_vector(field, alpha)):
        ai_q = field.pow(ai, q)
        powers, conj = [1], [1]
        for _ in range(k):
            powers.append(mul(powers[-1], ai))
            conj.append(mul(conj[-1], ai_q))
        scale = field.div(field.pow(vi, q + 1), ui)
        targets = [mul(scale, x) for x in conj]
        # x^j and N(v_i) conj(x^j) / u_i for j < k - 1, and the parts of
        # the last two columns that the eta terms join
        low.append((powers[:k - 1], targets[:k - 1]))
        last.append((powers[k - 1], powers[k], targets[k - 1], targets[k]))
    verdicts = []
    for eta in etas:
        c = field.div(eta, add(1, mul(a, eta)))
        eta_q = field.pow(eta, q)
        rows = [[*base, field.sub(p0, mul(c, p1)),
                 *tgt, add(t0, mul(eta_q, t1))]
                for (base, tgt), (p0, p1, t0, t1) in zip(low, last)]
        verdicts.append(all(p < k for p, _ in echelon(field, rows)))
    return verdicts


def zeta_roots(field: GaloisField) -> list[int]:
    """The q distinct nonzero roots of z^q + z^(q-1) + 1 over GF(q^2): for
    z != 0 the equation times z reads N(z) + Tr(z) = 0, and N(z+1) =
    (z+1)(z^q+1) = N(z) + Tr(z) + 1, so the roots are z = y - 1 with
    N(y) = y^(q+1) = 1 and y != 1."""
    q = field._require_square()
    roots = sorted(field.sub(y, 1) for y in field.power_roots(q + 1, 1)
                   if y != 1)
    if len(roots) != q or 0 in roots:
        raise InvariantError(
            f"expected {q} distinct nonzero roots, found {len(roots)}")
    return roots


def classify_eta(field: GaloisField, alpha, eta: int) -> str:
    """MDS/NMDS label of the Hermitian self-dual [n, n/2] single-twist code
    with locators alpha and twist coefficient eta: NMDS exactly when a != 0,
    a*eta + 2 = 0 (a the locator sum) and some n/2-subset of the locators
    sums to -1/eta (the half-sum a/2); MDS otherwise. The equation gates the
    subset scan of `is_mds_plus`. The domain is the self-dual n = 2k codes
    of the construction families: on every code of both pinned sweep
    catalogs exact distance finds no NMDS member with a*eta + 2 != 0
    (criterion 4). For arbitrary locators a*eta + 2 != 0 does not imply
    MDS; use `is_mds_plus` there."""
    a = alpha_sum(field, alpha)
    if a == 0 or field.add(field.mul(a, eta), field.scalar(2)) != 0:
        return "MDS"
    return "MDS" if is_mds_plus(field, alpha, eta, len(alpha) // 2) else "NMDS"


# ---------------------------------------------------------------------------
# Construction results
# ---------------------------------------------------------------------------

@dataclass
class ConstructionResult:
    construction: str                 # "I" or "II"
    field: GaloisField
    a_l: int
    m: int | None
    x_subset: tuple[int, ...]
    alpha: tuple[int, ...]
    v: tuple[int, ...]
    a: int                            # locator sum
    eta_list: tuple[tuple[int, str], ...]   # (eta, "MDS"|"NMDS")
    filtered: int = 0                 # eta candidates dropped by 1 + a*eta = 0

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def k(self) -> int:
        return len(self.alpha) // 2

    def params(self, eta: int) -> GTRSParams:
        return plus_gtrs(self.field, self.alpha, self.v, eta, self.k)

    def to_dict(self) -> dict:
        f = self.field
        return {
            "class": self.construction,
            "q": f.q,
            "n": self.n,
            "a_l": f.coeffs(self.a_l),
            "m": self.m,
            "x_subset": [f.coeffs(x) for x in self.x_subset],
            "alpha": [f.coeffs(x) for x in self.alpha],
            "v": [f.coeffs(x) for x in self.v],
            "a": f.coeffs(self.a),
            "eta_list": [{"eta": f.coeffs(e), "class": lbl}
                         for e, lbl in self.eta_list],
        }


def _finished(field: GaloisField, a_l: int, m: int | None, x_data, cand,
              keys, verified: set) -> ConstructionResult:
    """The construction of a `_candidates` step `cand`: locators
    c + beta * x_i and eta = 1 / eta^-1 for each kept inverse, in order,
    each labelled by `classify_eta` on those locators, and each eta's code
    checked to be Hermitian self-dual. `keys` holds one key per eta, equal
    exactly when the codes are (the sweep's `_code_keys`, or distinct
    integers), and `verified` the keys whose code passed the full criterion.
    The first eta of a key runs `check_self_dual_criterion`; the later ones
    get their verdicts from one `_polynomial_route` call, each on its own
    eta, which must agree with the Gram verdict stored for their code. That
    verdict is a fact of the code: a generator M*G of the same code has Gram
    matrix M (G conj(G)^T) conj(M)^T."""
    x, v, _ = x_data
    c, beta, a, inverses, filtered = cand
    alpha = tuple(field.add(c, field.mul(beta, xi)) for xi in x)
    etas = [field.inv(e) for e in inverses]
    res = ConstructionResult(
        "I" if m is None else "II", field, a_l, m, x, alpha, v, a,
        tuple((eta, classify_eta(field, alpha, eta)) for eta in etas),
        filtered)
    repeated = []
    for eta, key in zip(etas, keys):
        if key in verified:
            repeated.append(eta)
        elif check_self_dual_criterion(res.params(eta)):
            verified.add(key)
        else:
            raise InvariantError("constructed code failed the self-duality criterion")
    if repeated:
        _require_agreement(True, all(_polynomial_route(
            field, alpha, v, res.k, a, repeated)))
    return res


def construct_class1(field: GaloisField, a_l: int, x_subset) -> ConstructionResult:
    """Locators a_l * w + x_i with x_i distinct subfield elements, n = 2k <= q.
    Fails when the locator sum is zero in characteristic 2."""
    return _construct(field, a_l, None, x_subset)


def construct_class2(field: GaloisField, a_l: int, m: int, x_subset) -> ConstructionResult:
    """Locators a_l + w^m * x_i, 1 <= m <= q, with x_i distinct subfield
    elements, n = 2k <= q."""
    return _construct(field, a_l, m, x_subset)


def _construct(field: GaloisField, a_l: int, m: int | None,
               x_subset) -> ConstructionResult:
    """One construction through the sweep's steps, `_x_data`, `_step_head`,
    `_candidates` and `_finished`, after checking the coset label; every
    listed eta runs the full criterion (distinct keys, no verdict shared)."""
    field._require_square()
    field.check(a_l)
    if not field.in_subfield(a_l):
        raise ConstructionError("coset label must lie in the subfield")
    x_data = _x_data(field, x_subset)
    cand = _candidates(field, _step_head(field, a_l, m, x_data),
                       _zeta_inverses(field))
    return _finished(field, a_l, m, x_data, cand, range(len(cand[3])), set())


def _zeta_inverses(field: GaloisField) -> list[int]:
    """The inverses of `zeta_roots(field)`, in its order."""
    return [field.inv(z) for z in zeta_roots(field)]


def _x_data(field: GaloisField, x_subset) -> tuple[tuple[int, ...],
                                                   tuple[int, ...], int]:
    """(x, v, sum(x)) for a checked x subset of distinct subfield elements
    of even length 2 <= n <= q. Since beta^(n-1) u_i(alpha) = u_i(x) on
    every coset, the multipliers v solve N(v_i) = u_i(x): they and sum(x)
    depend on the x subset alone, so a sweep computes them once per x."""
    q = field._require_square()
    x = tuple(field.check(xi) for xi in x_subset)
    if len(set(x)) != len(x):
        raise ConstructionError("x subset entries must be distinct")
    if not all(field.in_subfield(xi) for xi in x):
        raise ConstructionError("x subset entries must lie in the subfield")
    n = len(x)
    if n < 2 or n % 2:
        raise ConstructionError("length must be even and >= 2")
    if n > q:
        raise ConstructionError(f"length {n} exceeds coset size q = {q}")
    u = u_vector(field, x)
    if not all(field.in_subfield(ui) for ui in u):
        raise InvariantError("expected multiplier data in the subfield")
    return x, tuple(field.solve_norm(ui) for ui in u), alpha_sum(field, x)


_NO_ETA = "no admissible eta candidates for this input"


def _step_head(field: GaloisField, a_l: int, m: int | None,
               x_data) -> tuple[int, int, int, int]:
    """(c, beta, a, B) for the construction on the coset c + beta * GF(q)
    with locators c + beta * x_i, for the `_x_data` of an x subset: (c, beta)
    is (a_l * w, 1) for class I (m is None) and (a_l, w^m) for class II,
    1 <= m <= q; a = n*c + beta * sum(x) is the locator sum, and
    B = k*c + k*c^q / beta^(q-1) + beta * sum(x) when a != 0, else 0.
    Characteristic 2 excludes a = 0, and there class I lists no eta when
    B = 0. No locator is built."""
    q = field.q
    x, _, sum_x = x_data
    if m is None:
        c, beta = field.mul(a_l, field.generator), 1
    elif 1 <= m <= q:
        c, beta = a_l, field.pow(field.generator, m)
    else:
        raise ConstructionError(f"m must lie in [1, {q}]")
    a = field.add(field.mul(field.scalar(len(x)), c), field.mul(beta, sum_x))
    if a == 0 and field.p == 2:
        raise ConstructionError(
            "locator sum zero in characteristic 2 is excluded")
    big_b = 0 if a == 0 else field.add(field.mul(
        field.scalar(len(x) // 2),
        field.add(c, field.div(field.frobenius(c), field.pow(beta, q - 1)))),
        field.mul(beta, sum_x))
    if big_b == 0 and m is None and field.p == 2:
        raise ConstructionError(_NO_ETA)
    return c, beta, a, big_b


def _candidates(field: GaloisField, head,
                zinv: list[int]) -> tuple[int, int, int, list[int], int]:
    """(c, beta, a, inverses, filtered) for a `_step_head` (c, beta, a, B)
    and `zinv` = `_zeta_inverses(field)`: the inverses of the kept etas in
    eta order, which are the zeta roots over B when B != 0 (eta^-1 =
    B * z^-1) and else the roots of eta^(q-1) = -beta^-(q-1), and the
    number of candidates dropped by 1 + a*eta = 0, that is eta^-1 = -a."""
    c, beta, a, big_b = head
    if big_b:
        inverses = [field.mul(big_b, zi) for zi in zinv]
    else:
        inverses = [field.inv(eta) for eta in field.power_roots(
            field.q - 1, field.neg(field.inv(field.pow(beta, field.q - 1))))]
    kept = [e for e in inverses if e != field.neg(a)]
    if not kept:
        raise ConstructionError(_NO_ETA)
    return c, beta, a, kept, len(inverses) - len(kept)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _code_keys(field: GaloisField, x_data, cand, memo: dict) -> list:
    """The RREF row-space keys of the codes of the kept etas of a
    `_candidates` step `cand`, in eta order, each equal to
    `generator_matrix(res.params(eta)).row_space_key()` for the result
    `_finished` makes of the step. With alpha = c + beta * x, the rows
    v * alpha^j (j < k - 1) span the rows v * x^j, and modulo them
    alpha^(k-1) + eta * alpha^k is beta^(k-1) ((1 + k*c*eta) x^(k-1) +
    beta*eta x^k); divided by beta^k * eta, the last row is
    v * (sigma x^(k-1) + x^k) with

        sigma = (1 + k*c*eta) / (beta*eta) = (eta^-1 + k*c) / beta.

    On one x subset sigma names the code injectively: if two values gave
    one code, v * x^(k-1) would lie in it, and a nonzero polynomial of
    degree <= k < n would vanish on the n distinct x_i. sigma = 0 is
    exactly 1 + k*c*eta = 0, the last row v * x^k; any other sigma is the
    inverse of the plain twist beta*eta / (1 + k*c*eta). `memo` maps each
    (x, sigma) to the key of the first code built for it, from that
    construction's own locators and eta, so equal codes get equal keys."""
    mul, add = field.mul, field.add
    x, v, _ = x_data
    c, beta, _, inverses, _ = cand
    k = len(x) // 2
    kc = mul(field.scalar(k), c)
    beta_inv = field.inv(beta)
    keys = []
    for inv_eta in inverses:
        plain = (x, mul(add(inv_eta, kc), beta_inv))
        key = memo.get(plain)
        if key is None:
            alpha = tuple(add(c, mul(beta, xi)) for xi in x)
            key = memo[plain] = generator_matrix(plus_gtrs(
                field, alpha, v, field.inv(inv_eta), k)).row_space_key()
        keys.append(key)
    return keys


def _step_key(field: GaloisField, n: int, head, zinv: list[int]) -> tuple:
    """A key of the set of sigma = (eta^-1 + k*c) / beta (`_code_keys`) over
    the kept inverses of a `_step_head` (c, beta, a, B), found without
    listing them: equal keys mean equal sets, and so do equal sets of two
    or more points, which fix their line. The z^-1 are the q elements of
    trace -1 (z^(q+1) + z^q + z = 0 gives (z + z^q) / z^(q+1) = -1), the
    line w0 + GF(q)*theta with w0 = zinv[0], theta = zinv[1] - zinv[0],
    Tr(theta) = 0 and theta^(q-1) = -1. If B != 0 the sigmas fill
    o + GF(q)*d, o = (B*w0 + k*c) / beta and d = B*theta / beta, less
    (k*c - a) / beta exactly when Tr(a/B) = 1. If B = 0, (y/beta)^(q-1)
    = -1 puts each inverse y in beta*theta*GF(q)*: the sigmas fill
    k*c/beta + GF(q)*theta less k*c/beta, and less (k*c - a) / beta when
    -a is a candidate. A line o + GF(q)*d is keyed by (delta, o - o^q/delta)
    with delta = d^(q-1), which fixes d up to a factor in GF(q)*; and
    y -> y - y^q/delta is GF(q)-linear with kernel {y : y^q = delta*y} =
    GF(q)*d, so it is constant on the line and tells apart the lines of
    direction d. The removed points complete the key."""
    c, beta, a, big_b = head
    kc = field.mul(field.scalar(n // 2), c)
    theta = field.sub(zinv[1], zinv[0])
    gone = field.div(field.sub(kc, a), beta)    # the sigma of eta^-1 = -a
    if big_b:
        o = field.div(field.add(field.mul(big_b, zinv[0]), kc), beta)
        d = field.div(field.mul(big_b, theta), beta)
        r = field.div(a, big_b)
        lost = (gone,) if field.add(r, field.frobenius(r)) == 1 else ()
    else:
        o, d = field.div(kc, beta), theta
        on = a and field.in_subfield(field.div(a, field.mul(beta, theta)))
        lost = tuple(sorted((o, gone))) if on else (o,)
    delta = field.pow(d, field.q - 1)
    return delta, field.sub(o, field.div(field.frobenius(o), delta)), lost


def canonical_x_subsets(field: GaloisField, n: int) -> list[tuple[int, ...]]:
    """Deterministic x subsets per length: the first n subfield elements in
    canonical order, and the first n nonzero ones (the latter reaches the
    zero-locator-sum family)."""
    sub = field.subfield_elements()
    out = [tuple(sub[:n])]
    if n < len(sub):
        out.append(tuple(sub[1:n + 1]))
    return out


def sweep_constructions(field: GaloisField, n_values=None,
                        classes=("I", "II")) -> list[ConstructionResult]:
    """Enumerate both families over all coset labels (and direction exponents
    for class II) with canonical x subsets; deterministic output order.

    The zeta roots are computed once per call and `_x_data` once per x
    subset. Each (class, a_l, m) runs `_step_head` and `_step_key`; on one x
    subset sigma names the code injectively, so a step whose key was seen
    there holds the codes of an earlier step and is skipped. A new key lists
    its candidates, and `_code_keys` keys them by (x, sigma), building a
    generator only for a new plain form. Steps are deduplicated by their
    sorted row-space keys; `_finished` builds, labels and verifies the kept
    ones, with one Gram verdict per distinct code, kept for this call only.
    Over q = 3..13, 3 712 steps are keyed, 180 list their candidates and
    157 are kept: 1 337 rows, 285 distinct codes (one full criterion each)
    and 412 route calls. Classes and lengths are checked before any step
    runs."""
    q = field._require_square()
    if q > 16:
        raise ConstructionError("sweep capped at q <= 16")
    exponents = {"I": [None], "II": range(1, q + 1)}
    for cls_name in classes:
        if cls_name not in exponents:
            raise ConstructionError(f"unknown class {cls_name!r}")
    if n_values is None:
        n_values = [n for n in range(2, min(q, 8) + 1, 2)]
    for n in n_values:
        if n % 2 or n < 2 or n > q:
            raise ConstructionError(f"invalid sweep length {n}")
    sub = field.subfield_elements()
    zinv = _zeta_inverses(field)
    results, seen, memo, verified = [], set(), {}, set()
    for n in sorted(set(n_values)):     # a repeated length is swept once
        for x in canonical_x_subsets(field, n):
            x_data = _x_data(field, x)
            lines = set()
            for cls_name in classes:
                for a_l, m in product(sub, exponents[cls_name]):
                    try:
                        head = _step_head(field, a_l, m, x_data)
                        line = _step_key(field, n, head, zinv)
                        if line in lines:
                            continue
                        lines.add(line)
                        cand = _candidates(field, head, zinv)
                    except ConstructionError:
                        continue
                    keys = _code_keys(field, x_data, cand, memo)
                    key = tuple(sorted(keys))
                    if key in seen:
                        continue
                    seen.add(key)
                    results.append(_finished(field, a_l, m, x_data, cand,
                                             keys, verified))
    return results

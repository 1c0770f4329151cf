"""Generalized twisted Reed-Solomon codes.

A twisted polynomial space of dimension k attaches, to each of a set of
"hook" coefficients f_h, an extra monomial eta * f_h * x^(k-1+t).  Evaluating
the space at distinct locators alpha and scaling coordinatewise by nonzero
multipliers v yields the code.  For locators forming a multiplicative
subgroup the dual is again a code of the same kind with an explicit
parameter map; the single-twist family with (t, h) = (1, k-1) additionally
has a closed-form Euclidean dual for arbitrary locators and an exact
subset-sum criterion deciding MDS versus NMDS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .codes import DEFAULT_DISTANCE_CAP, LinearCode
from .field import GaloisField
from .linalg import Matrix, is_multiplicative_subgroup


class GTRSError(ValueError):
    pass


@dataclass(frozen=True)
class TwistSpec:
    """Twisted-polynomial space data: dimension k, length n, and parallel
    twist/hook/coefficient tuples."""

    k: int
    n: int
    t: tuple[int, ...]
    h: tuple[int, ...]
    eta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(self.t))
        object.__setattr__(self, "h", tuple(self.h))
        object.__setattr__(self, "eta", tuple(self.eta))
        ell = len(self.t)
        if not (1 <= self.k < self.n):
            raise GTRSError("need 1 <= k < n")
        if not (1 <= ell <= self.n - self.k):
            raise GTRSError("twist count out of range")
        if len(self.h) != ell or len(self.eta) != ell:
            raise GTRSError("t, h, eta must have equal length")
        if len(set(self.t)) != ell or not all(1 <= ti <= self.n - self.k for ti in self.t):
            raise GTRSError("twists must be distinct in [1, n-k]")
        if len(set(self.h)) != ell or not all(0 <= hi <= self.k - 1 for hi in self.h):
            raise GTRSError("hooks must be distinct in [0, k-1]")
        if any(e == 0 for e in self.eta):
            raise GTRSError("twist coefficients must be nonzero")

    @property
    def ell(self) -> int:
        return len(self.t)

    def is_plus(self) -> bool:
        return self.ell == 1 and self.t[0] == 1 and self.h[0] == self.k - 1


@dataclass(frozen=True)
class GTRSParams:
    """A full code datum: field, locators, column multipliers, twist spec."""

    field: GaloisField
    alpha: tuple[int, ...]
    v: tuple[int, ...]
    twist: TwistSpec

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.field.check(a) for a in self.alpha))
        object.__setattr__(self, "v", tuple(self.field.check(x) for x in self.v))
        if len(set(self.alpha)) != len(self.alpha):
            raise GTRSError("locators must be pairwise distinct")
        if any(x == 0 for x in self.v):
            raise GTRSError("column multipliers must be nonzero")
        if len(self.v) != len(self.alpha) or self.twist.n != len(self.alpha):
            raise GTRSError("inconsistent dimensions")
        for e in self.twist.eta:
            self.field.check(e)

    @property
    def n(self) -> int:
        return self.twist.n

    @property
    def k(self) -> int:
        return self.twist.k

    def to_dict(self) -> dict:
        f = self.field
        return {
            "field": f.to_dict(),
            "alpha": [f.coeffs(a) for a in self.alpha],
            "v": [f.coeffs(x) for x in self.v],
            "k": self.k,
            "twists": [[t, h, f.coeffs(e)]
                       for t, h, e in zip(self.twist.t, self.twist.h, self.twist.eta)],
        }

    @classmethod
    def from_dict(cls, d: dict, field: GaloisField | None = None) -> "GTRSParams":
        f = field or GaloisField.from_dict(d["field"])
        alpha = [f.from_coeffs(c) for c in d["alpha"]]
        v = [f.from_coeffs(c) for c in d["v"]]
        twists = d["twists"]
        spec = TwistSpec(k=d["k"], n=len(alpha),
                         t=tuple(tw[0] for tw in twists),
                         h=tuple(tw[1] for tw in twists),
                         eta=tuple(f.from_coeffs(tw[2]) for tw in twists))
        return cls(f, tuple(alpha), tuple(v), spec)


def plus_gtrs(field: GaloisField, alpha, v, eta: int, k: int) -> GTRSParams:
    """The single-twist family with (t, h) = (1, k-1)."""
    spec = TwistSpec(k=k, n=len(alpha), t=(1,), h=(k - 1,), eta=(eta,))
    return GTRSParams(field, tuple(alpha), tuple(v), spec)


def generator_matrix(params: GTRSParams) -> Matrix:
    """k x n generator whose rows encode the standard basis: row i is
    v * alpha^i, plus v * eta * alpha^(k-1+t) for each twist hooked on i.
    Its rank is k for every datum GTRSParams accepts, so none is checked:
    the basis polynomials' parts below x^k form the identity, every degree
    is at most k-1+t <= n-1, and evaluation at n distinct locators, then
    scaling by nonzero multipliers, is injective on degrees below n."""
    field = params.field
    mul, add = field.mul, field.add
    k, tw = params.k, params.twist
    # alpha-power table up to the largest twisted degree
    powers = [[1] * params.n]
    for _ in range(k - 1 + max(tw.t)):
        powers.append([mul(p, a) for p, a in zip(powers[-1], params.alpha)])
    rows = powers[:k]
    for t, h, e in zip(tw.t, tw.h, tw.eta):
        rows[h] = [add(x, mul(e, y))
                   for x, y in zip(rows[h], powers[k - 1 + t])]
    return Matrix(field, [[mul(vj, x) for vj, x in zip(params.v, row)]
                          for row in rows], cols=params.n)


def code(params: GTRSParams) -> LinearCode:
    return LinearCode(generator_matrix(params))


# ---------------------------------------------------------------------------
# Dual datum for multiplicative-subgroup locators
# ---------------------------------------------------------------------------

def dual_params(params: GTRSParams) -> GTRSParams:
    """The dual code's datum for multiplicative-subgroup locators: dimension
    n-k, same locators, twist map (t, h, eta) -> (k - h, n - k - t, -eta),
    multipliers (alpha_i / n) v_i^{-1}.  The resulting code equals the
    Euclidean dual exactly, not merely up to equivalence."""
    field = params.field
    n, k = params.n, params.k
    if not is_multiplicative_subgroup(field, params.alpha):
        raise GTRSError("locators must form a multiplicative subgroup")
    tw = params.twist
    new_t = tuple(k - h for h in tw.h)
    new_h = tuple(n - k - t for t in tw.t)
    new_eta = tuple(field.neg(e) for e in tw.eta)
    spec = TwistSpec(k=n - k, n=n, t=new_t, h=new_h, eta=new_eta)
    # n divides p^m - 1, the order of the unit group, so n is a unit
    inv_n = field.inv(field.scalar(n))
    new_v = tuple(field.mul(field.mul(a, inv_n), field.inv(x))
                  for a, x in zip(params.alpha, params.v))
    return GTRSParams(field, params.alpha, new_v, spec)


# ---------------------------------------------------------------------------
# Single-twist ("plus") closed forms
# ---------------------------------------------------------------------------

def u_vector(field: GaloisField, alpha) -> list[int]:
    """u_i = prod_{j != i} (alpha_i - alpha_j)^{-1}."""
    alpha = list(alpha)
    if len(set(alpha)) != len(alpha):
        raise GTRSError("repeated locator")
    out = []
    for i, ai in enumerate(alpha):
        prod = 1
        for j, aj in enumerate(alpha):
            if j != i:
                prod = field.mul(prod, field.sub(ai, aj))
        out.append(field.inv(prod))
    return out


def alpha_sum(field: GaloisField, alpha) -> int:
    acc = 0
    for a in alpha:
        acc = field.add(acc, a)
    return acc


def plus_dual_euclidean(params: GTRSParams) -> GTRSParams:
    """Closed-form Euclidean dual of a single-twist code: dimension n-k,
    multipliers u_i v_i^{-1}, twist coefficient -eta / (1 + a*eta)."""
    if not params.twist.is_plus():
        raise GTRSError("operation requires the single-twist (1, k-1) family")
    field = params.field
    eta = params.twist.eta[0]
    a = alpha_sum(field, params.alpha)
    denom = field.add(1, field.mul(a, eta))
    if denom == 0:
        raise GTRSError("excluded eta: 1 + a*eta = 0")
    new_eta = field.neg(field.div(eta, denom))
    u = u_vector(field, params.alpha)
    new_v = tuple(field.mul(ui, field.inv(vi)) for ui, vi in zip(u, params.v))
    nk = params.n - params.k
    spec = TwistSpec(k=nk, n=params.n, t=(1,), h=(nk - 1,), eta=(new_eta,))
    return GTRSParams(field, params.alpha, new_v, spec)


def is_mds_plus(field: GaloisField, alpha, eta: int, k: int) -> bool:
    """Subset-sum criterion: the single-twist code is MDS iff no k-subset of
    the locators has eta * sum = -1.  Single-twist codes are MDS or NMDS,
    so the complement is the NMDS test.  Refuses a scan of more than
    DEFAULT_DISTANCE_CAP subsets, the cap of `LinearCode.classify`."""
    alpha = list(alpha)
    n = len(alpha)
    if eta == 0:
        raise GTRSError("eta must be nonzero")
    if not (1 <= k <= n):
        raise GTRSError("need 1 <= k <= n")
    subsets = comb(n, k)
    if subsets > DEFAULT_DISTANCE_CAP:
        raise GTRSError(
            f"{subsets} locator subsets exceed the cap {DEFAULT_DISTANCE_CAP}")
    target = field.neg(field.inv(eta))  # sum == -1/eta triggers non-MDS
    for subset in combinations(alpha, k):
        if alpha_sum(field, subset) == target:
            return False
    return True

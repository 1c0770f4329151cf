"""Generic linear codes: duals under both inner products, exact minimum
distance by information-set enumeration, and MDS/AMDS/NMDS classification
from the ranks of column subsets."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .field import FieldError, GaloisField
from .linalg import Matrix, echelon_pair, frobenius_image

DEFAULT_DISTANCE_CAP = 1 << 24
_CHUNK = 1 << 14        # messages per vectorised step of min_distance


class CodeError(ValueError):
    pass


class DistanceCapExceeded(CodeError):
    pass


class LinearCode:
    """An [n, k] code given by a full-rank k x n generator matrix.

    k = 0 is represented by a zero-row generator so duality stays total.
    The field is the generator's.  The rank is checked here, the one place
    a code is made, whether from JSON or from a constructor.
    """

    def __init__(self, gen: Matrix):
        if gen.cols < 1:
            raise CodeError("length must be positive")
        if gen.rank() != gen.rows:
            raise CodeError("generator matrix is rank deficient")
        self.field = gen.field
        self.gen = gen
        self.n = gen.cols
        self.k = gen.rows

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.order}))"

    # -- duality -----------------------------------------------------------------

    def dual_euclidean(self) -> "LinearCode":
        return LinearCode(self.gen.kernel_basis())

    def dual_hermitian(self) -> "LinearCode":
        self.field._require_square()
        return LinearCode(frobenius_image(self.gen).kernel_basis())

    def is_hermitian_self_dual(self) -> bool:
        self.field._require_square()
        if self.n != 2 * self.k:
            return False
        return self.gen.mul(self.gen.conj_transpose()).is_zero()

    # -- equality of row spaces -----------------------------------------------------

    def equals(self, other: "LinearCode") -> bool:
        if self.field != other.field:
            raise CodeError("field mismatch")
        if self.n != other.n:
            raise CodeError("length mismatch")
        return self.gen.row_space_key() == other.gen.row_space_key()

    # -- distance / classification ----------------------------------------------------

    def min_distance(self, cap: int = DEFAULT_DISTANCE_CAP) -> int:
        """Exact minimum Hamming weight over all nonzero codewords, by
        Brouwer's information-set enumeration over Zimmermann's disjoint
        sets (M. Grassl, "Searching for linear codes with large minimum
        distance", 2006).

        Each of the m disjoint information sets has a generator [I | A]
        that is the identity on it.  Layer w enumerates, on every set, the
        messages with exactly w nonzero entries, the first of them 1; such
        a message's codeword weighs w + wt(msg A).  A codeword that layers
        1 .. w - 1 missed weighs at least w on every set, so at least m w:
        the scan stops before layer w once the best weight, which starts at
        the Singleton bound n - k + 1, is at most m w.  By layer k every
        nonzero codeword is a scalar multiple of an enumerated one, so the
        minimum is exact.

        `cap` bounds the messages enumerated: DistanceCapExceeded is raised
        before a layer that would take the total past it.  Layer w holds
        C(k, w) (q - 1)^(w - 1) messages on each set.
        """
        n, k = self.n, self.k
        if k == 0:
            raise CodeError("minimum distance of the zero code is undefined")
        import numpy as np

        q = self.field.order
        try:
            exp, log, addt = self.field.np_tables()
        except FieldError as exc:       # odd p past TABLE_CAP
            raise DistanceCapExceeded(str(exc)) from exc
        sets = [np.array(a, dtype=np.int32).reshape(k, n - k)
                for a in self._redundancies()]
        m = len(sets)
        best, total = n - k + 1, 0
        for w in range(1, k + 1):
            if best <= m * w:
                break
            units = (q - 1) ** (w - 1)
            supports = np.array(list(combinations(range(k), w)), dtype=np.intp)
            total += m * len(supports) * units
            if total > cap:
                raise DistanceCapExceeded(
                    f"layer {w} takes the messages enumerated to {total}, "
                    f"past the cap {cap}")
            for a in sets:
                zero, la = a == 0, log[a]
                size = len(supports) * units
                for start in range(0, size, _CHUNK):
                    idx = np.arange(start, min(start + _CHUNK, size))
                    sup, digits = supports[idx // units], idx % units
                    word = a[sup[:, 0]]
                    for j in range(1, w):
                        # the j-th nonzero entry is g^e, e the next digit
                        e, digits = digits % (q - 1), digits // (q - 1)
                        row = sup[:, j]
                        prod = np.where(zero[row], 0, exp[e[:, None] + la[row]])
                        word = word ^ prod if addt is None else addt[word, prod]
                    best = min(best, w + int((word != 0).sum(axis=1).min()))
                if best <= m * w:
                    break
        return best

    def _redundancies(self) -> list[list[list[int]]]:
        """The A of [I | A] on each disjoint information set, taken
        greedily: first the pivots of the cached RREF, then each time the
        pivots of an RREF that puts the columns not used yet first, while
        those columns have rank k.  Weights do not depend on column order,
        so A holds the columns off its set in any order."""
        n, k = self.n, self.k

        def redundancy(red, pivots):
            return [[x for c, x in enumerate(row) if c not in pivots]
                    for row in red.data]

        red, _, pivots = self.gen.rref()
        out = [redundancy(red, set(pivots))]
        used = list(pivots)
        while n - len(used) >= k:
            order = [c for c in range(n) if c not in used] + used
            red, _, pivots = Matrix(
                self.field, [[row[c] for c in order] for row in self.gen.data],
                cols=n).rref()
            if pivots[-1] >= n - len(used):
                break
            out.append(redundancy(red, set(pivots)))
            used += [order[p] for p in pivots]
        return out

    def classify(self, cap: int = DEFAULT_DISTANCE_CAP) -> str:
        """MDS / AMDS / NMDS / other, from the ranks of column subsets of G.

        d >= t iff every n - t + 1 columns of G have rank k, and the dual
        distance is the size of the smallest dependent column set
        (MacWilliams & Sloane, ch. 1 and 11).  The rules, in order:

        - MDS: every k columns are independent (d = n - k + 1);
        - NMDS: every k + 1 columns have rank k (d = n - k) and every k - 1
          columns are independent (dual distance k);
        - AMDS: every k + 1 columns have rank k, some k - 1 are dependent;
        - other: everything else.

        Each rule is one walk over column subsets that shares the
        elimination of common prefixes (`_every_subset_has_rank`), and the
        cost does not depend on q.  `cap` bounds the column subsets ranked:
        DistanceCapExceeded is raised before any work when
        C(n, k-1) + C(n, k) + C(n, k+1) exceeds it.
        """
        n, k = self.n, self.k
        if k == 0:
            raise CodeError("class of the zero code is undefined")
        subsets = comb(n, k - 1) + comb(n, k) + comb(n, k + 1)
        if subsets > cap:
            raise DistanceCapExceeded(
                f"{subsets} column subsets exceed the cap {cap}")
        cols = list(zip(*self.gen.data))
        if _every_subset_has_rank(self.field, cols, k, k):
            return "MDS"
        if not _every_subset_has_rank(self.field, cols, k + 1, k):
            return "other"
        if _every_subset_has_rank(self.field, cols, k - 1, k):
            return "NMDS"
        return "AMDS"

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        f = self.field
        return {
            "field": f.to_dict(),
            "n": self.n,
            "k": self.k,
            "generator": [[f.coeffs(x) for x in row] for row in self.gen.data],
        }

    @classmethod
    def from_dict(cls, d: dict, field: GaloisField | None = None) -> "LinearCode":
        f = field or GaloisField.from_dict(d["field"])
        rows = [[f.from_coeffs(c) for c in row] for row in d["generator"]]
        if d["k"] != len(rows):
            raise CodeError(f"declared k = {d['k']} but the generator has "
                            f"{len(rows)} rows")
        return cls(Matrix(f, rows, cols=d["n"]))


def _every_subset_has_rank(field: GaloisField, cols, s: int, k: int) -> bool:
    """True iff every s of the columns (vectors of length k) have rank
    min(s, k).

    A depth-first walk over the s-subsets in lexicographic order, on an
    explicit stack, extends each prefix's echelon basis by one column, so
    subsets that share a prefix share its elimination.  Only prefixes that
    can still be completed to s columns are made.  A prefix of rank
    min(s, k) passes every completion, since a rank neither drops nor
    passes k; one whose deficiency (size - rank) exceeds s - min(s, k)
    fails every completion, since each added column raises the rank by at
    most one."""
    n, need = len(cols), min(s, k)
    if need == 0:
        return True
    stack = [(0, 0, [])]            # (first column left, size, basis)
    while stack:
        start, size, basis = stack.pop()
        # children in reverse, so that the smallest column is walked first;
        # a child at column i leaves s - size - 1 columns to take after i
        for i in range(n - s + size, start - 1, -1):
            pair = echelon_pair(field, cols[i], basis)
            child = basis if pair is None else basis + [pair]
            if len(child) == need:
                continue
            if size + 1 - len(child) > s - need:
                return False
            stack.append((i + 1, size + 1, child))
    return True

"""Generic linear codes: duals under both inner products, exact minimum
distance by exhaustive enumeration, and MDS/AMDS/NMDS classification from
the ranks of column subsets."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .field import GaloisField
from .linalg import Matrix, echelon, frobenius_image

DEFAULT_DISTANCE_CAP = 1 << 24


class CodeError(ValueError):
    pass


class DistanceCapExceeded(CodeError):
    pass


class LinearCode:
    """An [n, k] code given by a full-rank k x n generator matrix.

    k = 0 is represented by a zero-row generator so duality stays total.
    """

    def __init__(self, field: GaloisField, gen: Matrix):
        if gen.field != field:
            raise CodeError("generator field mismatch")
        if gen.cols < 1:
            raise CodeError("length must be positive")
        if gen.rank() != gen.rows:
            raise CodeError("generator matrix is rank deficient")
        self.field = field
        self.gen = gen
        self.n = gen.cols
        self.k = gen.rows

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.order}))"

    # -- duality -----------------------------------------------------------------

    def dual_euclidean(self) -> "LinearCode":
        if self.k == 0:
            return LinearCode(self.field, Matrix.identity(self.field, self.n))
        return LinearCode(self.field, self.gen.kernel_basis())

    def dual_hermitian(self) -> "LinearCode":
        self.field._require_square()
        if self.k == 0:
            return LinearCode(self.field, Matrix.identity(self.field, self.n))
        return LinearCode(self.field, frobenius_image(self.gen).kernel_basis())

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

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.equals(other)

    def __hash__(self):
        return hash((self.field, self.n, self.gen.row_space_key()))

    # -- distance / classification ----------------------------------------------------

    def min_distance(self, cap: int = DEFAULT_DISTANCE_CAP) -> int:
        """Exact minimum Hamming weight over all nonzero codewords.

        Enumeration is over projective messages (first nonzero message symbol
        normalized to 1): every nonzero codeword is a nonzero scalar multiple
        of an enumerated one and Hamming weight is scale invariant, so the
        minimum is exact.  The work is vectorized in fixed-size chunks and the
        result is independent of chunking.
        """
        if self.k == 0:
            raise CodeError("minimum distance of the zero code is undefined")
        q = self.field.order
        if q ** self.k > cap:
            raise DistanceCapExceeded(
                f"q^k = {q}^{self.k} exceeds enumeration cap {cap}")
        import numpy as np

        exp, log, addt = self.field.np_tables()
        g = np.array(self.gen.data, dtype=np.int32)
        best = self.n

        def mul_vec(scalars, grow):
            # scalars: (N,), grow: (n,) -> (N, n) products
            out = exp[log[scalars][:, None] + log[grow][None, :]]
            mask = (scalars == 0)[:, None] | (grow == 0)[None, :]
            return np.where(mask, 0, out)

        chunk = 1 << 16
        for lead in range(self.k):
            nfree = self.k - lead - 1
            total = q ** nfree
            start = 0
            while start < total:
                idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
                cw = np.broadcast_to(g[lead], (len(idx), self.n)).copy()
                for j in range(nfree):
                    row = lead + 1 + j
                    sym = (idx // (q ** (nfree - 1 - j))) % q
                    prod = mul_vec(sym.astype(np.int32), g[row])
                    cw = cw ^ prod if addt is None else addt[cw, prod]
                w = int((cw != 0).sum(axis=1).min())
                best = min(best, w)
                if best == 1:
                    return 1
                start += chunk
        return best

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

        Each scan stops at its first failing subset, and the cost does not
        depend on q.  `cap` bounds the column subsets ranked:
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

        def every(size: int, rank: int) -> bool:
            return all(len(echelon(self.field, [cols[i] for i in s])) == rank
                       for s in combinations(range(n), size))

        if every(k, k):
            return "MDS"
        if not every(k + 1, k):
            return "other"
        return "NMDS" if every(k - 1, k - 1) else "AMDS"

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
        return cls(f, Matrix(f, rows, cols=d["n"]))


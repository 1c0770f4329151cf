"""Bundled reference instances of Hermitian self-dual [6, 3] codes over
GF(49).

The instance data encode field elements either as plain subfield integers or
as powers of one primitive element w: w = generator^5 of the default GF(49)
(`OMEGA_LOG`).  Then w^8 = 3, as rows 1 and 4, whose locators or twists are
subfield-coded, require.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import GaloisField
from .gtrs import GTRSError, plus_gtrs
from .selfdual import check_self_dual_criterion

OMEGA_LOG = 5  # w = generator^OMEGA_LOG in GaloisField(7, 2)

# element tokens: "wE" = w^E, otherwise a subfield integer; rows 1-3 are
# class I, rows 4-6 class II, and params (n, k, d) reads MDS for d = 4 and
# NMDS for d = 3
REFERENCE_ROWS = (
    {"params": (6, 3, 4),
     "alpha": ("1", "2", "3", "4", "5", "6"),
     "v": ("w4", "1", "w11", "3", "w9", "w1"),
     "eta": ("w4", "w12", "w20", "w28", "w36", "w44")},
    {"params": (6, 3, 4),
     "alpha": ("w1", "w2", "w5", "w11", "w31", "w36"),
     "v": ("w2", "w5", "w6", "w10", "w1", "w3"),
     "eta": ("w17", "w23", "w27", "w38", "5", "w45")},
    {"params": (6, 3, 3),
     "alpha": ("w1", "w2", "w5", "w11", "w31", "w36"),
     "v": ("w2", "w5", "w6", "w10", "w1", "w3"),
     "eta": ("w26",)},
    {"params": (6, 3, 4),
     "alpha": ("w4", "w28", "w20", "w44", "w12", "w36"),
     "v": ("w1", "w10", "w3", "1", "w2", "w11"),
     "eta": ("1", "2", "3", "4", "5", "6")},
    {"params": (6, 3, 4),
     "alpha": ("w1", "w25", "0", "w17", "w41", "w9"),
     "v": ("w2", "1", "w5", "w3", "w4", "w1"),
     "eta": ("3", "w14", "w17", "w18", "w29", "w36")},
    {"params": (6, 3, 3),
     "alpha": ("w1", "w25", "0", "w17", "w41", "w9"),
     "v": ("w2", "1", "w5", "w3", "w4", "w1"),
     "eta": ("w31",)},
)


def resolve_token(field: GaloisField, omega: int, token: str) -> int:
    if token.startswith("w"):
        return field.pow(omega, int(token[1:]))
    return field.check(int(token))


@dataclass
class RowReport:
    index: int
    passed: bool
    detail: str


def _row_holds(field: GaloisField, omega: int, row: dict,
               eta_index: int | None = None) -> bool:
    n, k, d = row["params"]
    alpha = [resolve_token(field, omega, t) for t in row["alpha"]]
    if len(set(alpha)) != len(alpha):
        return False
    v = [resolve_token(field, omega, t) for t in row["v"]]
    etas = row["eta"]
    if eta_index is not None:
        etas = (etas[eta_index],)
    for tok in etas:
        eta = resolve_token(field, omega, tok)
        if eta == 0:
            return False
        try:
            code = check_self_dual_criterion(plus_gtrs(field, alpha, v, eta, k))
        except ValueError:
            return False
        if code is None or code.min_distance() != d:
            return False
    return True


def verify_reference_rows(eta_index: int | None = None) -> list[RowReport]:
    """Verify every bundled row over the default GF(49) with w =
    generator^OMEGA_LOG: self-duality by `check_self_dual_criterion` plus
    exact minimum distance (`LinearCode.min_distance`, information-set
    enumeration).  An eta_index must exist in every row."""
    shared = min(len(row["eta"]) for row in REFERENCE_ROWS)
    if eta_index is not None and not 0 <= eta_index < shared:
        raise GTRSError(f"eta_index must lie in [0, {shared - 1}]: "
                        "an index must exist in every bundled row")
    field = GaloisField(7, 2)
    omega = field.pow(field.generator, OMEGA_LOG)
    reports = []
    for idx, row in enumerate(REFERENCE_ROWS, start=1):
        ok = _row_holds(field, omega, row, eta_index)
        verdict = "verified" if ok else "does not verify"
        reports.append(RowReport(
            idx, ok, f"{verdict} with w = generator^{OMEGA_LOG}"))
    return reports

"""Bundled reference instances of Hermitian self-dual [6, 3] codes over
GF(49).

The instance data encode field elements either as plain subfield integers or
as powers of a primitive element w.  The primitive-element convention is not
part of the data, so verification searches the primitive elements of the
default GF(49); the rows whose data are pure subfield values pin the
convention down to w^8 = 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import GaloisField
from .gtrs import GTRSError, plus_gtrs
from .selfdual import _self_dual_code

# element tokens: "wE" = w^E, otherwise a subfield integer
REFERENCE_ROWS = (
    {"class": "I", "a_zero": True, "params": (6, 3, 4),
     "alpha": ("1", "2", "3", "4", "5", "6"),
     "v": ("w4", "1", "w11", "3", "w9", "w1"),
     "eta": ("w4", "w12", "w20", "w28", "w36", "w44"),
     "label": "MDS", "norm3_convention": True},
    {"class": "I", "a_zero": False, "params": (6, 3, 4),
     "alpha": ("w1", "w2", "w5", "w11", "w31", "w36"),
     "v": ("w2", "w5", "w6", "w10", "w1", "w3"),
     "eta": ("w17", "w23", "w27", "w38", "5", "w45"),
     "label": "MDS", "norm3_convention": False},
    {"class": "I", "a_zero": False, "params": (6, 3, 3),
     "alpha": ("w1", "w2", "w5", "w11", "w31", "w36"),
     "v": ("w2", "w5", "w6", "w10", "w1", "w3"),
     "eta": ("w26",),
     "label": "NMDS", "norm3_convention": False},
    {"class": "II", "a_zero": True, "params": (6, 3, 4),
     "alpha": ("w4", "w28", "w20", "w44", "w12", "w36"),
     "v": ("w1", "w10", "w3", "1", "w2", "w11"),
     "eta": ("1", "2", "3", "4", "5", "6"),
     "label": "MDS", "norm3_convention": True},
    {"class": "II", "a_zero": False, "params": (6, 3, 4),
     "alpha": ("w1", "w25", "0", "w17", "w41", "w9"),
     "v": ("w2", "1", "w5", "w3", "w4", "w1"),
     "eta": ("3", "w14", "w17", "w18", "w29", "w36"),
     "label": "MDS", "norm3_convention": False},
    {"class": "II", "a_zero": False, "params": (6, 3, 3),
     "alpha": ("w1", "w25", "0", "w17", "w41", "w9"),
     "v": ("w2", "1", "w5", "w3", "w4", "w1"),
     "eta": ("w31",),
     "label": "NMDS", "norm3_convention": False},
)


def resolve_token(field: GaloisField, omega: int, token: str) -> int:
    if token.startswith("w"):
        return field.pow(omega, int(token[1:]))
    return field.check(int(token))


@dataclass
class RowReport:
    index: int
    passed: bool
    omega_log: int | None       # discrete log of the matching primitive element
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
            code = _self_dual_code(plus_gtrs(field, alpha, v, eta, k))
        except ValueError:
            return False
        if code is None or code.min_distance() != d:
            return False
    return True


def verify_reference_rows(eta_index: int | None = None) -> list[RowReport]:
    """Verify every bundled row over the default GF(49): self-duality plus
    exact minimum distance (`LinearCode.min_distance`, information-set
    enumeration), under a searched primitive-element
    convention.  Rows whose data pin the convention (subfield-coded
    entries) must verify under some w with w^8 = 3.  An eta_index must
    exist in every row."""
    shared = min(len(row["eta"]) for row in REFERENCE_ROWS)
    if eta_index is not None and not 0 <= eta_index < shared:
        raise GTRSError(f"eta_index must lie in [0, {shared - 1}]: "
                        "an index must exist in every bundled row")
    field = GaloisField(7, 2)
    three = 3  # subfield element fixed by every field automorphism
    candidates = field.primitive_elements()
    reports = []
    for idx, row in enumerate(REFERENCE_ROWS, start=1):
        pool = [w for w in candidates if field.pow(w, 8) == three] \
            if row["norm3_convention"] else candidates
        match = next((w for w in pool if _row_holds(field, w, row, eta_index)), None)
        if match is None:
            reports.append(RowReport(idx, False, None,
                                     "no primitive-element convention verifies this row"))
        else:
            reports.append(RowReport(idx, True, field.log[match],
                                     f"verified with w = generator^{field.log[match]}"))
    return reports

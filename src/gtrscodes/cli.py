"""Command-line surface: construct, verify, classify, dual, sweep, reference.

Exit codes: 0 success / verified, 1 verification failure, 2 usage or
precondition error, 3 internal invariant failure.  JSON is the canonical
output format; sweep catalogs can also be written as CSV with a fixed
column order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .codes import (DEFAULT_DISTANCE_CAP, CodeError, DistanceCapExceeded,
                    LinearCode)
from .field import FieldError, GaloisField, InvariantError, quadratic_extension
from .gtrs import (GTRSError, GTRSParams, code, dual_params, is_mds_plus,
                   plus_dual_euclidean)
from .linalg import LinalgError
from .reference import verify_reference_rows
from .selfdual import (ConstructionError, check_self_dual_criterion,
                       construct_class1, construct_class2, sweep_constructions)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting, so a bad
    command line gets the JSON error of exit 2; subparsers inherit it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(payload: str, out: str | None):
    # the payload is completed first, so --out gets the bytes stdout gets
    if not payload.endswith("\n"):
        payload += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_coeffs(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _list_of(ok):
    return lambda x: isinstance(x, list) and all(map(ok, x))


def _is_twist(x) -> bool:
    return (isinstance(x, list) and len(x) == 3 and _is_int(x[0])
            and _is_int(x[1]) and _is_coeffs(x[2]))


# JSON type of each key the loaders read; a missing key stays a KeyError.
_FIELD_SHAPE = {"p": _is_int, "m": _is_int,
                "modulus": lambda x: x is None or _is_coeffs(x),
                "generator": lambda x: x is None or _is_int(x) or _is_coeffs(x)}
_DATUM_SHAPE = {"alpha": _list_of(_is_coeffs), "v": _list_of(_is_coeffs),
                "k": _is_int, "twists": _list_of(_is_twist)}
_RAW_SHAPE = {"n": _is_int, "k": _is_int,
              "generator": _list_of(_list_of(_is_coeffs))}


def _check_shape(obj: dict, shape: dict, where: str = "") -> None:
    for key, ok in shape.items():
        if key in obj and not ok(obj[key]):
            raise UsageError(f"malformed input: {where}{key!r} has the wrong type")


def _load_input(path: str) -> tuple[GTRSParams | None, LinearCode | None]:
    """A file holds either a full twisted-code datum or a raw generator.  The
    shape of the document is checked here, before any constructor reads it;
    an integer past the digit limit or nesting past the stack is refused.
    A datum gives (params, None), and commands that need its code call
    `code(params)`; a raw generator gives (None, code)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
                raise
            raise UsageError(f"malformed input: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("input must be a JSON object")
    _check_shape(data, {"field": lambda x: isinstance(x, dict)})
    _check_shape(data["field"], _FIELD_SHAPE, "field ")
    field = GaloisField.from_dict(data["field"])
    if "twists" in data:
        _check_shape(data, _DATUM_SHAPE)
        return GTRSParams.from_dict(data, field=field), None
    _check_shape(data, _RAW_SHAPE)
    return None, LinearCode.from_dict(data, field=field)


def _parse_elements(field: GaloisField, text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(
            f"--x takes comma-separated integers, got {text!r}") from None
    return [field.check(x) for x in values]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    field = quadratic_extension(args.q)
    a_l = field.check(args.al)
    if args.x is not None:
        x = _parse_elements(field, args.x)
    else:
        x = list(field.subfield_elements()[:args.n])
    if len(x) != args.n:
        raise UsageError(f"x subset must have exactly n = {args.n} entries")
    if (args.m is None) != (args.cls == "I"):
        raise UsageError("class II requires --m" if args.m is None
                         else "class I takes no --m")
    result = (construct_class1(field, a_l, x) if args.m is None
              else construct_class2(field, a_l, args.m, x))
    _emit(_json(result.to_dict()), args.out)
    return 0


def cmd_verify(args) -> int:
    params, lin = _load_input(args.file)
    # Hermitian duality needs GF(q^2): refused before either route runs
    (lin if params is None else params).field._require_square()
    n, k = (lin.n, lin.k) if params is None else (params.n, params.k)
    report = {
        "n": n,
        "k": k,
        "hermitian_self_dual": None,
        "gram_zero": None,
        "thm4_polynomial_check": None,
        "reason": None,
    }
    gram = None
    if params is not None and params.twist.is_plus():
        try:
            # its Gram route answers gram_zero; it raises unless the
            # polynomial route agrees
            gram = check_self_dual_criterion(params) is not None
            report["thm4_polynomial_check"] = gram
        except ValueError as exc:
            report["thm4_polynomial_check"] = False
            report["reason"] = str(exc)
    if n % 2:
        report["reason"] = "n odd"
    if gram is None:
        # the criterion refused the datum, or there is none
        lin = code(params) if lin is None else lin
        gram = lin.is_hermitian_self_dual()
    report["gram_zero"] = gram
    report["hermitian_self_dual"] = gram
    _emit(_json(report), args.out)
    return 0 if report["hermitian_self_dual"] else 1


def cmd_classify(args) -> int:
    if args.cap <= 0:
        raise UsageError("caps must be positive")
    params, lin = _load_input(args.file)
    lin = code(params) if lin is None else lin
    report: dict = {"n": lin.n, "k": lin.k}
    subset_verdict = None
    if params is not None and params.twist.is_plus():
        subset_verdict = is_mds_plus(params.field, params.alpha,
                                     params.twist.eta[0], params.k)
        report["subset_criterion_mds"] = subset_verdict
    try:
        label = lin.classify(args.cap)
    except DistanceCapExceeded as exc:
        report["d"] = None
        report["class"] = None
        report["note"] = f"distance cap exceeded ({exc}); subset verdict only"
        if subset_verdict is None:
            raise UsageError(str(exc))
        _emit(_json(report), args.out)
        return 0
    if subset_verdict is not None and subset_verdict != (label == "MDS"):
        raise InvariantError("subset criterion disagrees with the column ranks")
    report["class"] = label
    if label == "other":
        try:
            report["d"] = lin.min_distance(args.cap)
        except DistanceCapExceeded as exc:
            report["d"] = None
            report["note"] = f"distance cap exceeded ({exc}); class only"
    else:
        report["d"] = lin.n - lin.k + (label == "MDS")
    _emit(_json(report), args.out)
    return 0


def cmd_dual(args) -> int:
    params, lin = _load_input(args.file)
    lin = code(params) if lin is None else lin
    if args.mode == "euclidean":
        _emit(_json(lin.dual_euclidean().to_dict()), args.out)
        return 0
    if args.mode == "hermitian":
        _emit(_json(lin.dual_hermitian().to_dict()), args.out)
        return 0
    if params is None:
        raise UsageError("closed-form duals need a twisted-code datum")
    dual = {"group-closed-form": dual_params,
            "plus-closed-form": plus_dual_euclidean}[args.mode](params)
    agrees = code(dual).equals(lin.dual_euclidean())
    payload = dual.to_dict()
    payload["agrees_with_kernel_dual"] = agrees
    _emit(_json(payload), args.out)
    return 0 if agrees else 1


SWEEP_COLUMNS = ("q", "n", "class", "a_l", "m", "subset", "eta",
                 "classification", "self_dual", "criterion_check")


def cmd_sweep(args) -> int:
    classes = ("I", "II") if args.cls == "both" else (args.cls,)
    rows = []
    notes = []
    for q in dict.fromkeys(args.q):     # a repeated q is swept once
        field = quadratic_extension(q)
        # sweep_constructions owns the length rule and its default; lengths
        # past q are dropped so several --q values can share one --n
        n_values = None
        if args.n:
            n_values = [n for n in args.n if n <= q]
            if not n_values:
                notes.append(f"q={q}: no admissible even lengths n = 2k <= q")
                continue
        results = sweep_constructions(field, n_values, classes=classes)
        if not results:
            notes.append(f"q={q}: sweep produced no constructions")
        for res in results:
            subset_key = ",".join(str(x) for x in res.x_subset)
            for eta, label in res.eta_list:
                # the sweep gave every listed eta its own polynomial verdict
                # (one route call per construction for the repeated codes)
                # and ran the Gram test once per distinct code, and raises
                # unless both held
                rows.append({
                    "q": q, "n": res.n, "class": res.construction,
                    "a_l": res.a_l, "m": res.m if res.m is not None else "",
                    "subset": subset_key, "eta": eta,
                    "classification": label,
                    "self_dual": True, "criterion_check": True,
                })
    rows.sort(key=lambda r: (r["q"], r["n"], r["class"], r["a_l"],
                             str(r["m"]), r["subset"], r["eta"]))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = _json({"rows": rows, "notes": notes})
    _emit(payload, args.out)
    return 0


def cmd_reference(args) -> int:
    reports = verify_reference_rows(eta_index=args.eta_index)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"row {rep.index}: {status} ({rep.detail})")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `gtrs` parser.  When `command` names a subcommand, only that
    subparser is declared, so a request pays for no other command's
    arguments.  Any other `command` (None, `-h`, a typo) declares all six,
    so help and usage errors read the same either way."""
    p = _Parser(
        prog="gtrs",
        description="Twisted Reed-Solomon codes: construction, duality, "
                    "Hermitian self-dual families, exact classification.")
    sub = p.add_subparsers(dest="command", required=True)

    def construct(c):
        c.add_argument("--class", dest="cls", choices=("I", "II"), required=True)
        c.add_argument("--q", type=int, required=True,
                       help="subfield size; the code lives over GF(q^2)")
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--al", type=int, required=True,
                       help="coset label, a subfield element (integer encoding)")
        c.add_argument("--m", type=int, help="direction exponent (class II)")
        c.add_argument("--x", help="comma-separated subfield elements "
                                   "(default: the first n)")
        c.add_argument("--out")

    def verify(vfy):
        vfy.add_argument("file")
        vfy.add_argument("--out")

    def classify(cla):
        cla.add_argument("file")
        cla.add_argument("--cap", type=int, default=DEFAULT_DISTANCE_CAP,
                         help="bound on messages enumerated for an 'other' "
                              "code's distance or column subsets ranked "
                              "(default: 2^24)")
        cla.add_argument("--out")

    def dual(d):
        d.add_argument("file")
        d.add_argument("--mode", default="euclidean",
                       choices=("euclidean", "hermitian", "group-closed-form",
                                "plus-closed-form"))
        d.add_argument("--out")

    def sweep(s):
        s.add_argument("--q", type=int, nargs="+", required=True)
        s.add_argument("--n", type=int, nargs="*")
        s.add_argument("--class", dest="cls", choices=("I", "II", "both"),
                       default="both")
        s.add_argument("--format", default="json", choices=("json", "csv"))
        s.add_argument("--out")

    def reference(r):
        r.add_argument("--eta-index", type=int, default=None)

    commands = {
        "construct": (construct, cmd_construct, "build a self-dual code family"),
        "verify": (verify, cmd_verify, "check Hermitian self-duality"),
        "classify": (classify, cmd_classify,
                     "exact [n,k,d] and MDS/NMDS class"),
        "dual": (dual, cmd_dual, "compute a dual code"),
        "sweep": (sweep, cmd_sweep, "catalog of self-dual constructions"),
        "reference": (reference, cmd_reference,
                      "verify the bundled GF(49) reference instances"),
    }
    for name in (command,) if command in commands else commands:
        declare, func, text = commands[name]
        s = sub.add_parser(name, help=text)
        declare(s)
        s.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        if any("\0" in arg for arg in argv):
            # only an in-process caller can pass one; open() would raise
            raise UsageError("arguments must not contain NUL bytes")
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except (UsageError, ConstructionError, GTRSError, FieldError, CodeError,
            LinalgError, OSError, json.JSONDecodeError, UnicodeDecodeError,
            KeyError, InvariantError) as exc:
        sys.stderr.write(_json({"error": type(exc).__name__,
                                "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())

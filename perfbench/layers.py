"""The traced layers and the per-layer metrics derived from their spans.

Every traced function gives ``<span>.calls``, ``<span>.s`` (inclusive time of
outermost calls) and ``<span>.self_s`` (time not covered by traced callees).
Values are per traced pass over the workload's input set.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import Spans, Target, outermost, self_times

PACKAGE = "gtrscodes"


def _projective_messages(args, result) -> float:
    # (q^k - 1) / (q - 1): the messages a completed min_distance call
    # enumerates at most (it may stop early once it finds weight 1).
    code = args[0]
    q = code.field.order
    return (q ** code.k - 1) // (q - 1)


def _count(args, result) -> float:
    return len(result)


TARGETS = [
    Target("field.construct", "gtrscodes.field:GaloisField", "__init__"),
    Target("field.np_tables", "gtrscodes.field:GaloisField", "np_tables"),
    Target("field.poly_roots", "gtrscodes.field:GaloisField", "poly_roots"),
    Target("linalg.matrix_new", "gtrscodes.linalg:Matrix", "__init__"),
    Target("linalg.rref", "gtrscodes.linalg:Matrix", "rref"),
    Target("linalg.mul", "gtrscodes.linalg:Matrix", "mul"),
    Target("linalg.kernel_basis", "gtrscodes.linalg:Matrix", "kernel_basis"),
    Target("codes.min_distance", "gtrscodes.codes:LinearCode", "min_distance",
           note=_projective_messages),
    Target("codes.classify", "gtrscodes.codes:LinearCode", "classify"),
    Target("codes.dual_euclidean", "gtrscodes.codes:LinearCode", "dual_euclidean"),
    Target("gtrs.generator_matrix", "gtrscodes.gtrs", "generator_matrix"),
    Target("gtrs.u_vector", "gtrscodes.gtrs", "u_vector"),
    Target("gtrs.closed_form_dual", "gtrscodes.gtrs", "dual_params"),
    Target("gtrs.closed_form_dual", "gtrscodes.gtrs", "plus_dual_euclidean"),
    Target("gtrs.is_mds_plus", "gtrscodes.gtrs", "is_mds_plus"),
    Target("selfdual.check_self_dual_criterion", "gtrscodes.selfdual",
           "check_self_dual_criterion"),
    Target("selfdual.zeta_roots", "gtrscodes.selfdual", "zeta_roots"),
    Target("selfdual.construct", "gtrscodes.selfdual", "construct_class1"),
    Target("selfdual.construct", "gtrscodes.selfdual", "construct_class2"),
    Target("selfdual.sweep_constructions", "gtrscodes.selfdual",
           "sweep_constructions", note=_count),
    Target("reference.verify_reference_rows", "gtrscodes.reference",
           "verify_reference_rows"),
] + [Target(f"cli.{cmd}", "gtrscodes.cli", f"cmd_{cmd}")
     for cmd in ("construct", "verify", "classify", "dual", "sweep", "reference")]

SPAN_NAMES = list(dict.fromkeys(t.span_name for t in TARGETS))

# Metrics computed from spans or from the run, beside calls / s / self_s.
DERIVED = {
    "codes.min_distance.codewords": ("count", "lower"),
    "codes.min_distance.codewords_per_s": ("1/s", "higher"),
    "codes.min_distance.cap_exceeded": ("count", "lower"),
    "selfdual.construct.rejected": ("count", "lower"),
    "selfdual.checks_per_row": ("ratio", "lower"),
    "selfdual.unique_frac": ("ratio", "higher"),
    "cli.exit1": ("count", "lower"),
    "cli.exit2": ("count", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric with its unit and direction, in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.s", "unit": "s", "better": "lower"})
        out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def span_totals(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, error counts by
    exception name, and the sum of notes over completed calls."""
    selfs = self_times(spans)
    outer = outermost(spans)
    tot = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "note": 0.0,
                  "errors": defaultdict(int)} for name in SPAN_NAMES}
    for i in range(len(spans)):
        t = tot.setdefault(spans.names[spans.name[i]],
                           {"calls": 0, "s": 0.0, "self_s": 0.0, "note": 0.0,
                            "errors": defaultdict(int)})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        if outer[i]:
            t["s"] += spans.end[i] - spans.start[i]
        err = spans.error[i]
        if err:
            t["errors"][spans.error_types[err]] += 1
        else:
            t["note"] += spans.note[i]
    return tot


def calls_by_op(spans: Spans) -> dict[int, Counter]:
    """Call counts per op id and span name."""
    out: dict[int, Counter] = defaultdict(Counter)
    for nid, op in zip(spans.name, spans.op):
        out[op][spans.names[nid]] += 1
    return out


def layer_metrics(spans: Spans, passes: int, catalog_rows: int,
                  exit_codes: list[int], overhead: float) -> dict[str, float]:
    """Per-pass per-layer metrics.  ``catalog_rows`` is the number of sweep
    catalog rows per pass (0 where the workload makes none); ``exit_codes``
    holds the exit code of every traced CLI request."""
    tot = span_totals(spans)
    out = {}
    for span in SPAN_NAMES:
        for key in ("calls", "s", "self_s"):
            out[f"{span}.{key}"] = tot[span][key] / passes
    md = tot["codes.min_distance"]
    out["codes.min_distance.codewords"] = md["note"] / passes
    out["codes.min_distance.codewords_per_s"] = (
        md["note"] / md["self_s"] if md["self_s"] > 0 else 0.0)
    out["codes.min_distance.cap_exceeded"] = (
        md["errors"].get("DistanceCapExceeded", 0) / passes)
    con = tot["selfdual.construct"]
    rejected = con["errors"].get("ConstructionError", 0)
    out["selfdual.construct.rejected"] = rejected / passes
    crit = tot["selfdual.check_self_dual_criterion"]["calls"]
    out["selfdual.checks_per_row"] = (crit / passes / catalog_rows
                                      if catalog_rows else 0.0)
    built = con["calls"] - sum(con["errors"].values())
    unique = tot["selfdual.sweep_constructions"]["note"]
    out["selfdual.unique_frac"] = unique / built if built else 0.0
    out["cli.exit1"] = exit_codes.count(1) / passes
    out["cli.exit2"] = exit_codes.count(2) / passes
    out["trace_overhead_frac"] = overhead
    return out

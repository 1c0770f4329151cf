"""Tests of the benchmark's own logic: span arithmetic, the tail rule, the
answer oracles, the tracer's coverage of call sites, and the agreement of
BENCHMARK.json with the code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gtrscodes import cli, selfdual  # noqa: E402
from tracer import Spans, Tracer, outermost, self_times  # noqa: E402


# -- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_merged_child_cover():
    s = Spans()
    root = s.add("root", 0.0, 10.0)
    a = s.add("a", 1.0, 4.0, parent=root)
    s.add("g", 2.0, 3.0, parent=a)
    s.add("b", 3.0, 6.0, parent=root)        # overlaps a: [1, 6] is covered once
    s.add("c", 8.0, 12.0, parent=root)       # clipped to the parent's end
    assert self_times(s) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_inclusive_time_counts_recursion_once():
    s = Spans()
    outer = s.add("linalg.rref", 0.0, 5.0)
    inner = s.add("linalg.rref", 1.0, 3.0, parent=outer)
    s.add("linalg.mul", 3.5, 4.0, parent=outer)
    s.add("linalg.rref", 6.0, 7.0)
    assert outermost(s) == [True, False, True, True]
    tot = layers.span_totals(s)["linalg.rref"]
    assert tot["calls"] == 3
    assert tot["s"] == pytest.approx(6.0)
    assert tot["self_s"] == pytest.approx((5 - 2 - 0.5) + 2 + 1)
    assert inner == 1


def test_layer_metrics_per_pass_and_ratios():
    s = Spans()
    s.add("codes.min_distance", 0.0, 2.0, note=1000)
    s.add("codes.min_distance", 2.0, 2.5, error="DistanceCapExceeded", note=0)
    s.add("selfdual.construct", 3.0, 4.0)
    s.add("selfdual.construct", 4.0, 4.5, error="ConstructionError")
    s.add("selfdual.sweep_constructions", 2.9, 5.0, note=1)
    m = layers.layer_metrics(s, passes=2, catalog_rows=0, exit_codes=[0, 1, 1, 2],
                             overhead=0.25)
    assert m["codes.min_distance.calls"] == 1
    assert m["codes.min_distance.codewords"] == 500
    assert m["codes.min_distance.codewords_per_s"] == pytest.approx(1000 / 2.5)
    assert m["codes.min_distance.cap_exceeded"] == 0.5
    assert m["selfdual.construct.rejected"] == 0.5
    assert m["selfdual.unique_frac"] == 1.0
    assert m["selfdual.checks_per_row"] == 0.0
    assert (m["cli.exit1"], m["cli.exit2"]) == (1.0, 0.5)
    assert set(m) == {spec["name"] for spec in layers.metric_specs()}


# -- tail rule -------------------------------------------------------------------

@pytest.mark.parametrize("per_pass", [11, 33, 40, 600])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_tail_leaves_ten_samples_above(per_pass, passes):
    pct = run.tail_percentile(per_pass)
    values = list(range(per_pass * passes))
    tail = run.percentile(values, pct)
    assert sum(v > tail for v in values) == 10 * passes
    # no higher percentile on the same grid keeps ten samples above in one pass
    single = list(range(per_pass))
    above = sum(v > run.percentile(single, pct + 100.0 / per_pass) for v in single)
    assert above < 10


def test_tail_without_ten_samples_is_the_maximum():
    assert run.tail_percentile(1) == 100.0
    assert run.percentile([3.0, 1.0], 100.0) == 3.0
    assert run.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


# -- oracles ----------------------------------------------------------------------

def test_classify_oracle_catches_a_wrong_label():
    mds = {"label": "MDS", "over_cap": False}
    assert workloads.classify_outcome(mds, "MDS") == workloads.OK
    assert workloads.classify_outcome(mds, "NMDS") == workloads.WRONG
    assert workloads.classify_outcome(mds, "AMDS") == workloads.WRONG
    assert workloads.classify_outcome(mds, None) == workloads.WRONG
    assert workloads.classify_outcome({"label": "NMDS", "over_cap": True},
                                      None) == workloads.REFUSED
    assert workloads.classify_outcome(mds, {"error": "boom"}) == workloads.ERROR


def test_per_q_commands_join_to_the_one_command_catalog():
    qs = (3, 5, 7)
    joined = workloads.Sweep.catalog(
        [workloads.run_cli(workloads.Sweep.argv([q])) for q in qs])
    assert joined == workloads.run_cli(workloads.Sweep.argv(qs))["stdout"]


def test_sweep_items_are_rows_sharing_their_command_time():
    outputs = [{"stdout": "h\nr1\nr2\n"}, {"stdout": "h\nr3\n"}, {"stdout": ""}]
    items = workloads.Sweep.item_latencies([outputs], [4.0, 1.0, 0.5])
    assert items == [2.0, 2.0, 1.0, 0.5]


def test_sweep_oracle_catches_a_flipped_label():
    catalog = workloads.run_cli(workloads.Sweep.argv([5]))["stdout"]
    good = workloads.check_sweep_rows(catalog)
    rows = list(csv.DictReader(io.StringIO(catalog)))
    i = good.index(workloads.OK)
    rows[i]["classification"] = "NMDS" if rows[i]["classification"] == "MDS" else "MDS"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cli.SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    bad = workloads.check_sweep_rows(buf.getvalue())
    assert bad[i] == workloads.WRONG
    assert bad[:i] + bad[i + 1:] == good[:i] + good[i + 1:]


def test_cli_oracle_catches_a_wrong_class(tmp_path):
    wl = workloads.Cli()
    inputs = wl.generate(wl.setup(), 7, str(tmp_path))
    i = next(j for j, e in enumerate(inputs.expected)
             if e["cmd"] == "classify" and not e["over_cap"])
    out = wl.execute(None, inputs.ops[i])
    assert workloads.cli_outcome(inputs.fields, inputs.expected[i], out) == workloads.OK
    reply = json.loads(out["stdout"])
    reply["class"] = "NMDS" if reply["class"] == "MDS" else "MDS"
    out["stdout"] = json.dumps(reply)
    assert workloads.cli_outcome(inputs.fields, inputs.expected[i], out) == workloads.WRONG


def test_items_count_once_with_their_worst_outcome():
    ok, refused, wrong = workloads.OK, workloads.REFUSED, workloads.WRONG
    items = workloads.per_item([[ok, refused, ok], [ok, refused, wrong]])
    assert items == [ok, refused, wrong]
    checks = run.summarize_checks({"outcomes": items, "invariants": {}})
    assert (checks["attempted"], checks["failed"]) == (3, 2)


def test_proportional_allocation():
    picks = workloads.proportional({"a": 50, "b": 30, "c": 20, "d": 1}, 10)
    assert sum(picks.values()) == 10
    assert picks == {"a": 5, "b": 3, "c": 2, "d": 0}


# -- tracer coverage ----------------------------------------------------------------

def _profile_counts(fn, code_objects):
    counts = dict.fromkeys(code_objects, 0)

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1
    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_tracer_sees_every_call_site_and_restores_bindings():
    originals = {name: getattr(selfdual, name)
                 for name in ("check_self_dual_criterion", "zeta_roots")}
    argv = workloads.Sweep.argv([5])
    plain = workloads.run_cli(argv)["stdout"]
    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    with tracer:
        assert cli.check_self_dual_criterion is not originals["check_self_dual_criterion"]
        counts = _profile_counts(lambda: workloads.run_cli(argv),
                                 [f.__code__ for f in originals.values()])
        traced = workloads.run_cli(argv)["stdout"]
    assert traced == plain
    assert cli.check_self_dual_criterion is originals["check_self_dual_criterion"]
    import gtrscodes
    assert gtrscodes.zeta_roots is originals["zeta_roots"]
    tot = layers.span_totals(tracer.spans)
    for name, fn in originals.items():
        # two traced runs; the profiler watched the first one only
        assert tot[f"selfdual.{name}"]["calls"] == 2 * counts[fn.__code__] > 0
    assert tot["cli.sweep"]["calls"] == 2


# -- BENCHMARK.json ---------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert bench["per_layer"] == layers.metric_specs()
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predicted = json.load(fh)["layers"]
    names = set(layers.SPAN_NAMES) | set(layers.DERIVED)
    assert set(predicted) == names

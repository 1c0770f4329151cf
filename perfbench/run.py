"""gtrscodes benchmark.

    python3 perfbench/run.py --workload sweep|classify|cli|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every workload runs in its own process, one
thread, closed loop (each operation starts when the previous one ends).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
package's layers and reports per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GTRS_DISTANCE_CAP", None)   # the program sees the default cap

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
TAIL_MIN_ABOVE = 10
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
             "item_tail_ms": "ms", "peak_rss_mb": "MB"}


def tail_percentile(items_per_pass: int, min_above: int = TAIL_MIN_ABOVE) -> float:
    """The highest percentile that leaves ``min_above`` samples above it in
    one pass; with fewer samples than that, the maximum (100)."""
    if items_per_pass <= min_above:
        return 100.0
    return 100.0 * (items_per_pass - min_above) / items_per_pass


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct`` % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def machine_info() -> dict:
    import numpy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{idx}/level") as a, open(f"{base}/{idx}/type") as b, \
                    open(f"{base}/{idx}/size") as c:
                info["caches"][f"L{a.read().strip()}-{b.read().strip()}"] = c.read().strip()
        except OSError:
            continue
    return info


def setup_seconds(workload: str) -> list[float]:
    """Process start to the end of set-up, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(t1 - t0)
    return times


def timed_passes(wl, ctx, ops, seconds: float, min_passes: int, tracer=None):
    """Repeat the op list at least ``min_passes`` times, and then as long as
    one more pass of average length is expected to end within ``seconds``.
    Stopping before a pass that would overrun, not after it, keeps the pass
    count from flipping between runs when one pass is a large share of the
    time.  Returns outputs and op latencies per pass, and per-pass wall
    times."""
    passes, latencies, walls = [], [], []
    clock = time.perf_counter
    begin = clock()
    while len(passes) < min_passes or \
            clock() - begin + statistics.fmean(walls) <= seconds:
        outputs, lat = [], []
        t_pass = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(passes) * len(ops) + i
            t0 = clock()
            try:
                out = wl.execute(ctx, op)
            except Exception as exc:  # counted as a failed item, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            lat.append(clock() - t0)
            outputs.append(out)
        walls.append(clock() - t_pass)
        passes.append(outputs)
        latencies.append(lat)
    return passes, latencies, walls


def median_per_op(latencies: list[list[float]]) -> list[float]:
    """Each op's median latency over the passes.  The host drifts between a
    fast and a slow state in bursts of seconds.  A burst touches a few ops
    of one pass, so it moves every pass total but few per-op medians; a
    per-op minimum would instead take some ops from a fast burst and the
    rest from the slow state."""
    return [statistics.median(op) for op in zip(*latencies)]


def summarize_checks(checked: dict) -> dict:
    outcomes = checked["outcomes"]
    counts = {k: outcomes.count(k) for k in ("ok", "refused", "wrong", "error")}
    attempted = len(outcomes)
    failed = attempted - counts["ok"]
    return {"attempted": attempted, "failed": failed, "counts": counts,
            "fail_frac": failed / attempted if attempted else 1.0,
            "invariants": checked["invariants"],
            "correct": attempted > 0 and counts["error"] == 0
            and all(checked["invariants"].values())}


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    name = wl.name
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = setup_seconds(name)
    ctx = wl.setup()
    workdir = os.path.join(OUT_DIR, f"{name}-inputs-s{seed}")
    inputs = wl.generate(ctx, seed, workdir)
    result = {"workload": name, "why": wl.why, "seed": seed, "trace": int(trace),
              "seconds": seconds, "input_digest": inputs.digest,
              "input_properties": inputs.properties, "machine": machine_info()}

    if not trace:
        passes, lat, walls = timed_passes(wl, ctx, inputs.ops, seconds, wl.min_passes)
        checks = summarize_checks(wl.check(inputs, passes))
        typical = median_per_op(lat)
        items = wl.item_latencies(passes, typical) if hasattr(wl, "item_latencies") \
            else typical
        tail_pct = tail_percentile(len(items))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(typical),
            "item_p50_ms": 1e3 * statistics.median(items),
            "item_tail_ms": 1e3 * percentile(items, tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result.update(passes=len(walls), pass_walls_s=walls, op_latencies_s=typical,
                      samples=len(items), tail_percentile=tail_pct, setup_probes_s=setup)
        units = E2E_UNITS
    else:
        from layers import PACKAGE, TARGETS, calls_by_op, layer_metrics, metric_specs
        from tracer import Tracer
        base, base_lat, base_walls = timed_passes(wl, ctx, inputs.ops, seconds / 2, 1)
        tracer = Tracer(PACKAGE, TARGETS)
        with tracer:
            traced, traced_lat, walls = timed_passes(wl, ctx, inputs.ops, seconds / 2, 1,
                                                     tracer)
        checked = wl.check(inputs, base + traced)
        checks = summarize_checks(checked)
        exit_codes = [o["rc"] for p in traced for o in p if isinstance(o, dict) and "rc" in o]
        overhead = sum(median_per_op(traced_lat)) / sum(median_per_op(base_lat)) - 1
        metrics = layer_metrics(tracer.spans, len(walls), checked.get("catalog_rows", 0),
                                exit_codes, overhead)
        units = {m["name"]: m["unit"] for m in metric_specs()}
        if hasattr(wl, "op_label"):
            per_op = defaultdict(Counter)
            for op_id, calls in calls_by_op(tracer.spans).items():
                per_op[wl.op_label(inputs.ops[op_id % len(inputs.ops)])].update(calls)
            result["per_op_calls"] = {label: {k: round(v / len(walls), 3)
                                              for k, v in c.items()}
                                      for label, c in per_op.items()}
        result.update(passes=len(walls), untraced_pass_walls_s=base_walls,
                      traced_pass_walls_s=walls, spans=len(tracer.spans))
        tracer.spans.write(os.path.join(OUT_DIR, f"spans-{name}-s{seed}.tsv.gz"))

    result["checks"] = checks
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(OUT_DIR, f"{name}-s{seed}-t{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    return result


def report(result: dict) -> str:
    """Human-readable summary of one workload run."""
    c = result["checks"]
    lines = [f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}, "
             f"inputs {result['input_digest'][:16]})",
             f"   why: {result['why']}",
             f"   inputs: {json.dumps(result['input_properties'], sort_keys=True)}",
             f"   answer checks: {'PASS' if c['correct'] else 'FAIL'} "
             f"{json.dumps(c['invariants'], sort_keys=True)}; "
             f"outcomes {json.dumps(c['counts'], sort_keys=True)}; "
             f"fail_frac = {c['failed']}/{c['attempted']} = {c['fail_frac']:.6f} ratio"]
    if "tail_percentile" in result:
        lines.append(f"   samples: {result['samples']} items from {len(result['op_latencies_s'])} "
                     f"ops, each op the median of {result['passes']} passes; "
                     f"tail = p{result['tail_percentile']:.2f}")
    for name, m in result["metrics"].items():
        if result["trace"] and name.endswith((".calls", ".s", ".self_s")) \
                and m["value"] == 0:
            continue
        lines.append(f"   {name:48s} {m['value']:>16.6f} {m['unit']}")
    for label, calls in result.get("per_op_calls", {}).items():
        sel = {k: v for k, v in calls.items() if k.startswith("selfdual.")}
        lines.append(f"   {label}: {json.dumps(sel, sort_keys=True)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "gtrscodes")):
        sys.stderr.write(f"perfbench: no package source under {ROOT}/src\n")
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            # fresh process per workload: set-up and peak memory stay per workload
            rc = subprocess.call([sys.executable, os.path.abspath(__file__),
                                  "--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], cwd=ROOT)
            status = status or rc
        return status
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(report(result))
    print(json.dumps({"correct": result["checks"]["correct"],
                      "attempted": result["checks"]["attempted"],
                      "failed": result["checks"]["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

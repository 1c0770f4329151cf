"""The three benchmark workloads: input generation, the timed operations and
the answer checks.

Each workload turns a seed into a fixed list of operations before any timing
starts.  The program only ever sees those generated inputs.  Answers are
checked after timing, against oracles that do not share the code path being
timed (the subset criterion instead of enumeration, orthogonality instead of
the kernel routine).  A wrong or refused answer is counted, never raised.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
from collections import Counter

from gtrscodes import cli, codes, gtrs, selfdual
from gtrscodes.field import GaloisField, quadratic_extension

OK, REFUSED, WRONG, ERROR = "ok", "refused", "wrong", "error"
SEVERITY = (OK, REFUSED, WRONG, ERROR)
CAP = codes.DEFAULT_DISTANCE_CAP


def per_item(outcomes_per_pass) -> list[str]:
    """One outcome per input item: the worst it got in any pass.  Counting
    items rather than item runs keeps ``attempted`` and ``failed`` a function
    of the seed alone, however many passes the run had time for."""
    return [max(seen, key=SEVERITY.index) for seen in zip(*outcomes_per_pass)]


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_cli(argv: list[str]) -> dict:
    """One in-process ``gtrs`` request; stdout and stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Inputs:
    """Generated operations plus what the checks and the report need."""

    def __init__(self, ops, expected, properties, digest_of, fields=None):
        self.ops = ops                  # what the timed loop executes
        self.expected = expected        # one entry per op, for the checks
        self.properties = properties    # input properties for the report
        self.digest = digest(digest_of)
        self.fields = fields            # q -> GF(q^2), for the checks


# ---------------------------------------------------------------------------
# sweep: the catalog command, self-duality construction layer
# ---------------------------------------------------------------------------

class Sweep:
    name = "sweep"
    why = ("gtrs sweep over q = 3..13: selfdual, generator_matrix, rref and "
           "scalar field ops do nearly all the work and codes does none.")
    QS = (3, 5, 7, 9, 11, 13)
    GROUPS = (QS[:-1], QS[-1:])
    min_passes = 1          # one pass outlasts a run; traced runs make two

    @staticmethod
    def argv(qs) -> list[str]:
        return ["sweep", "--q", *map(str, qs), "--class", "both", "--format", "csv"]

    def setup(self):
        return None          # every pass builds its own fields

    def generate(self, ctx, seed: int, workdir: str) -> Inputs:
        # `gtrs sweep --q 3 5 7 9 11 13` split into `--q 3 5 7 9 11` (784
        # rows, about 20 s) and `--q 13` (553 rows, about 18 s): the work is
        # the same, the joined catalogs equal the one-command catalog, and
        # q = 13 gets its own latency and op id.
        ops = [self.argv(qs) for qs in self.GROUPS]
        fields = [quadratic_extension(q) for q in self.QS]
        return Inputs(ops, [None] * len(ops), {
            "field_orders": [f.order for f in fields],
            "characteristics": [f.p for f in fields],
            "note": "the catalog command takes no random input; the seed "
                    "does not change it",
        }, {"ops": ops})

    def op_label(self, op) -> str:
        return "q=" + ",".join(op[2:op.index("--class")])

    def execute(self, ctx, op):
        return run_cli(op)

    @staticmethod
    def item_latencies(passes, op_latencies) -> list[float]:
        """The items of a sweep are its catalog rows: a command that printed
        r rows in t seconds gives each of them the latency t / r.  Two
        commands are too few for a median or a tail.  Over rows, the median
        falls on the q = 3..11 command and the tail on the q = 13 one: each
        runs for many seconds, so a short burst of host speed moves it
        little."""
        items = []
        for out, t in zip(passes[0], op_latencies):
            rows = max(1, out.get("stdout", "").count("\n") - 1)
            items += [t / rows] * rows
        return items

    @staticmethod
    def catalog(outputs) -> str:
        """Join per-command CSV catalogs into one (a single header)."""
        parts = [o.get("stdout", "") for o in outputs]
        head, _, _ = parts[0].partition("\n")
        return head + "\n" + "".join(p.partition("\n")[2] for p in parts)

    def check(self, inputs: Inputs, passes) -> dict:
        catalogs = [self.catalog(p) for p in passes]
        invariants = {"exit_codes_zero": all(o.get("rc") == 0 for p in passes for o in p)}
        if len(catalogs) > 1:
            invariants["catalogs_byte_identical"] = len(set(catalogs)) == 1
        outcomes = check_sweep_rows(catalogs[0])
        return {"outcomes": outcomes, "invariants": invariants,
                "catalog_rows": len(outcomes)}


def sweep_alpha(field: GaloisField, cls: str, a_l: int, m, x) -> list[int]:
    """The class I / class II coset locators, straight from their definition."""
    w = field.generator
    if cls == "I":
        return [field.add(field.mul(a_l, w), xi) for xi in x]
    beta = field.pow(w, int(m))
    return [field.add(a_l, field.mul(beta, xi)) for xi in x]


def check_sweep_rows(catalog: str) -> list[str]:
    """One outcome per catalog row: the row must report self-duality and the
    criterion as true, and its label must equal the subset criterion."""
    fields = {}
    outcomes = []
    for row in csv.DictReader(io.StringIO(catalog)):
        q = int(row["q"])
        if q not in fields:
            fields[q] = quadratic_extension(q)
        f = fields[q]
        x = [int(t) for t in row["subset"].split(",")]
        alpha = sweep_alpha(f, row["class"], int(row["a_l"]), row["m"], x)
        exact = "MDS" if gtrs.is_mds_plus(f, alpha, int(row["eta"]),
                                          len(alpha) // 2) else "NMDS"
        good = (row["self_dual"] == "True" and row["criterion_check"] == "True"
                and row["classification"] == exact)
        outcomes.append(OK if good else WRONG)
    return outcomes


# ---------------------------------------------------------------------------
# classify: exhaustive-distance classification, codes layer
# ---------------------------------------------------------------------------

class Classify:
    name = "classify"
    why = ("Criterion-5 single-twist codes over GF(9), GF(25), GF(49): the "
           "min_distance enumerator dominates and selfdual never runs.")
    QS = (3, 5, 7)
    items_per_pass = 600
    min_passes = 3

    def setup(self):
        fields = {}
        for q in self.QS:
            f = quadratic_extension(q)
            f.np_tables()
            fields[q] = f
        return fields

    @classmethod
    def population(cls, fields):
        """Every criterion-5 code: subfield locators, v = 1, every k and eta,
        without the cap filter.  Yields (q, alpha, k, eta, mds)."""
        for q in cls.QS:
            f = fields[q]
            sub = f.subfield_elements()
            for n in range(2, min(q, 6) + 1):
                for alpha in itertools.combinations(sub, n):
                    for k in range(1, n):
                        for eta in range(1, f.order):
                            yield q, alpha, k, eta, gtrs.is_mds_plus(f, alpha, eta, k)

    def generate(self, fields, seed: int, workdir: str) -> Inputs:
        strata: dict[tuple, list] = {}
        for item in self.population(fields):
            q, alpha, k, eta, mds = item
            strata.setdefault((q, len(alpha), k, mds), []).append(item)
        total = sum(len(v) for v in strata.values())
        picks = proportional(
            {key: len(v) for key, v in strata.items()}, self.items_per_pass)
        rng = random.Random(seed)
        sample = []
        for key in sorted(strata):
            sample.extend(rng.sample(strata[key], picks[key]))
        rng.shuffle(sample)
        ops = [(q, alpha, k, eta) for q, alpha, k, eta, _ in sample]
        expected = []
        for q, alpha, k, eta, mds in sample:
            n, order = len(alpha), q * q
            over = order ** k > CAP or (not mds and order ** (n - k) > CAP)
            expected.append({"label": "MDS" if mds else "NMDS", "over_cap": over})
        return Inputs(ops, expected, {
            "field_orders": [q * q for q in self.QS],
            "characteristics": [fields[q].p for q in self.QS],
            "population": total,
            "items": len(ops),
            "share_above_cap": sum(e["over_cap"] for e in expected) / len(ops),
            "share_nmds": sum(e["label"] == "NMDS" for e in expected) / len(ops),
            "sampling": "uniform, stratified proportionally by (q, n, k, verdict)",
        }, {"ops": ops})

    def execute(self, fields, op):
        q, alpha, k, eta = op
        f = fields[q]
        params = gtrs.plus_gtrs(f, alpha, [1] * len(alpha), eta, k)
        try:
            return gtrs.code(params).classify()
        except codes.DistanceCapExceeded:
            return None

    def check(self, inputs: Inputs, passes) -> dict:
        outcomes = per_item([classify_outcome(exp, label)
                             for exp, label in zip(inputs.expected, outputs)]
                            for outputs in passes)
        return {"outcomes": outcomes, "invariants": {
            "passes_agree": all(p == passes[0] for p in passes)}}


def classify_outcome(expected: dict, label) -> str:
    if isinstance(label, dict):
        return ERROR
    if label is None:
        return REFUSED if expected["over_cap"] else WRONG
    if label not in ("MDS", "NMDS") or label != expected["label"]:
        return WRONG
    return OK


def proportional(sizes: dict, total: int) -> dict:
    """Largest-remainder allocation of ``total`` picks over strata."""
    whole = sum(sizes.values())
    quota = {k: total * v / whole for k, v in sizes.items()}
    picks = {k: int(v) for k, v in quota.items()}
    rest = sorted(sizes, key=lambda k: (picks[k] - quota[k], k))
    for k in rest[:total - sum(picks.values())]:
        picks[k] += 1
    return picks


# ---------------------------------------------------------------------------
# cli: per-request JSON datum files, field construction layer
# ---------------------------------------------------------------------------

# (field q for GF(q^2), command, datum kind, n, k) per request.  Kinds:
#   selfdual    a constructed Hermitian self-dual datum (verify exits 0)
#   random      random locators and multipliers (verify normally exits 1)
#   mds / nmds  random locators, eta chosen to make the code MDS / NMDS
#   subgroup    locators form a multiplicative subgroup
#   I / II      a construct request of that class
#
# The groups are sized so that the two order statistics the report takes
# fall inside a run of requests of one field and one cost, never on the edge
# between two cost levels: with 49 requests the median is the 25th slowest
# (inside the GF(169) group) and the tail is the 11th slowest (inside the
# GF(2^8) group).
CLI_MIX = [
    # the slowest four
    (37, "classify", "mds", 4, 2),         # GF(37^2): np_tables above the cap
    (7, "classify", "nmds", 12, 4),        # dual needs 49^8 messages
    (64, "verify", "random", 6, 3),        # GF(2^12): above the cap
    (64, "dual:euclidean", "random", 6, 3),
    # GF(2^8): dense tables below the cap; holds the tail
    *[(16, "verify", "selfdual", 8, 4)] * 5,
    *[(16, "dual:hermitian", "random", 8, 4)] * 4,
    # between the two groups
    (7, "classify", "mds", 6, 4),
    (7, "classify", "nmds", 6, 2),
    (7, "reference", None, 0, 0),
    (13, "construct", "I", 6, 3),
    (13, "construct", "II", 6, 3),
    (13, "classify", "mds", 4, 2),
    (13, "classify", "nmds", 4, 2),
    # GF(169): holds the median
    (13, "verify", "selfdual", 6, 3),
    (13, "verify", "selfdual", 4, 2),
    (13, "verify", "random", 6, 3),
    (13, "dual:euclidean", "random", 6, 3),
    (13, "dual:euclidean", "random", 4, 2),
    (13, "dual:hermitian", "random", 6, 3),
    (13, "dual:hermitian", "random", 4, 2),
    (13, "dual:plus-closed-form", "random", 6, 3),
    (13, "dual:plus-closed-form", "random", 4, 2),
    # the fastest twenty
    (7, "construct", "I", 6, 3),
    (7, "construct", "II", 4, 2),
    (7, "verify", "selfdual", 6, 3),
    (7, "verify", "selfdual", 4, 2),
    (7, "verify", "random", 6, 3),
    (7, "classify", "mds", 6, 3),
    (7, "dual:euclidean", "random", 6, 3),
    (7, "dual:hermitian", "random", 6, 3),
    (7, "dual:hermitian", "random", 4, 2),
    (7, "dual:plus-closed-form", "random", 6, 3),
    (7, "dual:group-closed-form", "subgroup", 8, 3),
    (7, "reference:0", None, 0, 0),
    (8, "construct", "I", 4, 2),
    (8, "verify", "selfdual", 6, 3),
    (8, "verify", "random", 6, 3),
    (8, "classify", "mds", 6, 3),
    (8, "dual:hermitian", "random", 6, 3),
    (8, "dual:group-closed-form", "subgroup", 7, 3),
    (37, "verify", "selfdual", 6, 3),
    (37, "dual:plus-closed-form", "random", 6, 3),
]


class Cli:
    name = "cli"
    why = ("In-process gtrs requests on generated JSON data over fields of "
           "order 49 to 4096: every request rebuilds its field, so field "
           "construction and np_tables dominate.")
    min_passes = 3

    def setup(self):
        return None          # every request builds its field from its file

    def generate(self, ctx, seed: int, workdir: str) -> Inputs:
        rng = random.Random(seed)
        fields = {q: quadratic_extension(q) for q in sorted({m[0] for m in CLI_MIX})}
        reqs = [cli_request(rng, fields[q], command, kind, n, k)
                for q, command, kind, n, k in CLI_MIX]
        rng.shuffle(reqs)
        os.makedirs(workdir, exist_ok=True)
        ops, seen, repeats = [], set(), 0
        for i, (argv, exp, datum) in enumerate(reqs):
            if datum is not None:
                path = os.path.join(workdir, f"r{i:02d}.json")
                with open(path, "w") as fh:
                    json.dump(datum, fh, sort_keys=True)
                argv = [path if a == "{file}" else a for a in argv]
            ops.append(argv)
            repeats += exp["q"] in seen
            seen.add(exp["q"])
        used = [fields[q] for q in sorted(seen)]
        return Inputs(ops, [r[1] for r in reqs], {
            "field_orders": [f.order for f in used],
            "characteristics": [f.p for f in used],
            "requests": len(reqs),
            "share_field_built_earlier_in_pass": repeats / len(reqs),
            "commands": dict(Counter(a[0] for a in ops)),
        }, [[argv, datum] for argv, _, datum in reqs], fields)

    def execute(self, ctx, op):
        return run_cli(op)

    def check(self, inputs: Inputs, passes) -> dict:
        outcomes = per_item([cli_outcome(inputs.fields, exp, out)
                             for exp, out in zip(inputs.expected, outputs)]
                            for outputs in passes)
        return {"outcomes": outcomes, "invariants": {
            "passes_agree": all(p == passes[0] for p in passes)}}


def _random_plus(rng, f: GaloisField, n: int, k: int, want=None, alpha=None):
    """A random single-twist datum; ``want`` is None, 'mds' or 'nmds'."""
    for _ in range(1000):
        al = alpha or rng.sample(range(f.order), n)
        v = [rng.randrange(1, f.order) for _ in range(n)]
        if want == "nmds":
            s = gtrs.alpha_sum(f, rng.sample(al, k))
            if s == 0:
                continue
            eta = f.neg(f.inv(s))
        else:
            eta = rng.randrange(1, f.order)
        if f.add(1, f.mul(gtrs.alpha_sum(f, al), eta)) == 0:
            continue
        if want is not None and gtrs.is_mds_plus(f, al, eta, k) != (want == "mds"):
            continue
        return gtrs.plus_gtrs(f, al, v, eta, k)
    raise ValueError(f"no {want or 'random'} [{n},{k}] datum over GF({f.order})")


def _construct(rng, f: GaloisField, cls: str, n: int):
    sub = f.subfield_elements()
    for _ in range(1000):
        a_l = rng.choice(sub)
        m = rng.randrange(1, f.q + 1)
        x = sorted(rng.sample(sub, n))
        try:
            if cls == "I":
                return selfdual.construct_class1(f, a_l, x), a_l, None, x
            return selfdual.construct_class2(f, a_l, m, x), a_l, m, x
        except selfdual.ConstructionError:
            continue
    raise ValueError(f"no class {cls} construction of length {n} over GF({f.order})")


def cli_request(rng, f: GaloisField, command: str, kind, n: int, k: int):
    """argv (``{file}`` stands for the datum file), expected answer, datum."""
    cmd, _, mode = command.partition(":")
    exp = {"cmd": cmd, "rc": 0, "q": f.q, "n": n, "k": k}
    if cmd == "reference":
        return ["reference"] + (["--eta-index", mode] if mode else []), exp, None
    if cmd == "construct":
        res, a_l, m, x = _construct(rng, f, kind, n)
        argv = ["construct", "--class", kind, "--q", str(f.q), "--n", str(n),
                "--al", str(a_l), "--x", ",".join(map(str, x))]
        if m is not None:
            argv += ["--m", str(m)]
        exp["labels"] = {e: "MDS" if gtrs.is_mds_plus(f, res.alpha, e, res.k) else "NMDS"
                         for e, _ in res.eta_list}
        return argv, exp, None
    if kind == "selfdual":
        res, *_ = _construct(rng, f, "I", n)
        params = res.params(rng.choice(res.eta_list)[0])
    elif kind == "subgroup":
        step = (f.order - 1) // n
        alpha = [f.pow(f.generator, step * i) for i in range(n)]
        params = _random_plus(rng, f, n, k, alpha=alpha)
    else:
        params = _random_plus(rng, f, n, k, want=None if kind == "random" else kind)
    datum = params.to_dict()
    if cmd == "verify":
        gen = gtrs.generator_matrix(params)
        exp["rc"] = 0 if gen.mul(gen.conj_transpose()).is_zero() else 1
        return ["verify", "{file}"], exp, datum
    if cmd == "classify":
        exp["label"] = "MDS" if kind == "mds" else "NMDS"
        exp["over_cap"] = (f.order ** k > CAP
                           or (kind == "nmds" and f.order ** (n - k) > CAP))
        return ["classify", "{file}"], exp, datum
    exp["mode"] = mode
    exp["datum"] = datum
    return ["dual", "{file}", "--mode", mode], exp, datum


def cli_outcome(fields: dict, exp: dict, out: dict) -> str:
    """Compare one reply with the answer fixed at generation time."""
    if "error" in out:
        return ERROR
    if out["rc"] != exp["rc"]:
        return WRONG
    cmd = exp["cmd"]
    if cmd == "reference":
        lines = out["stdout"].splitlines()
        return OK if len(lines) == 6 and all(": PASS" in ln for ln in lines) else WRONG
    reply = json.loads(out["stdout"])
    f = fields[exp["q"]]
    if cmd == "verify":
        return OK if reply["hermitian_self_dual"] == (exp["rc"] == 0) else WRONG
    if cmd == "construct":
        got = {f.from_coeffs(e["eta"]): e["class"] for e in reply["eta_list"]}
        return OK if got == exp["labels"] else WRONG
    if cmd == "classify":
        if reply["class"] is None:
            return REFUSED if exp["over_cap"] else WRONG
        d = exp["n"] - exp["k"] + (1 if exp["label"] == "MDS" else 0)
        return OK if (reply["class"], reply["d"]) == (exp["label"], d) else WRONG
    return dual_outcome(f, exp, reply)


def dual_outcome(f: GaloisField, exp: dict, reply: dict) -> str:
    """A dual reply must have dimension n - k and be orthogonal to the code
    under the mode's inner product (Hermitian: against the conjugate)."""
    if GaloisField.from_dict(reply["field"]) != f:
        return WRONG
    gen = gtrs.generator_matrix(gtrs.GTRSParams.from_dict(exp["datum"], field=f))
    if exp["mode"] in ("plus-closed-form", "group-closed-form"):
        if reply["agrees_with_kernel_dual"] is not True:
            return WRONG
        dual = gtrs.generator_matrix(gtrs.GTRSParams.from_dict(reply, field=f))
    else:
        dual = codes.LinearCode.from_dict(reply, field=f).gen
    other = gen.conj_transpose() if exp["mode"] == "hermitian" else gen.transpose()
    good = dual.rows == exp["n"] - exp["k"] and dual.mul(other).is_zero()
    return OK if good else WRONG


WORKLOADS = {w.name: w for w in (Classify(), Cli(), Sweep())}

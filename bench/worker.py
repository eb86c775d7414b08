"""One benchmark workload in a fresh process.

``run.py`` starts this script once per set-up measurement and once for
the measured run.  The worker sets up (imports, generated inputs,
warm-up), prints ``READY`` and, unless ``--probe`` is given, runs whole
rounds of operations as a single closed-loop client, checks the answers
and prints one JSON line with the counts and metrics.

With ``--trace 1`` it runs every operation twice, untraced and then
traced, and reports the per-layer metrics of the first round, the
tracing overhead, and whether every traced answer matched the untraced
one byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import gen
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
FIXTURE = "fixtures/a2_session.json"
OP_TIMEOUT_S = 150
CAP = 6

ENV = dict(os.environ, PYTHONHASHSEED="0",
           PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

README_COMMANDS = (
    ["hn", "P", "Zflip"],
    ["semistable", "P", "Zstd"],
    ["decompose", "PS", "Zstd"],
    ["walls", "path1"],
    ["deform", "Zstd", "Zpert", "--eps", "1/10", "--testset", "basic"],
    ["metric", "slicing", "Zstd", "Zflip", "--testset", "basic"],
    ["metric", "stab", "Zstd", "Zflip", "--testset", "basic"],
    ["glact", "Zstd", "--matrix", "2,0,0,2", "--testset", "basic"],
    ["discrete", "Zstd"],
    ["validate", "Zstd", "--testset", "all"],
)
README_CURVES = (["curve", "classify", "--matrix", "0,-1,1,0"], ["curve", "reduce", "--matrix=-5,-1,1,0"])
# the README commands again, on a generated session with six wall paths;
# the walls calls, which import sympy, are then about a fifth of a round,
# so op_p90_ms falls near the middle of that group rather than at its edge
GENERATED_COMMANDS = (
    ["hn", "R1", "Z0"],
    ["semistable", "R2", "Z0"],
    ["decompose", "C1", "Z0"],
    *(["walls", f"p{i}"] for i in range(6)),
    ["deform", "Z0", "W0", "--eps", "1/10", "--testset", "T"],
    ["metric", "slicing", "Z0", "Z1", "--testset", "T"], ["metric", "slicing", "Z1", "Z0", "--testset", "T"],
    ["metric", "stab", "Z0", "Z1", "--testset", "T"], ["metric", "stab", "Z1", "Z0", "--testset", "T"],
    ["discrete", "Z0"],
    ["validate", "Z0", "--testset", "all"],
)
LAMBDAS = ("2", "3", "1/2", "5/3", "3/4")


def family_of(cmd) -> str:
    return " ".join(cmd[:2]) if cmd[0] in ("metric", "curve") else cmd[0]


def session_commands(rng) -> list[list[str]]:
    """The session-ops operations on one generated session with eight
    paths; the counts give each family a comparable share of the time."""
    cmds = [["walls", f"p{i}"] for i in range(8)]
    cmds += [["deform", z, w, "--eps", "1/10", "--testset", "T"] for z, w in (("Z0", "W0"), ("Z1", "W1"))]
    for a, b in (("Z0", "Z1"), ("Z0", "W0")):
        cmds += [["metric", "slicing", a, b, "--testset", "T"], ["metric", "slicing", b, a, "--testset", "T"]]
    cmds += [["metric", "stab", a, b, "--testset", "T"] for a, b in (("Z0", "Z1"), ("Z1", "Z0"))]
    cmds += [["glact", charge, "--matrix", f"{lam},0,0,{lam}", "--testset", "T"]
             for charge, lam in zip(("Z0", "Z1", "W0", "W1"), (rng.choice(LAMBDAS) for _ in range(4)))]
    cmds += [["validate", "Z0", "--testset", "all"], ["validate", "Z1", "--testset", "T"]]
    cmds += [["decompose", obj, z] for z in ("Z0", "Z1") for obj in ("C1", "C2", "C3", "C4", "R3", "R4", "R5", "R6")]
    return cmds


def make_op(key, cmd, input_path=None, meta=None) -> dict:
    argv = (["--input", str(input_path)] if input_path else []) + list(cmd)
    return {"key": key, "cmd": list(cmd), "argv": argv, "family": family_of(cmd), "meta": meta, "partner": None}


def with_partners(ops: list[dict]) -> list[dict]:
    """Link each metric operation to the one with its charges swapped."""
    by_cmd = {(op["meta"], tuple(op["cmd"])): op for op in ops}
    for op in ops:
        if op["family"].startswith("metric"):
            c = op["cmd"]
            other = by_cmd.get((op["meta"], tuple(c[:2] + [c[3], c[2]] + c[4:])))
            op["partner"] = other["key"] if other else None
    return ops


class Workload:
    """Shared loop plumbing; subclasses define set-up, rounds and checks."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.metas: dict[str, dict] = {}

    def write_session(self, name: str, doc: dict) -> Path:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def round_ops(self, r):
        """The operations of round r; the same every round unless overridden."""
        return self.ops

    def failed(self, out) -> bool:
        return out[0] != 0

    def canonical(self, op, out) -> bytes:
        """The answer as bytes, for byte-for-byte comparisons."""
        return out[1] if isinstance(out[1], bytes) else out[1].encode()

    def keep(self, op, out):
        """What the checks need of an answer, or None when nothing is kept."""
        return op, out

    def check_trace(self, ops, trace) -> list[str]:
        """Checks that need the first traced round."""
        return []

    def tracing(self, trace):
        """The context a traced operation runs in, outside its timing."""
        return contextlib.nullcontext()


class CliProcesses(Workload):
    """Operations that are fresh ``python -m stabkit.cli`` processes."""

    def run(self, op):
        cmd = [sys.executable, "-m", "stabkit.cli", *op["argv"]]
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=OP_TIMEOUT_S)
        return r.returncode, r.stdout

    def new_trace(self) -> list:
        return []

    def end_trace(self, traces: list) -> dict:
        return tracing.merge(traces)

    def run_traced(self, op, traces: list):
        out = self.tmp / "trace.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(out), *op["argv"]]
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=OP_TIMEOUT_S)
        traces.append(json.loads(out.read_text(encoding="utf-8")))
        return r.returncode, r.stdout

    def warm_up(self):
        self.run(make_op("warm", ["semistable", "P", "Zstd"], FIXTURE))

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class CliCold(CliProcesses):
    """README commands on the fixture plus the same commands on a small
    generated session, one fresh interpreter per operation."""

    def setup(self):
        rng = gen.rng_for("cli-cold", self.seed)
        self.metas["fixture"] = gen.doc_meta(json.loads((ROOT / FIXTURE).read_text(encoding="utf-8")))
        doc, meta = gen.session(rng, "A2", 3, None, n_paths=6)
        self.metas["g"] = meta
        path = self.write_session("g", doc)
        ops = [make_op(f"fixture:{' '.join(c)}", c, FIXTURE, "fixture") for c in README_COMMANDS]
        ops += [make_op(f"fixture:{' '.join(c)}", c, None, "fixture") for c in README_CURVES]
        lam = rng.choice(LAMBDAS)
        cmds = list(GENERATED_COMMANDS) + [["glact", "Z0", "--matrix", f"{lam},0,0,{lam}", "--testset", "T"]]
        ops += [make_op(f"g:{' '.join(c)}", c, path, "g") for c in cmds]
        while True:
            m = [rng.randint(-6, 6) for _ in range(4)]
            if m[0] * m[3] - m[1] * m[2] > 0:
                break
        # the "=" form keeps a leading minus sign from reading as an option
        matrix = "--matrix=" + ",".join(map(str, m))
        ops += [make_op(f"g:curve {which}", ["curve", which, matrix], None, "g") for which in ("classify", "reduce")]
        self.ops = with_partners(ops)
        self.warm_up()

    def check(self, records):
        problems, cases, fixture_cases = [], [], []
        for op, out in records.values():
            report = checks.report_of(out[1])
            meta = self.metas[op["meta"]]
            partner = checks.report_of(records[op["partner"]][1][1]) if op["partner"] else None
            if op["meta"] == "fixture":
                problems += checks.check_fixture(op["cmd"], report)
                fixture_cases.append((op["cmd"], report))
                if op["family"] in ("glact", "validate", "decompose", "discrete", "hn", "semistable"):
                    problems += checks.check_session_op(op, report, meta)
            elif op["family"].startswith("curve"):
                problems += checks.check_curve(op["cmd"], report)
                fixture_cases.append((op["cmd"], report))
            else:
                problems += checks.check_session_op(op, report, meta, partner)
                cases.append((op, report, meta, partner))
        return problems + checks.selftest_fixture(fixture_cases) + checks.selftest_session(cases)


class ScaleLadder(CliProcesses):
    """One fresh CLI process per rung of growing enumeration size."""

    def setup(self):
        self.ops = []
        rungs = gen.ladder(self.seed)
        for i in gen.RUN_ORDER:
            path = self.write_session(f"rung{i}", rungs[i]["doc"])
            op = make_op(f"rung{i}", [rungs[i]["command"], "R", "Z"], path)
            op["rung"] = rungs[i]
            self.ops.append(op)
        self.warm_up()

    def check(self, records):
        problems, cases = [], []
        for op, out in records.values():
            report = checks.report_of(out[1])
            problems += checks.check_rung(op["rung"], report)
            cases.append((op["rung"], report))
        return problems + checks.selftest_ladder(cases)

    def check_trace(self, ops, trace):
        problems = []
        for op, count in zip(ops, trace["first_enumeration"]):
            problems += checks.check_rung_count(op["rung"], count)
        return problems


class InProcess(Workload):
    def import_stabkit(self):
        sys.path.insert(0, str(ROOT / "src"))
        t0 = time.perf_counter()
        import stabkit.cli

        self.import_ms = (time.perf_counter() - t0) * 1000
        self.stabkit = stabkit

    def new_trace(self) -> tracing.Tracer:
        return tracing.Tracer()

    @contextlib.contextmanager
    def tracing(self, tr):
        """The tracer wraps stabkit only while a traced operation runs, so
        the untraced operations between them run unwrapped."""
        tr.install()
        try:
            yield
        finally:
            tr.uninstall()

    def end_trace(self, tr) -> dict:
        return tr.to_json()

    def run_traced(self, op, tr):
        tr.begin_op()
        try:
            return self.run(op)
        finally:
            tr.end_op()

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SessionOps(InProcess):
    """In-process ``stabkit.cli.run`` on generated sessions, reusing the
    same objects across operations and rounds."""

    CONFIGS = (("A2", 2, None), ("A3", 3, None), ("K2", 2, None), ("A2", 3, 2),
               ("A3", 2, None), ("K2", 3, 5), ("A2", 2, 3), ("K2", 2, None))

    def setup(self):
        self.import_stabkit()
        self.ops = []
        for i, (qname, p, d) in enumerate(self.CONFIGS):
            rng = gen.rng_for("session-ops", self.seed, i)
            doc, meta = gen.session(rng, qname, p, d, n_paths=8)
            name = f"s{i}"
            self.metas[name] = meta
            path = self.write_session(name, doc)
            self.ops += [make_op(f"{name}:{' '.join(c)}", c, path, name) for c in session_commands(rng)]
        with_partners(self.ops)
        seen = set()
        for op in self.ops:  # one warm-up call per family fills imports and caches
            if op["family"] not in seen:
                seen.add(op["family"])
                self.run(op)

    def run(self, op):
        return self.stabkit.cli.run(op["argv"])

    def check(self, records):
        problems, cases, families = [], [], set()
        for op, out in records.values():
            report = checks.report_of(out[1])
            partner = checks.report_of(records[op["partner"]][1][1]) if op["partner"] else None
            problems += checks.check_session_op(op, report, self.metas[op["meta"]], partner)
            if op["family"] not in families:
                families.add(op["family"])
                cases.append((op, report, self.metas[op["meta"]], partner))
        return problems + checks.selftest_session(cases)


class FuzzHN(InProcess):
    """Both filtration routes with validation, their agreement and the
    semistability certificate, on fresh instances of the acceptance
    family's make-up every round."""

    BRUTE_CASES = 24
    BRUTE_MAX_CANDIDATES = 3000

    def setup(self):
        self.import_stabkit()
        from stabkit import linalg

        for p in (2, 3):
            for d in range(5):
                linalg.subspaces(p, d)
        self.quivers = {}
        self.later_problems: list[str] = []
        self.first_round = self.prepare(0)

    def prepare(self, r):
        from stabkit.exactnum import ExactComplex
        from stabkit.linalg import field_by_name
        from stabkit.quivrep import Arrow, Quiver, QuiverRep
        from stabkit.stability import CentralCharge

        ops = []
        for i, inst in enumerate(gen.fuzz_round(self.seed, r)):
            n, arrows = gen.QUIVERS[inst["quiver"]]
            quiver = self.quivers.get(inst["quiver"])
            if quiver is None:
                quiver = self.quivers[inst["quiver"]] = Quiver(n, tuple(Arrow(*a) for a in arrows))
            maps = tuple(tuple(tuple(row) for row in inst["maps"][a]) for a, _, _ in arrows)
            rep = QuiverRep(quiver, field_by_name(f"F{inst['p']}"), inst["dims"], maps)
            Z = CentralCharge(tuple(ExactComplex(re[0], im[0]) for re, im in inst["z"]))
            ops.append({"key": f"r{r}:{i}", "inst": inst, "rep": rep, "Z": Z})
        return ops

    def round_ops(self, r):
        return self.first_round if r == 0 else self.prepare(r)

    def run(self, op):
        stability = self.stabkit.stability
        rep, Z = op["rep"], op["Z"]
        try:
            f1 = stability.hn_filtration_max_sub(rep, Z, CAP)
            f2 = stability.hn_filtration_mdq(rep, Z, CAP)
            agree = f1.same_chain(f2)
            cert = stability.is_semistable(rep, Z, CAP)
        except self.stabkit.errors.StabkitError as exc:
            return 1, str(exc)
        return 0, (f1, f2, agree, cert)

    def canonical(self, op, out) -> bytes:
        if out[0]:
            return out[1].encode()
        return json.dumps(self.summary(op, out), default=str, sort_keys=True).encode()

    def keep(self, op, out):
        """Round 0 is kept as plain data for the span-closure comparison and
        the self-tests; later rounds are checked at once and dropped, so
        memory does not grow with the number of rounds."""
        ans = self.summary(op, out)
        if op["key"].startswith("r0:"):
            return {"key": op["key"], "inst": op["inst"]}, (0, ans)
        self.later_problems += self.check_answer(op, ans)
        return None

    def check_answer(self, op, ans) -> list[str]:
        problems = [] if ans["agree"] else ["same_chain reports disagreement"]
        return [f"{op['key']}: {p}" for p in problems + checks.check_fuzz(op["inst"], ans)]

    @staticmethod
    def summary(op, out) -> dict:
        f1, f2, agree, cert = out[1]
        Z = op["Z"]
        return {
            "factors": [{"dims": list(f.dims), "charge": _exact_pairs(Z.of(f.dims))} for f in f1.factors],
            "chain": [[[list(r) for r in rows] for rows in s.rows] for s in f1.chain],
            "mdq_chain": [[[list(r) for r in rows] for rows in s.rows] for s in f2.chain],
            "mdq_dims": [list(f.dims) for f in f2.factors],
            "agree": agree,
            "verdict": cert.verdict,
            "witness": list(cert.witness.dims) if cert.witness is not None else None,
        }

    def check(self, records):
        problems, cases, brute = [], [], []
        problems = list(self.later_problems)
        for op, (_, ans) in records.values():
            problems += self.check_answer(op, ans)
            cases.append((op["inst"], ans))
        # span-closure comparison on a seeded subset of affordable instances
        rng = gen.rng_for("fuzz-hn-brute", self.seed)
        small = [(op, out) for op, out in records.values()
                 if _candidates(op["inst"]) <= self.BRUTE_MAX_CANDIDATES and op["key"].startswith("r0:")]
        for op, (_, ans) in rng.sample(small, min(self.BRUTE_CASES, len(small))):
            problems += [f"{op['key']}: {p}" for p in checks.check_fuzz_bruteforce(op["inst"], ans)]
            brute.append((op["inst"], ans))
        return problems + checks.selftest_fuzz(cases, brute)


def _exact_pairs(z):
    def pair(x):
        if hasattr(x, "d"):
            return (x.a, x.b)
        return (Fraction(x), Fraction(0))

    return (pair(z.re), pair(z.im))


def _candidates(inst) -> int:
    n = 1
    for d in inst["dims"]:
        n *= gen.subspace_count(d, inst["p"])
    return n


WORKLOADS = {"cli-cold": CliCold, "fuzz-hn": FuzzHN, "session-ops": SessionOps, "scale-ladder": ScaleLadder}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class ProbeClock:
    """Spreads set-up probes over the measured run: each time another
    ``seconds / probes`` of operation time has passed, the worker prints
    ``PROBE`` between two operations and waits, idle, for ``run.py`` to
    time a fresh set-up-only worker and answer.  The wait is not operation
    time."""

    def __init__(self, seconds: float, probes: int):
        self.step = seconds / probes if probes else 0.0
        self.left = probes
        self.spent = 0.0

    def tick(self, dt: float):
        self.spent += dt
        if self.left and self.spent >= self.step:
            self.left -= 1
            self.spent -= self.step
            print("PROBE", flush=True)
            sys.stdin.readline()


def run_round(wl, ops, clock=None):
    """(durations, outputs, failed) of one untraced round."""
    durations, outputs, failed = [], [], 0
    for op in ops:
        t0 = time.perf_counter()
        out = wl.run(op)
        durations.append(time.perf_counter() - t0)
        outputs.append(out)
        failed += wl.failed(out)
        if clock is not None:
            clock.tick(durations[-1])
    return durations, outputs, failed


def paired_round(wl, ops):
    """One round in which every operation runs untraced and then traced,
    back to back, so that both runs see the host at the same speed and
    their difference is the tracing overhead.  Returns the untraced and
    the traced (durations, outputs), the number failed and the trace."""
    trace = wl.new_trace()
    d_u, outs_u, d_t, outs_t = [], [], [], []
    for op in ops:
        t0 = time.perf_counter()
        outs_u.append(wl.run(op))
        d_u.append(time.perf_counter() - t0)
        with wl.tracing(trace):
            t0 = time.perf_counter()
            outs_t.append(wl.run_traced(op, trace))
            d_t.append(time.perf_counter() - t0)
    failed = sum(wl.failed(out) for out in outs_u + outs_t)
    return (d_u, outs_u), (d_t, outs_t), failed, wl.end_trace(trace)


def measure(wl, seconds: float, traced: bool, probes: int = 0):
    """Whole rounds until the time spent in operations is closest to
    ``seconds``.  When ``traced``, the rounds are ``paired_round``s; when
    not, ``probes`` set-up probes are spread over them.

    Returns a lookup from metric name to value, the counts, the answers to
    check, the problems found on the way and the trace of the first traced
    round.  The end-to-end metrics come from the untraced runs; the
    per-layer metrics from the first traced round, whose counters repeat
    exactly for a seed.
    """
    durations, traced_s, attempted, failed, mismatches = [], 0.0, 0, 0, 0
    records: dict[str, tuple] = {}
    reference: dict[str, bytes] = {}  # sha256 of the first answer per operation
    problems, first = [], None
    spent, r = 0.0, 0
    clock = ProbeClock(seconds, probes)
    while True:
        ops = wl.round_ops(r)
        if traced:
            (d, outs), (d_t, outs_t), f, trace = paired_round(wl, ops)
            differ = sum(wl.canonical(op, a) != wl.canonical(op, b) for op, a, b in zip(ops, outs, outs_t))
            if differ:
                problems.append(f"round {r}: {differ} traced answers differ from untraced ones")
            if first is None:
                first = trace
                problems += wl.check_trace(ops, trace)
            traced_s += sum(d_t)
            attempted += len(ops)
        else:
            d, outs, f = run_round(wl, ops, clock)
        round_s = sum(d) + (sum(d_t) if traced else 0.0)
        durations += d
        attempted += len(ops)
        failed += f
        for op, out in zip(ops, outs):
            if wl.failed(out):
                continue
            digest = hashlib.sha256(wl.canonical(op, out)).digest()
            if op["key"] in reference:
                mismatches += digest != reference[op["key"]]
            else:
                reference[op["key"]] = digest
                kept = wl.keep(op, out)
                if kept is not None:
                    records[op["key"]] = kept
        spent += round_s
        r += 1
        if spent + round_s / 2 >= seconds:
            break
    if mismatches:
        problems.append(f"{mismatches} repeated operations answered differently")
    untraced_s = sum(durations)
    if traced:
        value = layer_metrics(first, {
            "cli.import_ms": statistics.median(first["import_ms"]) if "import_ms" in first else wl.import_ms,
            "trace.overhead_ms": (traced_s - untraced_s) / len(durations) * 1000,
            "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100,
        })
    else:
        value = {
            "ops_per_s": len(durations) / untraced_s,
            "op_p50_ms": statistics.median(durations) * 1000,
            "op_p90_ms": percentile(durations, 90) * 1000,
            "peak_rss_mb": wl.rss_mb(),
        }.__getitem__
    return value, attempted, failed, records, problems, first


def layer_metrics(trace, extra):
    """A lookup from per-layer metric name (``<module>.<function>.<stat>``)
    to its value in ``trace``; ``extra`` holds the ones measured elsewhere."""
    stats = tracing.span_stats(trace["names"], trace["spans"])
    calls = trace["calls"]
    values = dict(extra)
    values.update({
        "exactnum.QuadScalar.constructed": calls.get("exactnum.QuadScalar.constructed", 0),
        "quivrep.enumerate_submodules.submodules": trace["submodules"],
        "linalg.subspaces.misses": trace["subspaces_misses"],
        "linalg.subspaces.cached": trace["subspaces_held"],
    })

    def n_calls(fn):
        return stats[fn]["calls"] if fn in stats else calls.get(fn, 0)

    def value(name):
        if name in values:
            return values[name]
        fn, stat = name.rsplit(".", 1)
        if stat in ("ms", "self_ms"):
            return stats.get(fn, {}).get(stat, 0.0)
        if stat == "calls":
            return n_calls(fn)
        if stat == "distinct_ratio":
            return trace["distinct"].get(fn, 0) / n_calls(fn) if n_calls(fn) else 0.0
        raise KeyError(name)

    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report READY and exit")
    ap.add_argument("--probes", type=int, default=0,
                    help="set-up probes to ask for during the measured run (see ProbeClock)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        wl.setup()
        print("READY", flush=True)
        if args.probe:
            return 0
        value, attempted, failed, records, problems, trace = measure(wl, args.seconds, bool(args.trace), args.probes)
        if args.trace:
            wanted = spec["per_layer"]
            trace_path = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
            trace_path.write_text(json.dumps(trace), encoding="utf-8")
        else:
            wanted = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
        metrics_out = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}
        problems += wl.check(records)
        for p in problems[:20]:
            print(f"check: {p}", file=sys.stderr)
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics_out}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

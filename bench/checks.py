"""Correctness checks for the benchmark's operations, written apart from
the program: nothing here imports stabkit.  Exact arithmetic is plain
``fractions.Fraction`` over Q(sqrt(D)); wall roots are isolated with
``sympy``; submodules are enumerated by span closure, with no row
reduction.

Every check returns a list of problems (empty when the answer is
right).  The ``selftest_*`` functions feed a corrupted copy of a real
answer to each check and report a problem when the check lets it pass.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import gen

TOL = 1e-9


# --- exact numbers a + b*sqrt(d), kept as (a, b) ------------------------


def q_sign(x, d) -> int:
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a - b * b * d > 0 else sb


def q_mul(x, y, d):
    return x[0] * y[0] + x[1] * y[1] * (d or 0), x[0] * y[1] + x[1] * y[0]


def q_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def phase_cmp(z1, z2, d) -> int:
    """Compare the arguments, in (0, pi], of two charges: 1 when z1's is
    larger.  Both lie in the upper half-plane or on the negative real
    axis, so the sign of the cross product decides."""
    cross = q_sub(q_mul(z1[0], z2[1], d), q_mul(z1[1], z2[0], d))
    return -q_sign(cross, d)


def phase_float(z, d, shift=0) -> float:
    return shift + math.atan2(gen.q_float(z[1], d), gen.q_float(z[0], d)) / math.pi


def parse_complex(raw):
    return gen.parse_scalar(raw["re"]), gen.parse_scalar(raw["im"])


def parse_root(raw):
    if raw["p"] is not None:
        return (Fraction(int(raw["p"]), int(raw["q"])), Fraction(0)), None
    return (Fraction(raw["a"]), Fraction(raw["b"])), raw["disc"]


def report_of(stdout) -> dict:
    doc = json.loads(stdout)
    if not doc.get("ok"):
        raise ValueError("report is not ok")
    return doc["result"]


# --- span-closure enumeration (no echelon forms anywhere) ----------------


def _closure(p: int, gens, dim: int) -> frozenset:
    span = {tuple([0] * dim)}
    frontier = list(span)
    while frontier:
        v = frontier.pop()
        for g in gens:
            for c in range(1, p):
                w = tuple((x + c * y) % p for x, y in zip(v, g))
                if w not in span:
                    span.add(w)
                    frontier.append(w)
    return frozenset(span)


@functools.lru_cache(maxsize=None)
def all_subspaces(p: int, dim: int) -> tuple[frozenset, ...]:
    """Every subspace of F_p^dim as its vector set, level by level:
    U + span(v) = {u + c v} for each v outside U."""
    level = {frozenset([tuple([0] * dim)])}
    out = set(level)
    vectors = list(itertools.product(range(p), repeat=dim))
    while level:
        above = set()
        for space in level:
            covered = set(space)
            for v in vectors:
                if v not in covered:
                    bigger = frozenset(tuple((x + c * y) % p for x, y in zip(u, v)) for u in space for c in range(p))
                    covered |= bigger
                    above.add(bigger)
        out |= above
        level = above
    return tuple(out)


def all_submodules(arrows, p: int, dims, maps) -> list[tuple[frozenset, ...]]:
    """Every arrow-invariant tuple of subspaces, as vector sets.  ``maps``
    holds a matrix per arrow name; a missing arrow acts as zero."""
    per_vertex = [all_subspaces(p, d) for d in dims]
    out = []

    def image(name, v, rows):
        m = maps.get(name)
        if not m:
            return tuple([0] * rows)
        return tuple(sum(x * y for x, y in zip(row, v)) % p for row in m)

    def descend(v, chosen):
        if v == len(dims):
            out.append(tuple(chosen))
            return
        for cand in per_vertex[v]:
            chosen.append(cand)
            if all(image(a, u, dims[t - 1]) in chosen[t - 1]
                   for a, s, t in arrows if max(s, t) - 1 == v
                   for u in chosen[s - 1]):
                descend(v + 1, chosen)
            chosen.pop()

    descend(0, [])
    return out


def lattice_hn(subs, dims_of, z, d):
    """HN chain from a submodule lattice: from the last step, take the
    submodule above it whose subquotient has the largest phase, then the
    largest dimension; that choice must be unique."""
    def contains(big, small):
        return all(s <= b for s, b in zip(small, big))

    chain = [min(subs, key=lambda s: sum(dims_of(s)))]
    top = max(subs, key=lambda s: sum(dims_of(s)))
    while chain[-1] != top:
        cur_dims = dims_of(chain[-1])
        best, best_q = [], None
        for s in subs:
            if s == chain[-1] or not contains(s, chain[-1]):
                continue
            q = tuple(a - b for a, b in zip(dims_of(s), cur_dims))
            c = 1 if best_q is None else phase_cmp(gen.charge_of(z, q), gen.charge_of(z, best_q), d)
            if c > 0:
                best, best_q = [s], q
            elif c == 0:
                best.append(s)
        size = max(sum(dims_of(s)) for s in best)
        top_choice = [s for s in best if sum(dims_of(s)) == size]
        if len(top_choice) != 1:
            raise ValueError("lattice HN step is not unique")
        chain.append(top_choice[0])
    return chain


def bruteforce_hn(arrows, p, dims, maps, z):
    """(chain of vector-set tuples, factor dimension vectors)."""
    subs = all_submodules(arrows, p, dims, maps)
    dims_of = functools.lru_cache(maxsize=None)(lambda s: tuple(round(math.log(len(x), p)) for x in s))
    chain = lattice_hn(subs, dims_of, z, None)
    factors = [tuple(a - b for a, b in zip(dims_of(hi), dims_of(lo))) for lo, hi in zip(chain, chain[1:])]
    return chain, factors


# --- fuzz-hn ------------------------------------------------------------


def _fuzz_charge_sum(inst, ans):
    sums = [Fraction(0)] * 4
    for f in ans["factors"]:
        (ra, rb), (ia, ib) = f["charge"]
        for i, x in enumerate((ra, rb, ia, ib)):
            sums[i] += x
    if ((sums[0], sums[1]), (sums[2], sums[3])) != gen.charge_of(inst["z"], inst["dims"]):
        return ["factor charges do not sum to the total charge"]
    return []


def _fuzz_descent(inst, ans):
    charges = [gen.charge_of(inst["z"], f["dims"]) for f in ans["factors"]]
    if any(phase_cmp(a, b, None) <= 0 for a, b in zip(charges, charges[1:])):
        return ["factor phases do not strictly descend"]
    return []


def _fuzz_verdict(inst, ans):
    if (ans["verdict"] == "semistable") != (len(ans["factors"]) == 1):
        return ["verdict disagrees with the filtration length"]
    if ans["verdict"] == "unstable":
        w = ans["witness"]
        total = gen.charge_of(inst["z"], inst["dims"])
        if w is None or phase_cmp(gen.charge_of(inst["z"], w), total, None) <= 0:
            return ["witness does not destabilise"]
    return []


def _fuzz_routes(inst, ans):
    if ans["chain"] != ans["mdq_chain"] or [f["dims"] for f in ans["factors"]] != ans["mdq_dims"]:
        return ["the two filtration routes disagree"]
    return []


FUZZ_CHECKS = {
    "charge sum": _fuzz_charge_sum,
    "strict descent": _fuzz_descent,
    "verdict and length": _fuzz_verdict,
    "route agreement": _fuzz_routes,
}


def check_fuzz(inst, ans) -> list[str]:
    return [p for fn in FUZZ_CHECKS.values() for p in fn(inst, ans)]


def check_fuzz_bruteforce(inst, ans) -> list[str]:
    """The chain equals the lattice HN chain of the span-closure
    enumeration, and the verdict follows from that lattice."""
    p, dims = inst["p"], inst["dims"]
    _, arrows = gen.QUIVERS[inst["quiver"]]
    chain, _ = bruteforce_hn(arrows, p, dims, inst["maps"], inst["z"])
    got = [tuple(_closure(p, [tuple(r) for r in rows], d) for rows, d in zip(step, dims))
           for step in ans["chain"]]
    problems = []
    if got != chain:
        problems.append("chain differs from the span-closure lattice HN chain")
    if (ans["verdict"] == "semistable") != (len(chain) == 2):
        problems.append("verdict differs from the span-closure lattice")
    return problems


def selftest_fuzz(cases, brute_cases) -> list[str]:
    """Corrupt real answers; each check must reject its corruption."""
    inst, ans = cases[0]
    multi = next(((i, a) for i, a in cases if len(a["factors"]) >= 2), None)
    if multi is None:
        return ["self-test: no multi-factor answer to corrupt"]

    def charge(a):
        (ra, rb), im = a["factors"][0]["charge"]
        a["factors"][0]["charge"] = ((ra + 1, rb), im)

    def verdict(a):
        a["verdict"] = "unstable" if a["verdict"] == "semistable" else "semistable"

    def routes(a):
        a["mdq_chain"] = a["mdq_chain"][:-1]

    corruptions = {"charge sum": (inst, ans, charge), "strict descent": (*multi, lambda a: a["factors"].reverse()),
                   "verdict and length": (inst, ans, verdict), "route agreement": (inst, ans, routes)}
    problems = []
    for name, (i, a, corrupt) in corruptions.items():
        bad = copy.deepcopy(a)
        corrupt(bad)
        if not FUZZ_CHECKS[name](i, bad):
            problems.append(f"self-test: corrupted {name} was accepted")
    if not brute_cases:
        return problems + ["self-test: no span-closure case"]
    inst, ans = brute_cases[0]
    bad = copy.deepcopy(ans)
    step = bad["chain"][-1]
    v = max(range(len(step)), key=lambda i: len(step[i]))
    step[v] = step[v][:-1]
    if not check_fuzz_bruteforce(inst, bad):
        problems.append("self-test: corrupted chain was accepted by the span-closure check")
    return problems


# --- scale ladder -------------------------------------------------------


def _flags(n: int, k: int, p: int) -> int:
    """Chains U_1 <= ... <= U_n <= F_p^k of subspaces."""
    if n == 0:
        return 1
    return sum(gen.gaussian_binomial(k, j, p) * _flags(n - 1, j, p) for j in range(k + 1))


def rung_submodule_count(rung) -> int:
    """Submodules of the rung's module, from Gaussian binomials alone."""
    p, dims = rung["p"], rung["dims"]
    if rung["kind"] == "ss":
        return math.prod(gen.subspace_count(d, p) for d in dims)
    return _flags(len(dims), dims[0], p)


def rung_hn_dims(rung) -> list[tuple[int, ...]]:
    """HN factor dimension vectors known from the rung's construction."""
    z, dims, n = rung["z"], rung["dims"], len(rung["dims"])
    if rung["kind"] == "ss":
        # a semisimple module splits into its isotypic parts, ordered by phase
        units = [tuple(1 if i == v else 0 for i in range(n)) for v in range(n) if dims[v]]
        order = functools.cmp_to_key(lambda a, b: phase_cmp(gen.charge_of(z, b), gen.charge_of(z, a), None))
        out = []
        for e in sorted(units, key=order):
            part = tuple(dims[i] * e[i] for i in range(n))
            if out and phase_cmp(gen.charge_of(z, out[-1]), gen.charge_of(z, e), None) == 0:
                out[-1] = tuple(a + b for a, b in zip(out[-1], part))
            else:
                out.append(part)
        return out
    # k copies of the uniserial projective: its lattice is the chain of tails
    k = dims[0]
    tails = [tuple(0 if i < n - j else 1 for i in range(n)) for j in range(n + 1)]
    chain = lattice_hn(tails, lambda s: s, z, None)
    return [tuple(k * (a - b) for a, b in zip(hi, lo)) for lo, hi in zip(chain, chain[1:])]


def check_rung(rung, report) -> list[str]:
    expected = rung_hn_dims(rung)
    if rung["command"] == "hn":
        got = [tuple(f["dims"]) for f in report["factors"]]
        return [] if got == expected else [f"HN factors {got} differ from the construction's {expected}"]
    verdict = "semistable" if len(expected) == 1 else "unstable"
    if report["verdict"] != verdict:
        return [f"verdict {report['verdict']} differs from the construction's {verdict}"]
    if verdict == "unstable":
        total = gen.charge_of(rung["z"], rung["dims"])
        if phase_cmp(gen.charge_of(rung["z"], report["witness"]["dims"]), total, None) <= 0:
            return ["witness does not destabilise"]
    return []


def check_rung_count(rung, count) -> list[str]:
    want = rung_submodule_count(rung)
    return [] if count == want else [f"{count} submodules enumerated, Gaussian binomials give {want}"]


def selftest_ladder(cases) -> list[str]:
    problems = []
    for rung, report in cases:
        bad = copy.deepcopy(report)
        if rung["command"] == "hn":
            bad["factors"] = bad["factors"][::-1] if len(bad["factors"]) > 1 else bad["factors"] * 2
        else:
            bad["verdict"] = "unstable" if report["verdict"] == "semistable" else "semistable"
        if not check_rung(rung, bad):
            problems.append(f"self-test: corrupted {rung['command']} answer was accepted")
    rung = cases[0][0]
    if not check_rung_count(rung, rung_submodule_count(rung) + 1):
        problems.append("self-test: corrupted submodule count was accepted")
    return problems


# --- session operations -------------------------------------------------


def _parts(meta, name):
    if name in meta["reps"]:
        return [(0, tuple(meta["reps"][name]["dims"]))]
    parts = meta["complexes"][name]["parts"]
    return [(int(k), tuple(meta["reps"][r]["dims"])) for k, r in parts.items()]


def check_walls(report, path) -> list[str]:
    """Each event is an exact root in [0, 1] of its pair's alignment
    polynomial, and each pair has as many distinct roots as sympy's
    real-root isolation finds in [0, 1]."""
    import sympy

    z0, z1, track_dims = path
    problems = []
    pairs = Counter(pair for dims in track_dims for pair in gen.auto_pairs(dims))
    roots: dict[tuple, Counter] = {pair: Counter() for pair in pairs}
    for e in report["events"]:
        pair = (tuple(e["pair"][0]), tuple(e["pair"][1]))
        if pair not in pairs:
            problems.append(f"event for untracked pair {pair}")
            continue
        q0, q1, q2 = gen.alignment_poly(z0, z1, *pair)
        (a, b), d = parse_root(e["t_exact"])
        roots[pair][(a, b, d)] += 1
        value = (q0 + q1 * a + q2 * (a * a + b * b * (d or 0)), q1 * b + 2 * q2 * a * b)
        if value != (0, 0):
            problems.append(f"t = {e['t_exact']} is not a root for {pair}")
        if q_sign((a, b), d) < 0 or q_sign((a - 1, b), d) > 0:
            problems.append(f"t = {e['t_exact']} lies outside [0, 1]")
    t_floats = [e["t_float"] for e in report["events"]]
    if t_floats != sorted(t_floats):
        problems.append("events are not in parameter order")
    degenerate = Counter((tuple(a), tuple(b)) for a, b in report["degenerate_pairs"])
    t = sympy.Symbol("t")
    for pair, mult in pairs.items():
        q0, q1, q2 = gen.alignment_poly(z0, z1, *pair)
        if q0 == q1 == q2 == 0:
            if degenerate[pair] != mult:
                problems.append(f"identically aligned pair {pair} not reported as degenerate")
            continue
        coeffs = [sympy.Rational(q.numerator, q.denominator) for q in (q2, q1, q0)]
        poly = sympy.Poly(coeffs[0] * t ** 2 + coeffs[1] * t + coeffs[2], t)
        want = poly.count_roots(0, 1) if poly.degree() > 0 else 0
        # a pair tracked through several reps repeats its events, once per rep
        if len(roots[pair]) != want or any(c != mult for c in roots[pair].values()):
            problems.append(f"{pair}: roots {dict(roots[pair])}, sympy isolates {want} in [0, 1]")
    return problems


def check_deform(report, meta, w) -> list[str]:
    """W = (1 + c) Z moves every phase by arg(1 + c) / pi; the report
    gives old minus new."""
    c_re, c_im = meta["rotations"][w]
    drift = -math.atan2(float(c_im), float(1 + c_re)) / math.pi
    problems = []
    for row in report["conclusion"]:
        if abs(row["lo_drift"] - drift) > TOL or abs(row["hi_drift"] - drift) > TOL:
            problems.append(f"{row['object']}: drift {row['lo_drift']} / {row['hi_drift']}, expected {drift}")
    if abs(report["d_testset"] - abs(drift)) > TOL:
        problems.append(f"distance {report['d_testset']} is not {abs(drift)}")
    if any(h["boundary"] or h["margin"] <= 0 for h in report["hypothesis"]):
        problems.append("deformation hypothesis rows are not all firm")
    return problems


def check_metric_pair(fwd, back) -> list[str]:
    """d(Z1, Z2) = d(Z2, Z1), with every per-object drift negated."""
    problems = []
    if abs(fwd["value"] - back["value"]) > TOL * max(1.0, abs(fwd["value"])):
        problems.append(f"metric is not symmetric: {fwd['value']} vs {back['value']}")
    if len(fwd["objects"]) != len(back["objects"]) or fwd["kind"] != "lower_bound":
        problems.append("metric reports differ in shape")
    for a, b in zip(fwd["objects"], back["objects"]):
        for key in ("lo_drift", "hi_drift", "log_mass_ratio"):
            if key in a and abs(a[key] + b[key]) > TOL:
                problems.append(f"{a['object']}: {key} {a[key]} is not the negative of {b[key]}")
    return problems


def check_glact(report, meta, charge, lam) -> list[str]:
    """The action of lam * I keeps every phase and verdict and divides the
    charge by lam."""
    d, z = meta["d"], meta["z"][charge]
    problems = []
    got = [parse_complex(v) for v in report["new_charge"]]
    if got != [((re[0] / lam, re[1] / lam), (im[0] / lam, im[1] / lam)) for re, im in z]:
        problems.append("new charge is not Z / lambda")
    for row in report["relabeled"]:
        parts = _parts(meta, row["object"])
        if len(parts) != 1:
            problems.append(f"{row['object']} has several parts but is reported semistable")
            continue
        shift, dims = parts[0]
        expected = phase_float(gen.charge_of(z, dims), d, shift)
        if abs(row["phase"]["float_phase"] - expected) > TOL:
            problems.append(f"{row['object']}: phase {row['phase']['float_phase']}, expected {expected}")
    if not report["heart_compatible"] or any(v["before"] != v["after"] or not v["match"]
                                             for v in report["verdict_invariance"]):
        problems.append("verdicts change under a scalar action")
    return problems


def check_validate(report, meta, testset) -> list[str]:
    names = list(meta["reps"]) + list(meta["complexes"]) if testset == "all" else meta["testsets"][testset]
    problems = [] if report["ok"] and all(c["ok"] for c in report["checks"]) else ["an axiom check failed"]
    for axiom in ("b", "d"):
        if sum(c["axiom"] == axiom for c in report["checks"]) != len(names):
            problems.append(f"axiom ({axiom}) not checked on every object")
    return problems


def check_decompose(report, meta, obj, charge) -> list[str]:
    """Factors of each shift add up to that part; phases strictly descend,
    lie in (k, k + 1] and match each factor's own charge."""
    d, z = meta["d"], meta["z"][charge]
    problems = []
    sums: dict[int, list[int]] = {}
    for f in report["factors"]:
        k, dims = f.get("shift", 0), f["dims"]
        acc = sums.setdefault(k, [0] * len(dims))
        for i, x in enumerate(dims):
            acc[i] += x
        ph = f["phase"]["float_phase"]
        if abs(ph - phase_float(gen.charge_of(z, dims), d, k)) > TOL or not k - TOL < ph <= k + 1 + TOL:
            problems.append(f"factor {dims} at shift {k} has phase {ph}")
    if {k: tuple(v) for k, v in sums.items()} != dict(_parts(meta, obj)):
        problems.append(f"factors of {obj} do not add up to its parts")
    phases = [f["phase"]["float_phase"] for f in report["factors"]]
    if any(a <= b for a, b in zip(phases, phases[1:])):
        problems.append("phases do not strictly descend")
    return problems


def check_module_hn(report, meta, rep, charge, command) -> list[str]:
    """hn factors and semistable verdicts against the span-closure lattice."""
    r = meta["reps"][rep]
    _, factors = bruteforce_hn(meta["arrows"], meta["p"], tuple(r["dims"]), r["maps"], meta["z"][charge])
    if command == "hn":
        got = [tuple(f["dims"]) for f in report["factors"]]
        return [] if got == factors else [f"HN factors {got}, span-closure lattice gives {factors}"]
    verdict = "semistable" if len(factors) == 1 else "unstable"
    return [] if report["verdict"] == verdict else [f"verdict {report['verdict']}, span-closure lattice gives {verdict}"]


def check_session_op(op, report, meta, partner=None) -> list[str]:
    """Dispatch on the operation's family; ``op["cmd"]`` is its CLI
    command without ``--input``."""
    family, a = op["family"], op["cmd"]
    if family == "walls":
        return check_walls(report, meta["paths"][a[1]])
    if family == "deform":
        return check_deform(report, meta, a[2])
    if family.startswith("metric"):
        return check_metric_pair(report, partner)
    if family == "glact":
        return check_glact(report, meta, a[1], Fraction(a[3].split(",")[0]))
    if family == "validate":
        return check_validate(report, meta, a[3])
    if family == "decompose":
        return check_decompose(report, meta, a[1], a[2])
    if family in ("hn", "semistable"):
        return check_module_hn(report, meta, a[1], a[2], family)
    if family == "discrete":
        rational = all(re[1] == 0 and im[1] == 0 for re, im in meta["z"][a[1]])
        return [] if not rational or report["verdict"] == "discrete" else ["rational charge image is not a lattice"]
    return []


def _corrupt_session(family, report):
    bad = copy.deepcopy(report)
    if family == "walls":
        bad["events"].insert(0, {"t_exact": {"p": "1", "q": "3", "a": None, "b": None, "disc": None},
                                 "t_float": 0.0, "pair": bad["events"][0]["pair"] if bad["events"] else [[0], [1]]})
    elif family == "deform":
        bad["conclusion"][0]["lo_drift"] += 0.01
    elif family.startswith("metric"):
        bad["value"] += 0.01
    elif family == "glact":
        if bad["relabeled"]:
            bad["relabeled"][0]["phase"]["float_phase"] += 0.01
        else:
            bad["new_charge"][0]["re"] = "12345"
    elif family == "validate":
        bad["checks"] = bad["checks"][1:]
    elif family in ("decompose", "hn"):
        bad["factors"][0]["dims"] = [x + 1 for x in bad["factors"][0]["dims"]]
    elif family == "semistable":
        bad["verdict"] = "unstable" if report["verdict"] == "semistable" else "semistable"
    elif family == "discrete":
        bad["verdict"] = "non_discrete"
    return bad


def selftest_session(cases) -> list[str]:
    """cases: (op, report, meta, partner), one or more per family."""
    problems = []
    for op, report, meta, partner in cases:
        if not check_session_op(op, _corrupt_session(op["family"], report), meta, partner):
            problems.append(f"self-test: corrupted {op['family']} answer was accepted")
    return problems


# --- fixture closed forms ----------------------------------------------


def in_fundamental_domain(tau) -> bool:
    re, im = Fraction(tau["re"]), Fraction(tau["im"])
    return im > 0 and abs(re) <= Fraction(1, 2) and re * re + im * im >= 1


def check_curve(argv, report) -> list[str]:
    """reduce lands in the modular fundamental domain through an SL2(Z)
    word; classify returns T with T M equal to the standard charge."""
    m = [Fraction(x) for x in argv[-1].split("=")[-1].split(",")]
    if argv[1] == "reduce":
        g = report["gamma"]
        if in_fundamental_domain(report["tau_exact"]) and g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1:
            return []
        return ["reduced tau is outside the modular fundamental domain"]
    t = [[Fraction(x) for x in row] for row in report["T"]]
    prod = [[t[i][0] * m[j] + t[i][1] * m[2 + j] for j in range(2)] for i in range(2)]
    return [] if prod == [[0, -1], [1, 0]] else ["T times the charge matrix is not the standard charge"]


FIXTURE_CLOSED_FORMS = {
    ("walls", "path1"): lambda r: (
        [] if [(e["t_exact"]["p"], e["t_exact"]["q"], e["pair"]) for e in r["events"]]
        == [("1", "2", [[0, 1], [1, 1]])] else ["walls path1 is not one event at t = 1/2"]),
    ("semistable", "P", "Zstd"): lambda r: [] if r["verdict"] == "semistable" else ["P is not semistable for Zstd"],
    ("hn", "P", "Zflip"): lambda r: (
        [] if [f["dims"] for f in r["factors"]] == [[0, 1], [1, 0]] else ["P does not have factors S2, S1 for Zflip"]),
    # phases 3/4, 1/4, 1/2 under Zstd against 1/4, 3/4 and (3/4, 1/4) under
    # Zflip; the log mass ratio of P is log(sqrt 2)
    ("metric", "slicing", "Zstd"): lambda r: [] if abs(r["value"] - 0.5) <= TOL else ["slicing distance is not 1/2"],
    ("metric", "stab", "Zstd"): lambda r: [] if abs(r["value"] - 0.5) <= TOL else ["stability distance is not 1/2"],
}


def check_fixture(argv, report) -> list[str]:
    if argv[0] == "curve":
        return check_curve(argv, report)
    fn = FIXTURE_CLOSED_FORMS.get(tuple(argv[:3])) or FIXTURE_CLOSED_FORMS.get(tuple(argv[:2]))
    return fn(report) if fn else []


def selftest_fixture(cases) -> list[str]:
    problems = []
    for argv, report in cases:
        bad = copy.deepcopy(report)
        if argv[0] == "walls":
            bad["events"][0]["t_exact"]["q"] = "3"
        elif argv[0] == "semistable":
            bad["verdict"] = "unstable"
        elif argv[0] == "hn":
            bad["factors"].reverse()
        elif argv[0] == "metric":
            bad["value"] += 0.01
        elif argv[:2] == ["curve", "reduce"]:
            bad["tau_exact"]["re"] = "7/10"
        elif argv[:2] == ["curve", "classify"]:
            bad["T"][0][0] = str(Fraction(bad["T"][0][0]) + 1)
        else:
            continue
        if not check_fixture(argv, bad):
            problems.append(f"self-test: corrupted {' '.join(argv)} answer was accepted")
    return problems

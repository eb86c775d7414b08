"""Command-line interface: parse a session document, dispatch one
operation, and emit a deterministic JSON or CSV report.

Every float in a report is an advisory duplicate of an exact field.
Exit codes: 0 success, 2 precondition failure, 3 internal-invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import ellcurve, quivrep, slicing, stability, stabspace
from .errors import InvariantViolation, StabkitError
from .exactnum import MAX_LITERAL, PhaseKey, QuadScalar, in_strict_upper_half, parse_rational
from .quivrep import DimVector
from .session import SessionDocument, fmt_entry, fmt_exact_complex, parse_session
from .stabspace import GLtildeElement, StabilityConditionHandle, mat2


def fmt_phase_key(p: PhaseKey) -> dict:
    return {
        "k": p.k,
        "dir_re": _scalar_str(p.dir.re),
        "dir_im": _scalar_str(p.dir.im),
        "float_phase": p.float_value(),
    }


def _scalar_str(x):
    if isinstance(x, QuadScalar):
        return {"a": str(x.a), "b": str(x.b), "d": x.d}
    return str(x)


def _fmt_submodule(sub) -> dict:
    return {
        "dims": list(sub.dims),
        "basis_rows": [[[fmt_entry(x) for x in row] for row in vertex_rows] for vertex_rows in sub.rows],
    }


def _root_json(r) -> dict:
    if isinstance(r, Fraction):
        return {"p": str(r.numerator), "q": str(r.denominator), "a": None, "b": None, "disc": None}
    return {"p": None, "q": None, "a": str(r.a), "b": str(r.b), "disc": r.d}


def _parse_matrix(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise StabkitError(f"--matrix expects 'a,b,c,d', got {text!r}")
    a, b, c, d = (parse_rational(p.strip()) for p in parts)
    return mat2(a, b, c, d)


def _branch(text: str) -> int:
    """A --branch index, bounded like a session literal: its phases stay finite floats."""
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(m) > MAX_LITERAL:
        raise argparse.ArgumentTypeError(f"branch index is out of range: its magnitude must be at most {MAX_LITERAL}")
    return m


def cmd_hn(doc: SessionDocument, args) -> dict:
    rep = doc.rep(args.rep)
    Z = doc.charge(args.charge)
    f1 = stability.hn_filtration_max_sub(rep, Z, args.cap)
    # same_chain below makes f2's factors f1's, which are already checked
    f2 = stability.hn_filtration_mdq(rep, Z, args.cap, validate=False)
    if not f1.same_chain(f2):
        raise InvariantViolation("the two filtration algorithms disagree on this input")
    factors = []
    for sub, factor, key in zip(f1.chain[1:], f1.factors, f1.phases):
        factors.append({
            "dims": list(factor.dims),
            "charge": fmt_exact_complex(Z.of(factor.dims)),
            "phase": fmt_phase_key(key),
            "step_submodule": _fmt_submodule(sub),
        })
    return {
        "rep": args.rep,
        "charge": args.charge,
        "length": f1.length,
        "factors": factors,
        "csv_rows": [
            ("factor", "dims", "float_phase", "re", "im")
        ] + [
            (i + 1, "/".join(map(str, f.dims)), k.float_value(),
             str(Z.of(f.dims).re), str(Z.of(f.dims).im))
            for i, (f, k) in enumerate(zip(f1.factors, f1.phases))
        ],
    }


def cmd_semistable(doc: SessionDocument, args) -> dict:
    rep = doc.rep(args.rep)
    Z = doc.charge(args.charge)
    cert = stability.is_semistable(rep, Z, args.cap)
    out = {
        "rep": args.rep,
        "charge": args.charge,
        "verdict": cert.verdict,
        "phase": fmt_phase_key(cert.object_phase) if cert.object_phase else None,
    }
    if cert.witness is not None:
        out["witness"] = _fmt_submodule(cert.witness)
        out["witness_phase"] = fmt_phase_key(cert.witness_phase)
    out["csv_rows"] = [("rep", "verdict"), (args.rep, cert.verdict)]
    return out


def cmd_decompose(doc: SessionDocument, args) -> dict:
    fc = doc.object(args.complex)
    Z = doc.charge(args.charge)
    factors = slicing.hn_decompose(fc, StabilityConditionHandle(doc.quiver, doc.field, Z), args.cap)
    return {
        "object": args.complex,
        "charge": args.charge,
        "factors": [
            {
                "shift": f.shift,
                "dims": list(f.factor.dims),
                "phase": fmt_phase_key(f.key),
            }
            for f in factors
        ],
        "csv_rows": [("shift", "dims", "float_phase")] + [
            (f.shift, "/".join(map(str, f.factor.dims)), f.key.float_value()) for f in factors
        ],
    }


def _auto_pairs(doc: SessionDocument, track: tuple[str, ...], cap: int) -> list[tuple[DimVector, DimVector]]:
    """All (proper-subvector, total) pairs for each tracked representation."""
    return [(beta, rep.dims) for rep in map(doc.rep, track) for beta in quivrep.sub_dims(rep, cap)
            if not quivrep.dims_proportional(beta, rep.dims)]


def cmd_walls(doc: SessionDocument, args) -> dict:
    spec, path = doc.path(args.path)
    if args.pairs == "explicit" or (args.pairs is None and spec.pairs):
        if not spec.pairs:
            raise StabkitError(f"path {args.path!r} declares no explicit pairs")
        pairs = list(spec.pairs)
    else:
        pairs = _auto_pairs(doc, spec.track, args.cap)
    report = stabspace.find_walls(path, pairs)
    samples = stabspace.chamber_samples(report.events)

    def sample_row(t):
        Zt = path.at(t)
        row = {"t": str(t), "t_float": float(t), "verdicts": {}, "orderings": {}}
        for name in spec.track:
            cert = stability.is_semistable(doc.rep(name), Zt, args.cap)
            row["verdicts"][name] = cert.verdict
        for alpha, beta in pairs:
            c = stability.phase(alpha, Zt).cmp(stability.phase(beta, Zt))
            row["orderings"][f"{list(alpha)} vs {list(beta)}"] = ("below", "aligned", "above")[c + 1]
        return row

    rows = [sample_row(t) for t in samples]
    events = []
    below = 0  # samples below the event: both lists ascend and no sample is a root
    for e in report.events:
        while below < len(samples) and stabspace.cmp_roots(samples[below], e.t_exact) < 0:
            below += 1
        events.append({
            "t_exact": _root_json(e.t_exact),
            "t_float": e.t_float,
            "type": "phase-alignment",
            "pair": [list(e.alpha), list(e.beta)],
            "flip_evidence": {
                "left": rows[below - 1] if below else None,
                "right": rows[below] if below < len(samples) else None,
            },
        })
    return {
        "path": args.path,
        "events": events,
        "degenerate_pairs": [[list(a), list(b)] for a, b in report.degenerate_pairs],
        "chamber_samples": rows,
        "csv_rows": [("t_float", "alpha", "beta")] + [
            (e.t_float, "/".join(map(str, e.alpha)), "/".join(map(str, e.beta))) for e in report.events
        ],
    }


_DRIFT_COLUMNS = ("object", "lo_drift", "hi_drift", "log_mass_ratio")


def _drift_table(rows) -> tuple[list[dict], list[tuple]]:
    """JSON objects and CSV rows of a nonempty tuple of drift records
    (slicing.ObjectDrift or stabspace.StabDistanceRow): their fields,
    in order, are the columns."""
    columns = _DRIFT_COLUMNS[:len(rows[0])]
    return [dict(zip(columns, r)) for r in rows], [columns, *rows]


def cmd_deform(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    W = doc.charge(args.charge_w)
    testset = doc.testset(args.testset)
    sigma = StabilityConditionHandle(doc.quiver, doc.field, Z)
    eps = parse_rational(args.eps)
    tau, report = stabspace.deform(sigma, W, eps, testset, args.cap)
    conclusion, csv_rows = _drift_table(report.drifts)
    return {
        "charge": args.charge,
        "charge_w": args.charge_w,
        "eps": str(eps),
        "hypothesis": [
            {"object": r.label, "margin": r.margin, "boundary": False} for r in report.hypothesis
        ],
        "conclusion": conclusion,
        "d_testset": report.distance,
        "kind": "lower_bound",
        "csv_rows": csv_rows,
    }


def cmd_metric(doc: SessionDocument, args) -> dict:
    Z1 = doc.charge(args.charge1)
    Z2 = doc.charge(args.charge2)
    testset = doc.testset(args.testset)
    s1 = StabilityConditionHandle(doc.quiver, doc.field, Z1)
    s2 = StabilityConditionHandle(doc.quiver, doc.field, Z2)
    distance = slicing.slicing_distance if args.which == "slicing" else stabspace.stab_distance
    rep = distance(s1, s2, testset, args.cap)
    objects, csv_rows = _drift_table(rep.rows)
    return {
        "metric": args.which,
        "charge1": args.charge1,
        "charge2": args.charge2,
        "value": rep.value,
        "kind": "lower_bound",
        "objects": objects,
        "csv_rows": csv_rows,
    }


def cmd_glact(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    testset = doc.testset(args.testset)
    g = GLtildeElement(_parse_matrix(args.matrix), args.branch)
    sigma = StabilityConditionHandle(doc.quiver, doc.field, Z)
    sigma2, relabeled = stabspace.gl_act(sigma, g, testset, args.cap)
    new_charge = sigma2.charge2d()
    invariance = None
    if heart_compatible := all(map(in_strict_upper_half, new_charge)):  # no tilting needed
        Z2 = stability.CentralCharge(new_charge)
        invariance = []
        for label, fc in testset:
            if len(fc.parts) == 1 and fc.parts[0][0] == 0 and doc.field.is_finite:
                before = stability.is_semistable(fc.parts[0][1], Z, args.cap).verdict
                after = stability.is_semistable(fc.parts[0][1], Z2, args.cap).verdict
                invariance.append({"object": label, "before": before, "after": after, "match": before == after})
    return {
        "charge": args.charge,
        "matrix": args.matrix,
        "branch": args.branch,
        "new_charge": [fmt_exact_complex(z) for z in new_charge],
        "heart_compatible": heart_compatible,
        "relabeled": [{"object": label, "phase": fmt_phase_key(key)} for label, key in relabeled],
        "verdict_invariance": invariance,
        "csv_rows": [("object", "float_phase")] + [(label, key.float_value()) for label, key in relabeled],
    }


def cmd_discrete(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    rep = stability.check_discreteness(Z)
    return {
        "charge": args.charge,
        "verdict": rep.verdict,
        "z_rank": rep.z_rank,
        "real_span_dim": rep.real_span_dim,
        "basis": [list(r) for r in rep.basis],
        "explanation": rep.explanation,
        "csv_rows": [("charge", "verdict"), (args.charge, rep.verdict)],
    }


def cmd_validate(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    testset = doc.testset(args.testset)
    sigma = StabilityConditionHandle(doc.quiver, doc.field, Z)
    report = stabspace.validate_axioms(sigma, testset, args.cap)
    return {
        "charge": args.charge,
        "ok": report.ok,
        "checks": [
            {"axiom": c.axiom, "subject": c.subject, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "csv_rows": [("axiom", "subject", "ok")] + [
            (c.axiom, c.subject, c.ok) for c in report.checks
        ],
    }


def cmd_curve(args) -> dict:
    g = ellcurve.classify(ellcurve.NumericalCharge(_parse_matrix(args.matrix)))
    if args.which == "classify":
        return {
            "T": [[str(x) for x in row] for row in g.T],
            "m": g.m,
            "csv_rows": [("T", "m"), (";".join(str(x) for row in g.T for x in row), g.m)],
        }
    red = ellcurve.modular_reduce(g)
    tau_re, tau_im = red.tau.to_floats()
    return {
        "T": [[str(x) for x in row] for row in g.T],
        "m": red.branch,
        "gamma": [list(r) for r in red.gamma],
        "gamma_word": " ".join(red.word) or "1",
        "tau_exact": {"re": str(red.tau.re), "im": str(red.tau.im)},
        "tau_float": [tau_re, tau_im],
        "omega1": fmt_exact_complex(red.omega1),
        "scale": math.sqrt(float(red.omega1.abs_squared())),
        "csv_rows": [("tau_re", "tau_im", "gamma_word"), (tau_re, tau_im, " ".join(red.word) or "1")],
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed argument is reported like any other refusal
        raise StabkitError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parse_args fills a fresh namespace on every call
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="stabkit", description=__doc__)
    ap.add_argument("--input", help="session document (JSON)")
    ap.add_argument("--output", choices=("json", "csv"), default="json")
    ap.add_argument("--cap", type=int, default=quivrep.DEFAULT_CAP,
                    help="total-dimension cap for submodule enumeration")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hn", help="descending-phase filtration of a representation")
    p.add_argument("rep")
    p.add_argument("charge")

    p = sub.add_parser("semistable", help="semistability certificate")
    p.add_argument("rep")
    p.add_argument("charge")

    p = sub.add_parser("decompose", help="decompose a formal complex")
    p.add_argument("complex")
    p.add_argument("charge")

    p = sub.add_parser("walls", help="alignment walls along a charge path")
    p.add_argument("path")
    p.add_argument("--pairs", choices=("auto", "explicit"), default=None)

    p = sub.add_parser("deform", help="verified heart-preserving charge deformation")
    p.add_argument("charge")
    p.add_argument("charge_w")
    p.add_argument("--eps", required=True)
    p.add_argument("--testset", required=True)

    p = sub.add_parser("metric", help="finite-testset distance between charges")
    p.add_argument("which", choices=("slicing", "stab"))
    p.add_argument("charge1")
    p.add_argument("charge2")
    p.add_argument("--testset", required=True)

    p = sub.add_parser("glact", help="plane action on a stability condition")
    p.add_argument("charge")
    p.add_argument("--matrix", required=True)
    p.add_argument("--branch", type=_branch, default=0)
    p.add_argument("--testset", required=True)

    p = sub.add_parser("discrete", help="charge-image discreteness")
    p.add_argument("charge")

    p = sub.add_parser("validate", help="axiom checks on a testset")
    p.add_argument("charge")
    p.add_argument("--testset", required=True)

    p = sub.add_parser("curve", help="genus-one numerical charges")
    p.add_argument("which", choices=("classify", "reduce"))
    p.add_argument("--matrix", required=True)

    return ap


_NEEDS_SESSION = {
    "hn": cmd_hn,
    "semistable": cmd_semistable,
    "decompose": cmd_decompose,
    "walls": cmd_walls,
    "deform": cmd_deform,
    "metric": cmd_metric,
    "glact": cmd_glact,
    "discrete": cmd_discrete,
    "validate": cmd_validate,
}

@functools.lru_cache(maxsize=8)
def _session(text: str) -> SessionDocument:
    """The parsed session document of a file's text: an edited file is
    parsed again, and callers share the immutable document.  It calls
    parse_session by name, so a wrapper bound to that name sees each miss."""
    return parse_session(text)


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch one command; returns (exit code, report text)."""
    args = None
    try:
        args = build_parser().parse_args(argv)
        if args.command == "curve":
            result = cmd_curve(args)
        else:
            if not args.input:
                raise StabkitError("--input FILE is required for this command")
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise StabkitError(f"cannot read {args.input}: {exc}") from None
            doc = _session(text)
            result = _NEEDS_SESSION[args.command](doc, args)
    except StabkitError as exc:
        payload = {"command": args and args.command, "ok": False,
                   "error": type(exc).__name__, "message": str(exc)}
        return exc.exit_code, json.dumps(payload, indent=2) + "\n"
    csv_rows = result.pop("csv_rows", None)
    if args.output == "csv" and csv_rows:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        return 0, buf.getvalue()
    payload = {"command": args.command, "ok": True, "result": result}
    return 0, json.dumps(payload, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if code == 0 else sys.stderr
    out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

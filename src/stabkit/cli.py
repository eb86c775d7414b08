"""Command-line interface: parse a session document, dispatch one
operation, and emit a deterministic JSON or CSV report.

Every float in a report is an advisory duplicate of an exact field.
Exit codes: 0 success, 2 precondition failure, 3 internal-invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import ellcurve, quivrep, slicing, stability, stabspace
from .errors import InvariantViolation, StabkitError
from .exactnum import PhaseKey, QuadScalar, parse_rational
from .quivrep import DimVector
from .session import SessionDocument, fmt_entry, fmt_exact_complex, parse_session
from .stabspace import GLtildeElement, mat2


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


def cmd_hn(doc: SessionDocument, args) -> dict:
    rep = doc.rep(args.rep)
    Z = doc.charge(args.charge)
    f1 = stability.hn_filtration_max_sub(rep, Z, args.cap)
    f2 = stability.hn_filtration_mdq(rep, Z, args.cap)
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
    factors = slicing.hn_decompose(fc, stabspace.plain_handle(doc.quiver, doc.field, Z), args.cap)
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


def _auto_pairs(doc: SessionDocument, track: tuple[str, ...]) -> list[tuple[DimVector, DimVector]]:
    """All (proper-subvector, total) pairs for each tracked representation."""
    from itertools import product

    pairs = []
    for name in track:
        rep = doc.rep(name)
        total = rep.dims
        for beta in product(*[range(d + 1) for d in total]):
            if not any(beta) or beta == total:
                continue
            if quivrep.dims_proportional(beta, total):
                continue
            pairs.append((tuple(beta), total))
    return pairs


def cmd_walls(doc: SessionDocument, args) -> dict:
    spec, path = doc.path(args.path)
    mode = args.pairs
    if mode == "explicit" or (mode == "auto-or-explicit" and spec.pairs):
        if not spec.pairs:
            raise StabkitError(f"path {args.path!r} declares no explicit pairs")
        pairs = list(spec.pairs)
    else:
        pairs = _auto_pairs(doc, spec.track)
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

    rows_by_sample = {t: sample_row(t) for t in samples}
    events = []
    for e in report.events:
        left = [t for t in samples if stabspace.cmp_roots(t, e.t_exact) < 0]
        right = [t for t in samples if stabspace.cmp_roots(t, e.t_exact) > 0]
        events.append({
            "t_exact": _root_json(e.t_exact),
            "t_float": e.t_float,
            "type": "phase-alignment",
            "pair": [list(e.alpha), list(e.beta)],
            "flip_evidence": {
                "left": rows_by_sample[left[-1]] if left else None,
                "right": rows_by_sample[right[0]] if right else None,
            },
        })
    return {
        "path": args.path,
        "events": events,
        "degenerate_pairs": [[list(a), list(b)] for a, b in report.degenerate_pairs],
        "chamber_samples": [rows_by_sample[t] for t in samples],
        "csv_rows": [("t_float", "alpha", "beta")] + [
            (e.t_float, "/".join(map(str, e.alpha)), "/".join(map(str, e.beta))) for e in report.events
        ],
    }


def cmd_deform(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    W = doc.charge(args.charge_w)
    labels, testset = doc.testset(args.testset)
    sigma = stabspace.plain_handle(doc.quiver, doc.field, Z)
    eps = parse_rational(args.eps)
    tau, report = stabspace.deform(sigma, W.values, eps, testset, labels, args.cap)
    return {
        "charge": args.charge,
        "charge_w": args.charge_w,
        "eps": str(eps),
        "hypothesis": [
            {"object": r.label, "margin": r.margin, "boundary": r.boundary} for r in report.hypothesis
        ],
        "conclusion": [
            {"object": r.label, "lo_drift": r.lo_diff, "hi_drift": r.hi_diff} for r in report.drifts
        ],
        "d_testset": report.distance,
        "kind": "lower_bound",
        "csv_rows": [("object", "lo_drift", "hi_drift")] + [
            (r.label, r.lo_diff, r.hi_diff) for r in report.drifts
        ],
    }


def cmd_metric(doc: SessionDocument, args) -> dict:
    Z1 = doc.charge(args.charge1)
    Z2 = doc.charge(args.charge2)
    labels, testset = doc.testset(args.testset)
    s1 = stabspace.plain_handle(doc.quiver, doc.field, Z1)
    s2 = stabspace.plain_handle(doc.quiver, doc.field, Z2)
    if args.which == "slicing":
        rep = slicing.slicing_distance(s1, s2, testset, labels, args.cap)
        rows = [("object", "lo_drift", "hi_drift")] + [(r.label, r.lo_diff, r.hi_diff) for r in rep.rows]
        body = [{"object": r.label, "lo_drift": r.lo_diff, "hi_drift": r.hi_diff} for r in rep.rows]
    else:
        rep = stabspace.stab_distance(s1, s2, testset, labels, args.cap)
        rows = [("object", "lo_drift", "hi_drift", "log_mass_ratio")] + [
            (r.label, r.lo_diff, r.hi_diff, r.log_mass_ratio) for r in rep.rows
        ]
        body = [
            {"object": r.label, "lo_drift": r.lo_diff, "hi_drift": r.hi_diff, "log_mass_ratio": r.log_mass_ratio}
            for r in rep.rows
        ]
    return {
        "metric": args.which,
        "charge1": args.charge1,
        "charge2": args.charge2,
        "value": rep.value,
        "kind": rep.kind,
        "objects": body,
        "csv_rows": rows,
    }


def cmd_glact(doc: SessionDocument, args) -> dict:
    Z = doc.charge(args.charge)
    labels, testset = doc.testset(args.testset)
    g = GLtildeElement(_parse_matrix(args.matrix), args.branch)
    sigma = stabspace.plain_handle(doc.quiver, doc.field, Z)
    sigma2, relabeled = stabspace.gl_act(sigma, g, testset, args.cap)
    invariance = None
    if sigma2.heart_compatible:
        Z2 = sigma2.as_central_charge()
        invariance = []
        for label, fc in zip(labels, testset):
            if len(fc.parts) == 1 and fc.parts[0][0] == 0 and doc.field.is_finite:
                before = stability.is_semistable(fc.parts[0][1], Z, args.cap).verdict
                after = stability.is_semistable(fc.parts[0][1], Z2, args.cap).verdict
                invariance.append({"object": label, "before": before, "after": after, "match": before == after})
    by_obj = {id(fc): key for fc, key in relabeled}
    return {
        "charge": args.charge,
        "matrix": args.matrix,
        "branch": args.branch,
        "new_charge": [fmt_exact_complex(z) for z in sigma2.charge2d()],
        "heart_compatible": sigma2.heart_compatible,
        "relabeled": [
            {"object": label, "phase": fmt_phase_key(by_obj[id(fc)])}
            for label, fc in zip(labels, testset)
            if id(fc) in by_obj
        ],
        "verdict_invariance": invariance,
        "csv_rows": [("object", "float_phase")] + [
            (label, by_obj[id(fc)].float_value())
            for label, fc in zip(labels, testset) if id(fc) in by_obj
        ],
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
    labels, testset = doc.testset(args.testset)
    sigma = stabspace.plain_handle(doc.quiver, doc.field, Z)
    report = stabspace.validate_axioms(sigma, testset, labels, args.cap)
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
    M = _parse_matrix(args.matrix)
    if args.which == "classify":
        g = ellcurve.classify(ellcurve.NumericalCharge(M))
        return {
            "T": [[str(x) for x in row] for row in g.T],
            "m": g.m,
            "csv_rows": [("T", "m"), (";".join(str(x) for row in g.T for x in row), g.m)],
        }
    g = ellcurve.classify(ellcurve.NumericalCharge(M))
    red = ellcurve.modular_reduce(g)
    tau_re, tau_im = red.tau_float
    return {
        "T": [[str(x) for x in row] for row in g.T],
        "m": red.branch,
        "gamma": [list(r) for r in red.gamma],
        "gamma_word": " ".join(red.word) or "1",
        "tau_exact": {"re": str(red.tau.re), "im": str(red.tau.im)},
        "tau_float": [tau_re, tau_im],
        "omega1": fmt_exact_complex(red.omega1),
        "scale": red.scale,
        "csv_rows": [("tau_re", "tau_im", "gamma_word"), (tau_re, tau_im, " ".join(red.word) or "1")],
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stabkit", description=__doc__)
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
    p.add_argument("--branch", type=int, default=0)
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


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch one command; returns (exit code, report text)."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "walls" and args.pairs is None:
        args.pairs = "auto-or-explicit"
    try:
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
            doc = parse_session(text)
            result = _NEEDS_SESSION[args.command](doc, args)
    except StabkitError as exc:
        payload = {"command": args.command, "ok": False,
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

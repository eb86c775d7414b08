"""Extra cross-checks: an independent float model of the plane-action
relabeling, quadratic-extension charges driving exact verdicts, and the
enumeration cap and budget surface."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from stabkit import cli, linalg, quivrep
from stabkit.errors import CapExceededError
from stabkit.exactnum import ExactComplex, QuadScalar, normalize_direction
from stabkit.quivrep import enumerate_submodules
from stabkit.stability import CentralCharge, check_discreteness, hn_filtration_max_sub, hn_filtration_mdq, is_semistable
from stabkit.stabspace import GLtildeElement, mat2, mat2_det

from support import A2, F2, charge, ec, rep


def float_relabel(g: GLtildeElement, v: float) -> float:
    """Pure-float model of the anchored relabeling (test oracle only)."""
    tinv = g.t_inv()
    ux, uy = float(tinv[0][1]), float(tinv[1][1])
    anchor = math.atan2(uy, ux) / math.pi % 2.0
    if anchor > 1.5:
        anchor -= 2.0
    anchor += 2 * g.m
    vx, vy = math.cos(math.pi * v), math.sin(math.pi * v)
    wx = float(tinv[0][0]) * vx + float(tinv[0][1]) * vy
    wy = float(tinv[1][0]) * vx + float(tinv[1][1]) * vy
    delta = (math.atan2(wy, wx) - math.atan2(uy, ux)) / math.pi % 2.0
    return anchor + delta + 2 * math.floor((v - 0.5) / 2)


def test_relabel_against_float_model():
    rng = random.Random(9001)
    done = 0
    while done < 400:
        T = mat2(
            Fraction(rng.randint(-7, 7), rng.randint(1, 4)),
            Fraction(rng.randint(-7, 7), rng.randint(1, 4)),
            Fraction(rng.randint(-7, 7), rng.randint(1, 4)),
            Fraction(rng.randint(-7, 7), rng.randint(1, 4)),
        )
        if mat2_det(T) <= 0:
            continue
        g = GLtildeElement(T, rng.randint(-3, 3))
        re, im = rng.randint(-6, 6), rng.randint(-6, 6)
        if (re, im) == (0, 0):
            continue
        p = normalize_direction(ec(re, im)).shift(rng.randint(-3, 3))
        v = p.float_value()
        # skip float-model wrap boundaries; the exact code has no such gap
        tinv = g.t_inv()
        ux, uy = float(tinv[0][1]), float(tinv[1][1])
        anchor_rep = math.atan2(uy, ux) / math.pi % 2.0
        if min(abs(anchor_rep - 1.5), abs(v % 2), abs(v % 2 - 0.5),
               abs(v % 2 - 1.5), abs(v % 2 - 2)) < 1e-6:
            continue
        vx, vy = math.cos(math.pi * v), math.sin(math.pi * v)
        wx = float(tinv[0][0]) * vx + float(tinv[0][1]) * vy
        wy = float(tinv[1][0]) * vx + float(tinv[1][1]) * vy
        delta = (math.atan2(wy, wx) - math.atan2(uy, ux)) / math.pi % 2.0
        if min(delta, 2 - delta) < 1e-6:
            continue
        got = g.relabel(p).float_value()
        want = float_relabel(g, v)
        assert abs(got - want) < 1e-7, (g, p, got, want)
        done += 1


def quad(a, b, d=2):
    return QuadScalar(Fraction(a), Fraction(b), d)


def test_quad_charge_semistability_exact():
    # z1 = -sqrt(2) + i, z2 = 1 + i: phase(S1) vs phase(P) is decided by
    # the sign of 1 - sqrt(2) + 1, i.e. by comparing 2 with sqrt(2)
    Z = CentralCharge((
        ExactComplex(quad(0, -1), Fraction(1)),
        ExactComplex(Fraction(1), Fraction(1)),
    ))
    P = rep(A2, F2, (1, 1), {"a": [[1]]})
    cert = is_semistable(P, Z)
    assert cert.is_semistable
    # flip the quadratic part to the other side of the wall
    Z2 = CentralCharge((
        ExactComplex(quad(0, 1), Fraction(1)),
        ExactComplex(Fraction(-1), Fraction(1)),
    ))
    cert2 = is_semistable(P, Z2)
    assert cert2.verdict == "unstable"
    f1 = hn_filtration_max_sub(P, Z2)
    f2 = hn_filtration_mdq(P, Z2)
    assert f1.same_chain(f2)
    assert [f.dims for f in f1.factors] == [(0, 1), (1, 0)]


def test_quad_charge_near_tie_decided_exactly():
    # direction almost aligned: 17/12 is a convergent of sqrt(2), so the
    # float gap is ~1e-3 but the exact sign test must still separate them
    Z = CentralCharge((
        ExactComplex(quad(0, 1), Fraction(1)),          # sqrt(2) + i
        ExactComplex(Fraction(17, 12) - quad(0, 1), Fraction(0, 1) + Fraction(1)),
    ))
    P = rep(A2, F2, (1, 1), {"a": [[1]]})
    cert = is_semistable(P, Z)
    # phase(S2) vs phase(P): direction of z2 vs z1 + z2 = 17/12 + 2i;
    # cross(z_P, z_2) = 17/12 * 1 - 2 * (17/12 - sqrt(2)) = 2 sqrt(2) - 17/12*... decided exactly
    expected_cross = Fraction(17, 12) * 1 - 2 * (Fraction(17, 12) - math.sqrt(2))
    assert (cert.verdict == "unstable") == (expected_cross > 0)


def test_quad_discreteness_mixed_components():
    # (1 + sqrt(2))(1 + i) and 1 + i: rank-2 group inside the diagonal line
    Z = CentralCharge((
        ExactComplex(quad(1, 1), quad(1, 1)),
        ExactComplex(Fraction(1), Fraction(1)),
    ))
    report = check_discreteness(Z)
    assert report.z_rank == 2 and report.real_span_dim == 1
    assert report.verdict == "non_discrete"
    # whereas independent images form a lattice even with mixed components
    Z2 = CentralCharge((
        ExactComplex(quad(1, 1), Fraction(1)),
        ExactComplex(Fraction(0), Fraction(1)),
    ))
    assert check_discreteness(Z2).verdict == "discrete"


def test_quad_session_document(tmp_path):
    doc = {
        "quiver": {"vertices": 2, "arrows": [{"name": "a", "src": 1, "tgt": 2}]},
        "field": "F2",
        "D": 2,
        "reps": {
            "S1": {"dims": [1, 0]},
            "P": {"dims": [1, 1], "maps": {"a": [[1]]}},
        },
        "charges": {
            "Zq": {"z": [{"re": {"a": "0", "b": "-1"}, "im": "1"}, {"re": "1", "im": "1"}]},
            "Zline": {"z": [{"re": "0", "im": {"a": "1", "b": "1"}}, {"re": "0", "im": "1"}]},
        },
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    code, text = cli.run(["--input", str(path), "semistable", "P", "Zq"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["verdict"] == "semistable"
    assert payload["result"]["phase"]["dir_re"] == {"a": "1", "b": "-1", "d": 2}
    code, text = cli.run(["--input", str(path), "discrete", "Zq"])
    assert json.loads(text)["result"]["verdict"] == "discrete"
    code, text = cli.run(["--input", str(path), "discrete", "Zline"])
    assert json.loads(text)["result"]["verdict"] == "non_discrete"


def test_cap_flag_controls_enumeration(fixture_path, tmp_path):
    doc = json.loads(fixture_path.read_text())
    doc["reps"]["BIG"] = {"dims": [3, 4], "maps": {}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, text = cli.run(["--input", str(path), "semistable", "BIG", "Zstd"])
    assert code == 2
    assert json.loads(text)["error"] == "CapExceededError"
    code, text = cli.run(["--input", str(path), "--cap", "8", "semistable", "BIG", "Zstd"])
    assert code == 0
    # a tracked representation above the cap: auto pairs refuse as the certificate does
    doc["paths"]["path1"] = {"from": "Zwall0", "to": "Zwall1", "track": ["BIG"]}
    path.write_text(json.dumps(doc))
    code, text = cli.run(["--input", str(path), "walls", "path1", "--pairs", "auto"])
    assert (code, json.loads(text)) == (2, {"command": "walls", "ok": False, "error": "CapExceededError",
                                            "message": "total dimension 7 exceeds the enumeration cap 6"})


def test_cap_bounds_the_rational_certificate(tmp_path):
    # the sub-dimension-vector scan over Q is bounded like the enumeration
    doc = {"quiver": {"vertices": 2, "arrows": []}, "field": "Q",
           "reps": {"BIG": {"dims": [1000, 1000]}, "R": {"dims": [3, 4]}},
           "charges": {"Zstd": {"z": [{"re": "-1", "im": "1"}, {"re": "1", "im": "1"}]}}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, text = cli.run(["--input", str(path), "semistable", "BIG", "Zstd"])
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(text)["error"]) == (2, "CapExceededError")
    code, text = cli.run(["--input", str(path), "semistable", "R", "Zstd"])
    assert (code, json.loads(text)["error"]) == (2, "CapExceededError")
    code, text = cli.run(["--input", str(path), "--cap", "7", "semistable", "R", "Zstd"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["verdict"] == "unstable" and result["witness"]["dims"] == [3, 0]


def test_cap_error_names_dimension():
    big = rep(A2, F2, (4, 4))
    with pytest.raises(CapExceededError, match="8"):
        enumerate_submodules(big, cap=6)


@pytest.mark.parametrize("field, count", [("F5", 3583232), ("F7", 61946920)])
def test_budget_refuses_before_any_table_is_built(fixture_path, tmp_path, field, count):
    # dims (0, 6) is within the default cap, but the product of the
    # per-vertex subspace counts is above ENUMERATION_BUDGET
    doc = json.loads(fixture_path.read_text())
    doc["field"] = field
    doc["reps"]["S2"]["dims"] = [0, 6]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    built = linalg.subspaces.cache_info().misses
    for command in ("semistable", "hn"):
        start = time.perf_counter()
        code, text = cli.run(["--input", str(path), command, "S2", "Zstd"])
        assert time.perf_counter() - start < 1.0
        payload = json.loads(text)
        assert (code, payload["error"]) == (2, "CapExceededError")
        assert payload["message"] == (f"submodule enumeration for dimension vector (0, 6) would visit at least "
                                      f"{count}, above the enumeration budget {quivrep.ENUMERATION_BUDGET}")
    assert linalg.subspaces.cache_info().misses == built
    # the largest ladder shape over F7 stays within the budget
    assert quivrep._subspace_counts(7, (0, 5)) == (1, len(linalg.subspaces(7, 5))) == (1, 285704)


def test_semistable_verdict_builds_no_subspace_rows():
    # an aligned charge leaves no class of larger phase, so the verdict reads the lattice's
    # classes and no member: the 285,704 subspaces of F7^5 are counted per pivot set, not built
    r = rep(A2, linalg.field_by_name("F7"), (0, 5))
    Z = charge((1, 2), (3, 6))
    linalg.subspaces.cache_clear()
    quivrep._lattice.cache_clear()
    tracemalloc.start()
    try:
        cert = is_semistable(r, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "semistable" and cert.witness is None
    assert len(enumerate_submodules(r)) == 285_704
    assert peak < 2 * 10**6


def test_budget_is_checked_on_memo_hits(monkeypatch):
    r = rep(A2, F2, (2, 2), {"a": [[1, 0], [0, 1]]})
    lattice = enumerate_submodules(r)
    monkeypatch.setattr(quivrep, "ENUMERATION_BUDGET", len(linalg.subspaces(2, 2)) ** 2 - 1)
    with pytest.raises(CapExceededError, match="would visit at least 25, above the enumeration budget 24"):
        enumerate_submodules(r)
    monkeypatch.undo()
    assert enumerate_submodules(r) is lattice


def test_budget_bounds_the_rational_scan_above_a_raised_cap(tmp_path):
    # --cap 2000 admits dims (1000, 1000); its sub-dimension-vector scan is refused at once
    doc = {"quiver": {"vertices": 2, "arrows": []}, "field": "Q",
           "reps": {"BIG": {"dims": [1000, 1000]}},
           "charges": {"Zstd": {"z": [{"re": "-1", "im": "1"}, {"re": "1", "im": "1"}]}}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, text = cli.run(["--input", str(path), "--cap", "2000", "semistable", "BIG", "Zstd"])
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(text)["message"]) == (2, "the sub-dimension-vector scan for dimension vector "
                                                      "(1000, 1000) would visit at least 1002001, "
                                                      "above the enumeration budget 1000000")


def test_subspace_counts_stop_above_the_budget():
    assert quivrep._subspace_counts(2, tuple(range(9))) == tuple(len(linalg.subspaces(2, d)) for d in range(9))
    start = time.perf_counter()
    assert quivrep._subspace_counts(7, (10**5,))[0] > quivrep.ENUMERATION_BUDGET
    assert time.perf_counter() - start < 0.1

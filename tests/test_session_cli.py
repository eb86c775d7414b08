import copy
import csv
import importlib.util
import io
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stabkit import cli
from stabkit.errors import CycleError, InvariantViolation, SchemaError, StabkitError
from stabkit.exactnum import QuadScalar
from stabkit.quivrep import enumerate_submodules
from stabkit.session import parse_session, serialize_session
from stabkit.stabspace import cmp_roots

ROOT = Path(__file__).resolve().parent.parent


def test_fixture_loads(fixture_path):
    doc = parse_session(fixture_path.read_text())
    assert doc.quiver.n == 2
    assert sorted(doc.reps) == ["P", "S1", "S2", "SS"]
    assert len(enumerate_submodules(doc.reps["P"])) == 3
    pairs = doc.testset("all")
    assert [label for label, _ in pairs] == ["P", "S1", "S2", "SS", "PS", "S1up"]
    assert pairs[4][1] is doc.complexes["PS"]


def test_cyclic_quiver_rejected():
    doc = {
        "quiver": {"vertices": 2, "arrows": [
            {"name": "a", "src": 1, "tgt": 2}, {"name": "b", "src": 2, "tgt": 1}]},
        "field": "F2",
    }
    with pytest.raises(CycleError, match="1 -> 2 -> 1|2 -> 1 -> 2"):
        parse_session(json.dumps(doc))


def test_matrix_shape_mismatch_names_arrow():
    doc = {
        "quiver": {"vertices": 2, "arrows": [{"name": "a", "src": 1, "tgt": 2}]},
        "field": "F2",
        "reps": {"bad": {"dims": [1, 1], "maps": {"a": [[1, 0]]}}},
    }
    with pytest.raises(SchemaError, match="/reps/bad/maps/a"):
        parse_session(json.dumps(doc))


def test_bad_field_and_entries():
    base = {
        "quiver": {"vertices": 1, "arrows": []},
        "field": "F4",
    }
    with pytest.raises(Exception, match="F4"):
        parse_session(json.dumps(base))
    doc = {
        "quiver": {"vertices": 1, "arrows": []},
        "field": "F2",
        "reps": {"x": {"dims": [1], "maps": {}}},
        "charges": {"z": {"z": [{"re": "1", "im": "0"}]}},
    }
    with pytest.raises(SchemaError, match="/charges/z"):
        parse_session(json.dumps(doc))


def test_round_trip_idempotent(fixture_path):
    doc = parse_session(fixture_path.read_text())
    once = serialize_session(doc)
    twice = serialize_session(parse_session(once))
    assert once == twice


def test_standalone_charge_document():
    from stabkit.session import parse_charge_document

    Z = parse_charge_document(json.dumps(
        {"charge": {"z": [{"re": "-1", "im": "1"}, {"re": "0", "im": {"a": "0", "b": "1"}}], "D": 2}}
    ))
    assert Z.quad_d == 2
    with pytest.raises(SchemaError, match="at /charge.*half-plane"):
        parse_charge_document(json.dumps({"charge": {"z": [{"re": "1", "im": 0}]}}))


def run_cli(*argv):
    return cli.run(list(argv))


def test_cli_hn_matches_module(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "hn", "P", "Zflip")
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"]
    factors = payload["result"]["factors"]
    assert [f["dims"] for f in factors] == [[0, 1], [1, 0]]
    assert [f["phase"]["float_phase"] for f in factors] == [0.75, 0.25]
    assert factors[0]["phase"]["dir_re"] == "-1"


def test_cli_hn_checks_each_factor_once(fixture_path, monkeypatch):
    # one enumeration per route plus one semistability check per factor
    from stabkit import quivrep

    real = quivrep.enumerate_submodules
    calls = []

    def counting(r, cap=quivrep.DEFAULT_CAP):
        calls.append(r.dims)
        return real(r, cap)

    monkeypatch.setattr(quivrep, "enumerate_submodules", counting)
    code, text = run_cli("--input", str(fixture_path), "hn", "SS", "Zflip")
    assert code == 0
    assert [f["dims"] for f in json.loads(text)["result"]["factors"]] == [[0, 1], [1, 0]]
    assert calls == [(1, 1), (0, 1), (1, 0), (1, 1)]


def test_cli_semistable(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "semistable", "P", "Zstd")
    assert code == 0
    assert json.loads(text)["result"]["verdict"] == "semistable"
    code, text = run_cli("--input", str(fixture_path), "semistable", "P", "Zflip")
    payload = json.loads(text)
    assert payload["result"]["verdict"] == "unstable"
    assert payload["result"]["witness"]["dims"] == [0, 1]


def test_cli_walls_fixture(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "walls", "path1")
    assert code == 0
    result = json.loads(text)["result"]
    assert len(result["events"]) == 1
    event = result["events"][0]
    assert event["t_exact"] == {"p": "1", "q": "2", "a": None, "b": None, "disc": None}
    assert event["flip_evidence"]["left"]["t"] == "1/4"
    assert event["flip_evidence"]["left"]["verdicts"]["P"] == "semistable"
    assert event["flip_evidence"]["right"]["t"] == "3/4"
    assert event["flip_evidence"]["right"]["verdicts"]["P"] == "unstable"


NO_SYMPY_WALLS = """
import json, sys
from stabkit import cli
path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    names = json.load(fh)["paths"]
discs = set()
for name in names:
    code, text = cli.run(["--input", path, "walls", name])
    assert code == 0, text
    discs |= {e["t_exact"]["disc"] for e in json.loads(text)["result"]["events"]} - {None}
print(sorted(discs), "sympy" in sys.modules)
"""


def test_cli_walls_imports_no_sympy():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NO_SYMPY_WALLS, str(root / "fixtures" / "a3_sqrt2_session.json")],
                         env=env, capture_output=True, text=True, check=True)
    # walls in two quadratic extensions, ordered and split without sympy
    assert out.stdout.split() == ["[409,", "561]", "False"]


IMPORT_COST = """
import sys
heavy = {"dataclasses", "inspect"}
at_start = heavy & set(sys.modules)
import stabkit.cli
print(sorted(heavy & set(sys.modules) - at_start))
"""


def test_cli_import_brings_no_dataclasses_or_inspect():
    # each cold CLI process pays for its imports; these two cost more than a command
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_COST], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]"]


def test_cli_walls_auto_pairs(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "walls", "path1", "--pairs", "auto")
    assert code == 0
    result = json.loads(text)["result"]
    assert len(result["events"]) == 2  # both nontrivial subvector pairs align at 1/2
    assert {e["t_float"] for e in result["events"]} == {0.5}


def _session_ops_documents(seed):
    """The eight session documents of the benchmark's session-ops workload
    for a seed, from the benchmark's own generator (which imports nothing
    of stabkit); the configurations are those of its SessionOps.CONFIGS."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    configs = (("A2", 2, None), ("A3", 3, None), ("K2", 2, None), ("A2", 3, 2),
               ("A3", 2, None), ("K2", 3, 5), ("A2", 2, 3), ("K2", 2, None))
    return [gen.session(gen.rng_for("session-ops", seed, i), qname, p, d, n_paths=8)[0]
            for i, (qname, p, d) in enumerate(configs)]


def _root_value(raw):
    if raw["p"] is not None:
        return Fraction(int(raw["p"]), int(raw["q"]))
    return QuadScalar(Fraction(raw["a"]), Fraction(raw["b"]), raw["disc"])


def test_cli_walls_explain_every_verdict_flip(tmp_path):
    # cross(Z_t(beta), Z_t(d)) is continuous in t, so a tracked
    # representation of class d can change its verdict between two adjacent
    # chamber samples only across an event of one of its own pairs (beta, d).
    docs = _session_ops_documents(101)
    docs += [json.loads((ROOT / "fixtures" / name).read_text())
             for name in ("a2_session.json", "a3_sqrt2_session.json")]
    flips = 0
    for i, doc in enumerate(docs):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps(doc))
        for name in doc["paths"]:
            code, text = run_cli("--input", str(path), "walls", name, "--pairs", "auto")
            assert code == 0, text
            result = json.loads(text)["result"]
            events = [(_root_value(e["t_exact"]), e["pair"][1]) for e in result["events"]]
            samples = result["chamber_samples"]
            for left, right in zip(samples, samples[1:]):
                lo, hi = Fraction(left["t"]), Fraction(right["t"])
                for rep, verdict in left["verdicts"].items():
                    if right["verdicts"][rep] == verdict:
                        continue
                    flips += 1
                    dims = doc["reps"][rep]["dims"]
                    assert any(total == dims and cmp_roots(lo, t) < 0 < cmp_roots(hi, t) for t, total in events), \
                        (i, name, rep, left["t"], right["t"])
    assert flips >= 80  # 86 at this seed: the check is not vacuous


def test_cli_validate_all(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "validate", "Zstd", "--testset", "all")
    assert code == 0
    assert json.loads(text)["result"]["ok"] is True


def test_cli_metric_and_csv_determinism(fixture_path):
    args = ("--input", str(fixture_path), "--output", "csv",
            "metric", "stab", "Zstd", "Zflip", "--testset", "basic")
    code1, text1 = run_cli(*args)
    code2, text2 = run_cli(*args)
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1.splitlines()[0] == "object,lo_drift,hi_drift,log_mass_ratio"


def test_cli_deform(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "deform", "Zstd", "Zpert",
                         "--eps", "1/10", "--testset", "basic")
    assert code == 0
    result = json.loads(text)["result"]
    assert result["d_testset"] < 0.1
    assert all(h["margin"] > 0 for h in result["hypothesis"])


def test_cli_glact(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "glact", "Zstd",
                         "--matrix", "2,0,0,2", "--testset", "basic")
    assert code == 0
    result = json.loads(text)["result"]
    assert result["heart_compatible"] is True
    assert all(r["match"] for r in result["verdict_invariance"])
    phases = {r["object"]: r["phase"]["float_phase"] for r in result["relabeled"]}
    assert phases["P"] == 0.5


def test_cli_testset_rows_keep_order_and_repeats(fixture_path, tmp_path):
    # S1 is listed twice; SS and the complex PS are not semistable under Zstd
    doc = json.loads(fixture_path.read_text())
    doc["testsets"]["rep"] = ["S1", "P", "S1", "SS", "PS"]
    session = tmp_path / "rep.json"
    session.write_text(json.dumps(doc))
    every, semistable = ["S1", "P", "S1", "SS", "PS"], ["S1", "P", "S1"]

    def first_column(rows):
        return [row[0] for row in rows]

    cases = [  # argv, expected labels, labels of the JSON result, labels of the CSV rows
        (("glact", "Zstd", "--matrix", "2,0,0,2"), semistable,
         lambda r: [x["object"] for x in r["relabeled"]], first_column),
        (("metric", "slicing", "Zstd", "Zflip"), every,
         lambda r: [x["object"] for x in r["objects"]], first_column),
        (("validate", "Zstd"), every,
         lambda r: [c["subject"] for c in r["checks"] if c["axiom"] == "d"],
         lambda rows: [row[1] for row in rows if row[0] == "d"]),
        (("deform", "Zstd", "Zpert", "--eps", "1/10"), every,
         lambda r: [x["object"] for x in r["conclusion"]], first_column),
        (("deform", "Zstd", "Zpert", "--eps", "1/10"), semistable,
         lambda r: [x["object"] for x in r["hypothesis"]], None),
    ]
    for argv, want, json_labels, csv_labels in cases:
        code, text = run_cli("--input", str(session), *argv, "--testset", "rep")
        assert code == 0 and json_labels(json.loads(text)["result"]) == want, argv
        if csv_labels:
            code, text = run_cli("--input", str(session), "--output", "csv", *argv, "--testset", "rep")
            assert code == 0 and csv_labels(list(csv.reader(io.StringIO(text)))[1:]) == want, argv


def test_cli_discrete(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "discrete", "Zstd")
    assert code == 0
    assert json.loads(text)["result"]["verdict"] == "discrete"


def test_cli_curve_round_trip():
    code, text = run_cli("curve", "classify", "--matrix", "0,-1,1,0")
    assert code == 0
    result = json.loads(text)["result"]
    assert result["T"] == [["1", "0"], ["0", "1"]] and result["m"] == 0
    # charge matrix of the element T = [[1,5],[0,1]], whose point is 5 + i
    code, text = run_cli("curve", "reduce", "--matrix=-5,-1,1,0")
    result = json.loads(text)["result"]
    assert result["T"] == [["1", "5"], ["0", "1"]]
    assert result["tau_exact"] == {"re": "0", "im": "1"}
    assert result["gamma_word"] == "T^-5"


def test_cli_unknown_name_exit_2(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "hn", "NOPE", "Zstd")
    assert code == 2
    payload = json.loads(text)
    assert payload["ok"] is False and payload["error"] == "UnknownNameError"


def test_cli_precondition_exit_2(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "deform", "Zstd", "Zflip",
                         "--eps", "1/10", "--testset", "basic")
    assert code == 2
    assert json.loads(text)["error"] == "HypothesisViolatedError"


def test_cli_deform_checks_the_hn_factors_of_unstable_objects(tmp_path):
    # R = (S2 -> S3) is not semistable under Z; its HN factor S3 moves by
    # |W - Z| / |Z| = 1.31 > sin(pi/10), so the hypothesis fails (exit 2)
    # before the conclusion can (exit 3)
    def z(re, im):
        return {"re": re, "im": im}

    doc = {
        "quiver": {"vertices": 3, "arrows": [{"name": "a", "src": 1, "tgt": 2}, {"name": "b", "src": 2, "tgt": 3}]},
        "field": "F3",
        "reps": {"S1": {"dims": [1, 0, 0], "maps": {}}, "S2": {"dims": [0, 1, 0], "maps": {}},
                 "R": {"dims": [0, 1, 1], "maps": {"b": [[1]]}}},
        "charges": {"Z": {"z": [z("7", "4"), z("0", "1"), z("-1/2", "1")]},
                    "W": {"z": [z("6", "6"), z("0", "1"), z("-15/8", "3/2")]},
                    "W_far": {"z": [z("3", "6"), z("0", "1"), z("-15/8", "3/2")]}},
        "testsets": {"T": ["S1", "S2", "R"], "semistable": ["S1", "S2"], "R_first": ["R", "S1", "S2"]},
    }
    session = tmp_path / "a3.json"
    session.write_text(json.dumps(doc))
    code, text = run_cli("--input", str(session), "deform", "Z", "W", "--eps", "1/10", "--testset", "T")
    payload = json.loads(text)
    assert code == 2 and payload["error"] == "HypothesisViolatedError"
    assert payload["message"] == ("deformation hypothesis fails on R (its HN factor of class [0, 0, 1]): "
                                  "|W-Z| exceeds sin(pi*eps)|Z|")
    code, text = run_cli("--input", str(session), "deform", "Z", "W", "--eps", "1/10", "--testset", "semistable")
    result = json.loads(text)["result"]
    assert code == 0 and [h["object"] for h in result["hypothesis"]] == ["S1", "S2"]
    # the semistable objects are checked before the factors of the others
    code, text = run_cli("--input", str(session), "deform", "Z", "W_far", "--eps", "1/10", "--testset", "R_first")
    assert code == 2 and json.loads(text)["message"].startswith("deformation hypothesis fails on S1:")


def test_cli_argument_errors_exit_2_with_payload(fixture_path, capsys):
    cases = {("--cap", "x"): "argument --cap: invalid int value: 'x'",
             ("--output", "yaml"): "argument --output: invalid choice: 'yaml'"}
    for option, message in cases.items():
        argv = ["--input", str(fixture_path), *option, "semistable", "P", "Zstd"]
        code, text = cli.run(argv)
        payload = json.loads(text)
        assert code == 2 and payload["ok"] is False and payload["command"] is None
        assert payload["error"] == "StabkitError" and message in payload["message"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == payload
    # the parser's error hook raises, so no parser exits the process
    with pytest.raises(StabkitError, match="^stabkit: bad$"):
        cli.build_parser().error("bad")
    with pytest.raises(SystemExit) as exc:  # --help still prints and exits 0
        cli.run(["--help"])
    assert exc.value.code == 0 and "usage: stabkit" in capsys.readouterr().out


def test_cli_refusals_exit_2_with_payload(fixture_path, tmp_path):
    no_pairs = json.loads(fixture_path.read_text())
    del no_pairs["paths"]["path1"]["pairs"]
    session = tmp_path / "no_pairs.json"
    session.write_text(json.dumps(no_pairs))
    missing = tmp_path / "missing.json"
    cases = [  # argv, command, message
        (["curve", "classify", "--matrix", "1,2,3"], "curve", "--matrix expects 'a,b,c,d', got '1,2,3'"),
        (["--input", str(session), "walls", "path1", "--pairs", "explicit"], "walls",
         "path 'path1' declares no explicit pairs"),
        (["semistable", "P", "Zstd"], "semistable", "--input FILE is required for this command"),
        (["--input", str(missing), "semistable", "P", "Zstd"], "semistable", f"cannot read {missing}: "),
    ]
    for argv, command, message in cases:
        code, text = cli.run(argv)
        payload = json.loads(text)
        assert code == 2 and payload["ok"] is False and payload["command"] == command, argv
        assert payload["error"] == "StabkitError" and payload["message"].startswith(message), argv


def test_cli_unknown_names_exit_2(fixture_path):
    for command, message in ((["hn", "P", "Znone"], "unknown charge 'Znone'"),
                             (["decompose", "Nothing", "Zstd"], "unknown object 'Nothing'"),
                             (["walls", "nopath"], "unknown path 'nopath'")):
        code, text = run_cli("--input", str(fixture_path), *command)
        payload = json.loads(text)
        assert (code, payload["error"], payload["message"]) == (2, "UnknownNameError", message), command


def test_cli_decompose_over_q(fixture_path, tmp_path):
    doc = json.loads(fixture_path.read_text())
    doc["field"] = "Q"
    session = tmp_path / "over_q.json"
    session.write_text(json.dumps(doc))
    code, text = run_cli("--input", str(session), "decompose", "P", "Zstd")
    factors = json.loads(text)["result"]["factors"]
    assert code == 0 and [(f["shift"], f["dims"], f["phase"]["float_phase"]) for f in factors] == [(0, [1, 1], 0.5)]
    code, text = run_cli("--input", str(session), "decompose", "P", "Zflip")
    assert code == 2 and json.loads(text)["error"] == "UnsupportedVerdictError"


def test_cli_invariant_violation_exit_3(fixture_path, monkeypatch):
    def boom(doc, args):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setitem(cli._NEEDS_SESSION, "hn", boom)
    code, text = run_cli("--input", str(fixture_path), "hn", "P", "Zstd")
    assert code == 3
    assert json.loads(text)["error"] == "InvariantViolation"


def test_cli_json_byte_determinism(fixture_path):
    args = ("--input", str(fixture_path), "hn", "P", "Zflip")
    assert run_cli(*args) == run_cli(*args)


def test_cli_session_memo_is_keyed_by_text(fixture_path, tmp_path):
    doc = json.loads(fixture_path.read_text())
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    argv = ["--input", str(path), "semistable", "P", "Zstd"]
    assert json.loads(cli.run(argv)[1])["result"]["verdict"] == "semistable"
    doc["charges"]["Zstd"] = doc["charges"]["Zflip"]  # the same path, rewritten
    path.write_text(json.dumps(doc))
    assert json.loads(cli.run(argv)[1])["result"]["verdict"] == "unstable"


def test_cli_session_memo_stays_bounded(fixture_path, tmp_path):
    text = fixture_path.read_text()
    info = cli._session.cache_info()
    for i in range(info.maxsize + 3):  # distinct texts of one document
        path = tmp_path / f"s{i}.json"
        path.write_text(text + " " * i)
        assert cli.run(["--input", str(path), "discrete", "Zstd"])[0] == 0
        assert cli._session.cache_info().currsize <= info.maxsize
    hits = cli._session.cache_info().hits
    assert cli.run(["--input", str(path), "discrete", "Zstd"])[0] == 0
    assert cli._session.cache_info().hits == hits + 1


def test_cli_parser_is_built_once_and_namespaces_are_fresh(fixture_path, monkeypatch):
    seen = []

    def recording(doc, args):
        seen.append(args)
        return cli.cmd_walls(doc, args)

    monkeypatch.setitem(cli._NEEDS_SESSION, "walls", recording)
    base = ["--input", str(fixture_path), "walls", "path1"]
    events = [len(json.loads(cli.run(base + extra)[1])["result"]["events"])
              for extra in (["--pairs", "auto"], [], ["--pairs", "explicit"], [])]
    assert [args.pairs for args in seen] == ["auto", None, "explicit", None]
    assert events == [2, 1, 1, 1]  # path1 declares one explicit pair; auto pairs give two events
    assert len({id(args) for args in seen}) == 4 and cli.build_parser() is cli.build_parser()


def _malformed_fixture_exit(fixture_path, tmp_path, mutate, command=("semistable", "P", "Zstd")):
    doc = json.loads(fixture_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_cli("--input", str(bad), *command)
    payload = json.loads(text)
    assert payload["ok"] is False and payload["error"] == "SchemaError"
    return code, payload["message"]


def test_cli_list_in_testset_exit_2(fixture_path, tmp_path):
    for _ in range(3):  # a refused text is parsed, and refused, on every call
        code, message = _malformed_fixture_exit(
            fixture_path, tmp_path, lambda doc: doc["testsets"].update(bad=["S1", ["S2"]]))
        assert code == 2
        assert message.startswith("at /testsets/bad/1:")


def test_cli_list_as_complex_part_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["complexes"].update(bad={"parts": {"0": ["S1"]}}))
    assert code == 2
    assert message.startswith("at /complexes/bad/parts/0:")


def test_cli_list_in_path_track_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["paths"]["path1"].update(track=[["P"]]))
    assert code == 2
    assert message.startswith("at /paths/path1/track/0:")


def test_cli_boolean_dims_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["reps"].update(B={"dims": [True, True], "maps": {}}))
    assert code == 2
    assert message.startswith("at /reps/B/dims/0:")


def test_cli_string_in_path_pairs_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["paths"]["path1"].update(pairs=[[["0", "1"], [1, 1]]]),
        ("walls", "path1"))
    assert code == 2
    assert message.startswith("at /paths/path1/pairs/0/0/0:")


def test_cli_boolean_in_path_pairs_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["paths"]["path1"].update(pairs=[[[True, False], [1, 1]]]),
        ("walls", "path1"))
    assert code == 2
    assert message.startswith("at /paths/path1/pairs/0/0/0:")


def test_cli_huge_d_exit_2(fixture_path, tmp_path):
    # 10**30 + 1 would take about 10**15 trial divisions to check for square-freeness
    code, message = _malformed_fixture_exit(fixture_path, tmp_path, lambda doc: doc.update(D=10**30 + 1))
    assert code == 2
    assert message.startswith("at /D:")
    from stabkit.session import MAX_D, parse_charge_document

    largest_prime_below_bound = 999999999989
    assert largest_prime_below_bound < MAX_D
    doc = {"quiver": {"vertices": 1}, "field": "F2", "D": largest_prime_below_bound}
    assert parse_session(json.dumps(doc)).quad_d == largest_prime_below_bound
    with pytest.raises(SchemaError, match="at /charge/D"):
        parse_charge_document(json.dumps({"charge": {"z": [{"re": "0", "im": "1"}], "D": MAX_D + 1}}))


def test_cli_huge_dims_exit_2(fixture_path, tmp_path):
    # an omitted map is built as a zero matrix, so a huge entry used to hang the parser
    from stabkit.session import MAX_DIM

    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["reps"]["S2"].update(dims=[0, MAX_DIM + 1]), ("discrete", "Zstd"))
    assert code == 2
    assert message == f"at /reps/S2/dims/1: expected a dimension in 0..{MAX_DIM}, got {MAX_DIM + 1}"
    doc = {"quiver": {"vertices": 2, "arrows": [{"name": "a", "src": 1, "tgt": 2}]}, "field": "F2",
           "reps": {"S2": {"dims": [0, MAX_DIM]}}}
    assert parse_session(json.dumps(doc)).reps["S2"].dims == (0, MAX_DIM)


def test_cli_negative_dims_exit_2(fixture_path, tmp_path):
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["reps"]["S1"].update(dims=[-1, 0]))
    assert code == 2
    assert message.startswith("at /reps/S1/dims/0:")


def _add_arrow(src, tgt, name="b"):
    return lambda doc: doc["quiver"]["arrows"].append({"name": name, "src": src, "tgt": tgt})


def _sqrt2_path_endpoint(doc):
    doc["D"] = 2
    doc["charges"]["Zwall1"]["z"][1]["im"] = {"a": "0", "b": "1"}


def _quadratic_im(scalar, quad_d=None):
    """Set the last imaginary part of Zpert to scalar, and D to quad_d when given."""
    def mutate(doc):
        if quad_d is not None:
            doc["D"] = quad_d
        doc["charges"]["Zpert"]["z"][1]["im"] = scalar
    return mutate


# Fixture mutations refused with the document pointer of the constructor
# argument at fault: (label, mutation, error class, start of the message).
POINTER_REFUSALS = [
    ("field F4", lambda doc: doc.update(field="F4"), "SchemaError", "at /field: unknown field 'F4'"),
    ("D 4", lambda doc: doc.update(D=4), "SchemaError",
     "at /D: quadratic extension requires a square-free integer >= 2, got d=4"),
    ("arrow 2->1", _add_arrow(2, 1), "CycleError",
     "at /quiver/arrows: quiver has a directed cycle through vertices 2 -> 1 -> 2"),
    ("loop at 1", _add_arrow(1, 1), "CycleError",
     "at /quiver/arrows: quiver has a directed cycle through vertices 1 -> 1"),
    ("arrow 1->3", _add_arrow(1, 3), "SchemaError", "at /quiver/arrows/1: endpoint out of range 1..2"),
    ("arrow a twice", _add_arrow(1, 2, "a"), "SchemaError", "at /quiver/arrows/1: duplicate arrow name"),
    ("shift 1 twice", lambda doc: doc["complexes"].update(C={"parts": {"1": "S1", "+1": "S2"}}), "SchemaError",
     "at /complexes/C/parts: formal complex declares a shift twice"),
    ("zero class pair", lambda doc: doc["paths"]["path1"].update(pairs=[[[0, 0], [1, 1]]]), "SchemaError",
     "at /paths/path1/pairs/0: wall pair contains the zero class"),
    ("proportional pair", lambda doc: doc["paths"]["path1"].update(pairs=[[[0, 1], [1, 1]], [[1, 1], [2, 2]]]),
     "SchemaError", "at /paths/path1/pairs/1: classes (1, 1) and (2, 2) are proportional"),
    ("sqrt(2) path endpoint", _sqrt2_path_endpoint, "SchemaError",
     "at /paths/path1: charge paths require rational endpoint charges"),
    ("empty testset", lambda doc: doc["testsets"].update(empty=[]), "SchemaError",
     "at /testsets/empty: a testset needs at least one object"),
    ("quadratic scalar without D", _quadratic_im({"a": "1", "b": "1"}), "SchemaError",
     "at /charges/Zpert/z/1/im: quadratic scalar used but the document declares no D"),
    ("unknown scalar field", _quadratic_im({"a": "1", "b": "1", "c": "1"}, 2), "SchemaError",
     "at /charges/Zpert/z/1/im: unknown scalar fields ['c']"),
    ("shift key x", lambda doc: doc["complexes"].update(C={"parts": {"x": "S1"}}), "SchemaError",
     "at /complexes/C/parts/x: shift keys must be integers"),
    ("testset named all", lambda doc: doc["testsets"].update(all=["S1"]), "SchemaError",
     "at /testsets/all: 'all' is a reserved testset name"),
    ("unknown track rep", lambda doc: doc["paths"]["path1"].update(track=["P", "T"]), "SchemaError",
     "at /paths/path1/track: unknown representation 'T'"),
    ("one-class wall pair", lambda doc: doc["paths"]["path1"].update(pairs=[[[0, 1]]]), "SchemaError",
     "at /paths/path1/pairs/0: a pair is two integer vectors of length 2"),
    ("unknown top-level field", lambda doc: doc.update(notes="x", Extra=1), "SchemaError",
     "at /: unknown top-level fields ['Extra', 'notes']"),
]


@pytest.mark.parametrize("label, mutate, error, message", POINTER_REFUSALS, ids=[r[0] for r in POINTER_REFUSALS])
def test_cli_refusals_carry_the_document_pointer(fixture_path, tmp_path, label, mutate, error, message):
    doc = json.loads(fixture_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in FUZZ_COMMANDS["a2_session.json"]:
        code, text = run_cli("--input", str(bad), *command)
        payload = json.loads(text)
        if label == "sqrt(2) path endpoint" and command[0] != "walls":
            assert code == 0, (command, text)  # only the command that uses the path refuses it
            continue
        assert (code, payload["error"]) == (2, error), (command, text)
        assert payload["message"].startswith(message), (command, payload["message"])


def test_cli_overlong_integer_literal_exit_2(fixture_path, tmp_path):
    # the JSON reader refuses to convert an integer literal of more than 4300 digits
    from stabkit.session import parse_charge_document

    text = fixture_path.read_text()
    assert '"dims": [1, 0]' in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"dims": [1, 0]', '"dims": [1' + "0" * 5000 + ", 0]"))
    code, out = run_cli("--input", str(bad), "discrete", "Zstd")
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "SchemaError")
    assert payload["message"].startswith("at /: invalid JSON")
    with pytest.raises(SchemaError, match="^at /: invalid JSON"):
        parse_charge_document('{"charge": {"z": [], "D": 1' + "0" * 5000 + "}}")


def test_cli_largest_literals_exit_0(fixture_path, tmp_path):
    # advisory floats multiply several literals; at the bound they stay finite
    from stabkit.exactnum import MAX_LITERAL as M

    big, tiny = str(M), f"1/{M}"
    doc = json.loads(fixture_path.read_text())
    large = {"z": [{"re": "-" + big, "im": big}, {"re": big, "im": big}]}
    doc["charges"].update(
        Zstd=large, Zpert=large,
        Zflip={"z": [{"re": tiny, "im": tiny}, {"re": "-" + tiny, "im": tiny}]},
        Zwall0={"z": [{"re": "-" + big, "im": big}, {"re": "0", "im": tiny}]},
        Zwall1={"z": [{"re": big, "im": big}, {"re": "0", "im": tiny}]},
    )
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    matrices = (f"{M},0,0,{M}", f"1/{M},{M},-{M},1/{M}", f"{M - 1},{M},{M - 2},{M - 1}",
                f"1,{M}/{M - 1},{M - 2}/{M - 1},1")
    commands = [["--input", str(path), *c] for c in FUZZ_COMMANDS["a2_session.json"] if c[0] != "glact"]
    commands += [["--input", str(path), "deform", "Zstd", "Zpert", f"--eps=1/{M}", "--testset", "wide"]]
    commands += [["--input", str(path), "glact", z, f"--matrix={m}", "--testset", "wide"]
                 for z in ("Zstd", "Zflip") for m in matrices]
    commands += [["curve", which, f"--matrix={m}"] for which in ("classify", "reduce") for m in matrices]
    for argv in commands:
        for output in ("json", "csv"):
            code, text = cli.run(["--output", output, *argv])
            assert code == 0, (argv, text)


def test_cli_literal_out_of_range_exit_2(fixture_path, tmp_path):
    from stabkit.exactnum import MAX_LITERAL as M

    over = str(M + 1)
    for raw, pointer, shown in (("1e400", "/charges/Zstd/z/0/im", "1e400"),
                                (f"1/{over}", "/charges/Zstd/z/0/im", f"1/{over}"),
                                ({"a": "0", "b": over}, "/charges/Zstd/z/0/im/b", over)):
        def mutate(doc):
            doc["D"] = 2
            doc["charges"]["Zstd"]["z"][0]["im"] = raw

        code, message = _malformed_fixture_exit(fixture_path, tmp_path, mutate)
        assert code == 2 and message.startswith(f"at {pointer}: rational literal {shown!r} is out of range"), message
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc.update(field="Q") or doc["reps"]["P"]["maps"].update(a=[[M + 1]]))
    assert code == 2 and message.startswith(f"at /reps/P/maps/a: rational literal {M + 1} is out of range"), message
    code, message = _malformed_fixture_exit(
        fixture_path, tmp_path, lambda doc: doc["charges"]["Zstd"]["z"][0].update(im="1e999999999"))
    assert code == 2 and message == "at /charges/Zstd/z/0/im: bad rational literal '1e999999999': exponent out of range"
    for argv in (["curve", "reduce", "--matrix=1e400,0,0,1"], ["curve", "classify", f"--matrix={over},0,0,1"],
                 ["--input", str(fixture_path), "deform", "Zstd", "Zpert", "--eps=1e-400", "--testset", "basic"]):
        code, text = cli.run(argv)
        payload = json.loads(text)
        assert (code, payload["error"]) == (2, "UnsupportedScalarError"), argv
        assert "is out of range" in payload["message"]


# --- exit-code fuzz: mutated fixtures through every README command ---

FUZZ_COMMANDS = {
    "a2_session.json": [
        ["hn", "P", "Zflip"], ["semistable", "P", "Zstd"], ["decompose", "PS", "Zstd"], ["walls", "path1"],
        ["deform", "Zstd", "Zpert", "--eps", "1/10", "--testset", "basic"],
        ["metric", "slicing", "Zstd", "Zflip", "--testset", "basic"],
        ["metric", "stab", "Zstd", "Zflip", "--testset", "basic"],
        ["glact", "Zstd", "--matrix", "2,0,0,2", "--testset", "basic"], ["discrete", "Zstd"],
        ["validate", "Zstd", "--testset", "all"],
    ],
    "a3_sqrt2_session.json": [
        ["hn", "R", "Zq"], ["semistable", "P", "Zr"], ["decompose", "Rup", "Zr"], ["walls", "tour"],
        ["deform", "Zq", "Zp", "--eps", "1/10", "--testset", "basic"],
        ["metric", "stab", "Zq", "Zr", "--testset", "basic"], ["discrete", "Zq"],
        ["validate", "Zq", "--testset", "basic"],
    ],
}
FUZZ_VALUES = (None, True, 1.5, "x", "", "1e400", {}, [], 0, -1, 10**8, 10**30, -10**30, [[1]], {"a": "1"})
FUZZ_SECONDS = 2  # per command; a run past it counts as a hang


class _Hang(Exception):
    pass


def _fuzz_nodes(node, path=()):
    """Every (path, value) below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _fuzz_nodes(value, path + (key,))


def _mutate(doc, rng):
    """Apply one random mutation in place and name it."""
    nodes = list(_fuzz_nodes(doc))
    kind = rng.choice(("delete", "retype", "int", "list", "name"))
    if kind == "list":
        nodes = [n for n in nodes if isinstance(n[1], str)] or nodes
    elif kind == "int":
        nodes = [n for n in nodes if isinstance(n[1], int)] or nodes
    elif kind == "name":
        nodes = [n for n in nodes if isinstance(n[1], dict)] + [(("field",), doc.get("field"))]
    path, value = rng.choice(nodes)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    elif kind == "int":
        parent[key] = rng.choice((-1, -10**30, 10**8, 10**30, 2**63))
    elif kind == "list":
        parent[key] = [value]
    elif isinstance(value, dict) and value:
        value[rng.choice(("zz", "", "0", "name"))] = value.pop(rng.choice(sorted(value)))
    else:
        parent[key] = rng.choice(("F4", "GF2", "q", "f2", "F2 "))
    return f"{kind} /{'/'.join(map(str, path))}"


def test_cli_exit_codes_on_mutated_sessions(tmp_path):
    def hang(signum, frame):
        raise _Hang

    rng = random.Random(2024)
    root = Path(__file__).resolve().parent.parent / "fixtures"
    docs = [("a2_session.json", "S2 dims [0, 10**8]",
             lambda doc: doc["reps"]["S2"].update(dims=[0, 10**8])),
            ("a2_session.json", "10**30 vertices", lambda doc: doc["quiver"].update(vertices=10**30)),
            ("a2_session.json", "Zstd im 1e400", lambda doc: doc["charges"]["Zstd"]["z"][0].update(im="1e400")),
            ("a2_session.json", "F5, S2 dims [0, 6]", lambda doc: (doc.update(field="F5"),
                                                                  doc["reps"]["S2"].update(dims=[0, 6]))),
            ("a2_session.json", "F7, S2 dims [0, 6]", lambda doc: (doc.update(field="F7"),
                                                                  doc["reps"]["S2"].update(dims=[0, 6])))]
    docs += [("a2_session.json", label, mutate) for label, mutate, _, _ in POINTER_REFUSALS]
    docs += [(fixture, None, None) for fixture in sorted(FUZZ_COMMANDS) * 50]
    codes = []
    old = signal.signal(signal.SIGALRM, hang)
    try:
        for i, (fixture, label, mutate) in enumerate(docs):
            doc = json.loads((root / fixture).read_text())
            if mutate:
                mutate(doc)
            else:
                label = "; ".join(_mutate(doc, rng) for _ in range(rng.randint(1, 2)))
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            for command in FUZZ_COMMANDS[fixture]:
                argv = ["--input", str(path), *command]
                signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
                try:
                    code, text = cli.run(argv)
                except _Hang:
                    pytest.fail(f"{fixture} with {label}: {command} ran past {FUZZ_SECONDS} s")
                except Exception as exc:
                    pytest.fail(f"{fixture} with {label}: {command} raised {exc!r}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert code in (0, 2, 3), (fixture, label, command, text)
                payload = json.loads(text)
                assert payload["ok"] is (code == 0), (fixture, label, command, text)
                if code:
                    assert payload["error"] and payload["message"], (fixture, label, command, text)
                codes.append(code)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert {0, 2} <= set(codes)

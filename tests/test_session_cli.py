import json

import pytest

from stabkit import cli
from stabkit.errors import CycleError, InvariantViolation, SchemaError
from stabkit.quivrep import enumerate_submodules
from stabkit.session import parse_session, serialize_session


def test_fixture_loads(fixture_path):
    doc = parse_session(fixture_path.read_text())
    assert doc.quiver.n == 2
    assert sorted(doc.reps) == ["P", "S1", "S2", "SS"]
    assert len(enumerate_submodules(doc.reps["P"])) == 3
    labels, objs = doc.testset("all")
    assert labels == ["P", "S1", "S2", "SS", "PS", "S1up"]


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


def test_cli_walls_auto_pairs(fixture_path):
    code, text = run_cli("--input", str(fixture_path), "walls", "path1", "--pairs", "auto")
    assert code == 0
    result = json.loads(text)["result"]
    assert len(result["events"]) == 2  # both nontrivial subvector pairs align at 1/2
    assert {e["t_float"] for e in result["events"]} == {0.5}


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


def _malformed_fixture_exit(fixture_path, tmp_path, mutate):
    doc = json.loads(fixture_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_cli("--input", str(bad), "semistable", "P", "Zstd")
    payload = json.loads(text)
    assert payload["ok"] is False and payload["error"] == "SchemaError"
    return code, payload["message"]


def test_cli_list_in_testset_exit_2(fixture_path, tmp_path):
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

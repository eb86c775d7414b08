"""Byte-for-byte pins of CLI reports.

Every README command runs on ``fixtures/a2_session.json``, and the
testset-level commands run again on ``fixtures/a3_sqrt2_session.json``,
whose charges mix rational and sqrt(2) parts.  Each report is compared,
in both output formats, with a file under ``tests/golden/``.

After a deliberate change of report bytes, rewrite the files with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import sys
from pathlib import Path

import pytest

from stabkit import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
A2 = "a2_session.json"
A3Q = "a3_sqrt2_session.json"

CASES = {
    "a2-hn": (A2, ["hn", "P", "Zflip"]),
    "a2-semistable": (A2, ["semistable", "P", "Zstd"]),
    "a2-decompose": (A2, ["decompose", "PS", "Zstd"]),
    "a2-walls": (A2, ["walls", "path1"]),
    "a2-deform": (A2, ["deform", "Zstd", "Zpert", "--eps", "1/10", "--testset", "basic"]),
    "a2-deform-ninth": (A2, ["deform", "Zstd", "Zpert", "--eps", "1/9", "--testset", "basic"]),
    "a2-metric-slicing": (A2, ["metric", "slicing", "Zstd", "Zflip", "--testset", "basic"]),
    "a2-metric-stab": (A2, ["metric", "stab", "Zstd", "Zflip", "--testset", "basic"]),
    "a2-glact": (A2, ["glact", "Zstd", "--matrix", "2,0,0,2", "--testset", "basic"]),
    "a2-discrete": (A2, ["discrete", "Zstd"]),
    "a2-validate": (A2, ["validate", "Zstd", "--testset", "all"]),
    "curve-classify": (None, ["curve", "classify", "--matrix", "0,-1,1,0"]),
    "curve-reduce": (None, ["curve", "reduce", "--matrix=-5,-1,1,0"]),
    "a3q-decompose-P": (A3Q, ["decompose", "P", "Zq"]),
    "a3q-decompose-R": (A3Q, ["decompose", "R", "Zq"]),
    "a3q-decompose-PS": (A3Q, ["decompose", "PS", "Zq"]),
    "a3q-decompose-Rup": (A3Q, ["decompose", "Rup", "Zr"]),
    "a3q-glact": (A3Q, ["glact", "Zq", "--matrix", "2,1,0,1", "--testset", "wide"]),
    "a3q-glact-identity": (A3Q, ["glact", "Zq", "--matrix", "1,0,0,1", "--testset", "basic"]),
    "a3q-glact-shift": (A3Q, ["glact", "Zr", "--matrix=-1,0,0,-1", "--branch", "1", "--testset", "basic"]),
    "a3q-metric-slicing": (A3Q, ["metric", "slicing", "Zq", "Zr", "--testset", "wide"]),
    "a3q-metric-stab": (A3Q, ["metric", "stab", "Zq", "Zr", "--testset", "wide"]),
    "a3q-validate": (A3Q, ["validate", "Zq", "--testset", "all"]),
    "a3q-deform": (A3Q, ["deform", "Zq", "Zp", "--eps", "1/10", "--testset", "wide"]),
    "a3q-deform-ninth": (A3Q, ["deform", "Zq", "Zp", "--eps", "1/9", "--testset", "wide"]),
    "a3q-walls": (A3Q, ["walls", "tour"]),
}
FORMATS = ("json", "csv")


def report(name: str, fmt: str) -> str:
    fixture, cmd = CASES[name]
    argv = ["--output", fmt, *cmd]
    if fixture:
        argv = ["--input", str(ROOT / "fixtures" / fixture), *argv]
    code, text = cli.run(argv)
    assert code == 0, text
    return text


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, fmt):
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert report(name, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for fmt in FORMATS:
            (GOLDEN / f"{name}.{fmt}").write_text(report(name, fmt), encoding="utf-8")
    sys.exit(0)

"""Session documents: one JSON file declaring a quiver, a coefficient
field, named representations, charges, formal complexes, testsets, and
charge paths.  Parsing validates every invariant up front and reports
failures with JSON-pointer paths.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import SchemaError, StabkitError, UnknownNameError
from .exactnum import ExactComplex, Frozen, QuadScalar, fmt_scalar, parse_rational
from .quivrep import Arrow, DimVector, Quiver, QuiverRep
from .slicing import FormalComplex
from .stability import CentralCharge
from .stabspace import ChargePath, check_wall_pair

# Largest accepted quadratic-extension parameter D: checking that D is
# square-free takes trial divisions up to the cube root of D.
MAX_D = 10**12
# Largest accepted dimension at a vertex: an omitted arrow matrix is built
# as a zero matrix with dims[tgt] * dims[src] entries.
MAX_DIM = 10**3
# Scalar literals are bounded in exactnum.parse_rational, by MAX_LITERAL.


class PathSpec(NamedTuple):
    start: str
    end: str
    track: tuple[str, ...]
    pairs: tuple[tuple[DimVector, DimVector], ...] | None


class SessionDocument(Frozen):
    __slots__ = ("quiver", "field", "quad_d", "reps", "charges", "complexes", "testsets", "paths")

    def __init__(self, quiver: Quiver, field: linalg.Field, quad_d: int | None, reps: dict[str, QuiverRep],
                 charges: dict[str, CentralCharge], complexes: dict[str, FormalComplex],
                 testsets: dict[str, tuple[str, ...]], paths: dict[str, PathSpec]):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "quad_d", quad_d)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "complexes", complexes)
        object.__setattr__(self, "testsets", testsets)
        object.__setattr__(self, "paths", paths)

    def rep(self, name: str) -> QuiverRep:
        if name not in self.reps:
            raise UnknownNameError(f"unknown representation {name!r}")
        return self.reps[name]

    def charge(self, name: str) -> CentralCharge:
        if name not in self.charges:
            raise UnknownNameError(f"unknown charge {name!r}")
        return self.charges[name]

    def object(self, name: str) -> FormalComplex:
        """Named object: a representation (placed in degree 0) or a complex."""
        if name in self.reps:
            return FormalComplex.of_module(self.reps[name])
        if name in self.complexes:
            return self.complexes[name]
        raise UnknownNameError(f"unknown object {name!r}")

    def testset(self, name: str) -> list[tuple[str, FormalComplex]]:
        """Resolve a testset to (label, object) pairs in declared order,
        repeats kept; the reserved name 'all' takes every declared
        representation and complex in canonical order."""
        if name == "all":
            labels = sorted(self.reps) + sorted(self.complexes)
        else:
            if name not in self.testsets:
                raise UnknownNameError(f"unknown testset {name!r}")
            labels = self.testsets[name]
        return [(n, self.object(n)) for n in labels]

    def path(self, name: str) -> tuple[PathSpec, ChargePath]:
        if name not in self.paths:
            raise UnknownNameError(f"unknown path {name!r}")
        spec = self.paths[name]
        return spec, _at(f"/paths/{name}", ChargePath, self.charge(spec.start), self.charge(spec.end))

    def to_canonical(self) -> dict:
        """Canonical JSON form; parsing then serializing is idempotent."""
        out: dict = {
            "quiver": {
                "vertices": self.quiver.n,
                "arrows": [
                    {"name": a.name, "src": a.src, "tgt": a.tgt}
                    for a in sorted(self.quiver.arrows, key=lambda a: a.name)
                ],
            },
            "field": self.field.name,
        }
        if self.quad_d is not None:
            out["D"] = self.quad_d
        out["reps"] = {
            name: {
                "dims": list(rep.dims),
                "maps": {
                    a.name: [[fmt_entry(x) for x in row] for row in rep.maps[i]]
                    for i, a in enumerate(self.quiver.arrows)
                },
            }
            for name, rep in sorted(self.reps.items())
        }
        out["charges"] = {
            name: {"z": [{"re": _fmt_scalar_json(z.re), "im": _fmt_scalar_json(z.im)} for z in Z.values]}
            for name, Z in sorted(self.charges.items())
        }
        out["complexes"] = {
            name: {"parts": {str(k): _rep_name(self, rep) for k, rep in fc.parts}}
            for name, fc in sorted(self.complexes.items())
        }
        out["testsets"] = {name: list(v) for name, v in sorted(self.testsets.items())}
        out["paths"] = {
            name: {
                "from": p.start,
                "to": p.end,
                "track": list(p.track),
                **({"pairs": [[list(a), list(b)] for a, b in p.pairs]} if p.pairs else {}),
            }
            for name, p in sorted(self.paths.items())
        }
        return out


def _rep_name(doc: SessionDocument, rep: QuiverRep) -> str:
    for name, r in doc.reps.items():
        if r == rep:
            return name
    raise UnknownNameError("complex references an undeclared representation")


def fmt_entry(x) -> int | str:
    if isinstance(x, int):
        return x
    return str(x)


def _fmt_scalar_json(x):
    if isinstance(x, QuadScalar):
        return {"a": str(x.a), "b": str(x.b)}
    return str(x)


def _at(pointer: str, make, *args):
    """make(*args), with any refusal raised again at the document pointer:
    a SchemaError keeps its class and gets the pointer in front of its own."""
    try:
        return make(*args)
    except SchemaError as exc:
        raise type(exc)(pointer + exc.pointer, exc.message) from None
    except StabkitError as exc:
        raise SchemaError(pointer, str(exc)) from None


def _expect(obj, typ, pointer, what):
    if not isinstance(obj, typ) or (typ is int and isinstance(obj, bool)):
        raise SchemaError(pointer, f"expected {what}")
    return obj


def _parse_d(doc: dict) -> int | None:
    """The optional quadratic-extension parameter D of a session document."""
    quad_d = doc.get("D")
    if quad_d is not None:
        _expect(quad_d, int, "/D", "an integer")
        if quad_d > MAX_D:
            raise SchemaError("/D", f"D must be at most {MAX_D}, got {quad_d}")
        _at("/D", QuadScalar, Fraction(0), Fraction(1), quad_d)  # validates square-freeness
    return quad_d


def _parse_scalar(raw, pointer: str, quad_d: int | None):
    if isinstance(raw, dict):
        if quad_d is None:
            raise SchemaError(pointer, "quadratic scalar used but the document declares no D")
        a = _at(pointer + "/a", parse_rational, raw.get("a", 0))
        b = _at(pointer + "/b", parse_rational, raw.get("b", 0))
        extra = set(raw) - {"a", "b"}
        if extra:
            raise SchemaError(pointer, f"unknown scalar fields {sorted(extra)}")
        if b == 0:
            return a
        return QuadScalar(a, b, quad_d)
    if isinstance(raw, (int, str)):
        return _at(pointer, parse_rational, raw)
    raise SchemaError(pointer, f"bad scalar {raw!r}")


def _parse_charge(zraw: list, pointer: str, quad_d: int | None) -> CentralCharge:
    """The charge whose values are the list zraw at pointer + "/z"."""
    values = []
    for i, zv in enumerate(zraw):
        zptr = f"{pointer}/z/{i}"
        _expect(zv, dict, zptr, "an object with re and im")
        values.append(ExactComplex(
            _parse_scalar(zv.get("re", 0), zptr + "/re", quad_d),
            _parse_scalar(zv.get("im", 0), zptr + "/im", quad_d),
        ))
    return _at(pointer, CentralCharge, tuple(values))


def parse_session(text: str) -> SessionDocument:
    """Parse and fully validate a session document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal too long to convert
        raise SchemaError("/", f"invalid JSON: {exc}") from None
    _expect(doc, dict, "/", "a JSON object")

    qraw = _expect(doc.get("quiver"), dict, "/quiver", "an object")
    n = _expect(qraw.get("vertices"), int, "/quiver/vertices", "an integer")
    arrows = []
    for i, araw in enumerate(_expect(qraw.get("arrows", []), list, "/quiver/arrows", "a list")):
        ptr = f"/quiver/arrows/{i}"
        _expect(araw, dict, ptr, "an object")
        name = _expect(araw.get("name"), str, ptr + "/name", "a string")
        src = _expect(araw.get("src"), int, ptr + "/src", "an integer")
        tgt = _expect(araw.get("tgt"), int, ptr + "/tgt", "an integer")
        arrows.append(Arrow(name, src, tgt))
    quiver = _at("/quiver", Quiver, n, tuple(arrows))

    fname = _expect(doc.get("field"), str, "/field", "a field name")
    field = _at("/field", linalg.field_by_name, fname)

    quad_d = _parse_d(doc)

    reps: dict[str, QuiverRep] = {}
    for name, rraw in sorted(_expect(doc.get("reps", {}), dict, "/reps", "an object").items()):
        ptr = f"/reps/{name}"
        _expect(rraw, dict, ptr, "an object")
        dims_raw = _expect(rraw.get("dims"), list, ptr + "/dims", "a list of integers")
        dims = tuple(_expect(d, int, ptr + f"/dims/{i}", "an integer") for i, d in enumerate(dims_raw))
        for i, d in enumerate(dims):
            if not 0 <= d <= MAX_DIM:
                raise SchemaError(ptr + f"/dims/{i}", f"expected a dimension in 0..{MAX_DIM}, got {d}")
        if len(dims) != quiver.n:
            raise SchemaError(ptr + "/dims", f"expected {quiver.n} entries, got {len(dims)}")
        maps_raw = _expect(rraw.get("maps", {}), dict, ptr + "/maps", "an object")
        unknown = set(maps_raw) - {a.name for a in quiver.arrows}
        if unknown:
            raise SchemaError(ptr + "/maps", f"matrices for undeclared arrows {sorted(unknown)}")
        maps = []
        for a in quiver.arrows:
            rows_n, cols_n = dims[a.tgt - 1], dims[a.src - 1]
            mptr = ptr + f"/maps/{a.name}"
            if a.name not in maps_raw:
                maps.append(linalg.zero_matrix(field, rows_n, cols_n))
                continue
            mraw = _expect(maps_raw[a.name], list, mptr, "a matrix (list of rows)")
            if len(mraw) != rows_n or any(not isinstance(r, list) or len(r) != cols_n for r in mraw):
                raise SchemaError(mptr, f"matrix must be {rows_n}x{cols_n} for arrow {a.name}: {a.src}->{a.tgt}")
            maps.append(_at(mptr, lambda: tuple(tuple(field.coerce(x) for x in row) for row in mraw)))
        reps[name] = _at(ptr, QuiverRep, quiver, field, dims, tuple(maps))

    charges: dict[str, CentralCharge] = {}
    for name, craw in sorted(_expect(doc.get("charges", {}), dict, "/charges", "an object").items()):
        ptr = f"/charges/{name}"
        _expect(craw, dict, ptr, "an object")
        zraw = _expect(craw.get("z"), list, ptr + "/z", "a list of complex values")
        if len(zraw) != quiver.n:
            raise SchemaError(ptr + "/z", f"expected {quiver.n} values, got {len(zraw)}")
        charges[name] = _parse_charge(zraw, ptr, quad_d)

    complexes: dict[str, FormalComplex] = {}
    for name, fraw in sorted(_expect(doc.get("complexes", {}), dict, "/complexes", "an object").items()):
        ptr = f"/complexes/{name}"
        _expect(fraw, dict, ptr, "an object")
        parts_raw = _expect(fraw.get("parts"), dict, ptr + "/parts", "an object mapping shifts to rep names")
        parts = []
        for k_str, rep_name in sorted(parts_raw.items()):
            pptr = ptr + f"/parts/{k_str}"
            _expect(rep_name, str, pptr, "a representation name")
            try:
                k = int(k_str)
            except ValueError:
                raise SchemaError(pptr, "shift keys must be integers") from None
            if rep_name not in reps:
                raise SchemaError(pptr, f"unknown representation {rep_name!r}")
            parts.append((k, reps[rep_name]))
        complexes[name] = _at(ptr + "/parts", FormalComplex, tuple(parts))

    testsets: dict[str, tuple[str, ...]] = {}
    for name, traw in sorted(_expect(doc.get("testsets", {}), dict, "/testsets", "an object").items()):
        ptr = f"/testsets/{name}"
        if name == "all":
            raise SchemaError(ptr, "'all' is a reserved testset name")
        if not _expect(traw, list, ptr, "a list of object names"):
            raise SchemaError(ptr, "a testset needs at least one object")
        for i, obj in enumerate(traw):
            _expect(obj, str, ptr + f"/{i}", "an object name")
            if obj not in reps and obj not in complexes:
                raise SchemaError(ptr + f"/{i}", f"unknown object {obj!r}")
        testsets[name] = tuple(traw)

    paths: dict[str, PathSpec] = {}
    for name, praw in sorted(_expect(doc.get("paths", {}), dict, "/paths", "an object").items()):
        ptr = f"/paths/{name}"
        _expect(praw, dict, ptr, "an object")
        start = _expect(praw.get("from"), str, ptr + "/from", "a charge name")
        end = _expect(praw.get("to"), str, ptr + "/to", "a charge name")
        for cname in (start, end):
            if cname not in charges:
                raise SchemaError(ptr, f"unknown charge {cname!r}")
        track = tuple(_expect(praw.get("track", []), list, ptr + "/track", "a list of rep names"))
        for i, t in enumerate(track):
            _expect(t, str, ptr + f"/track/{i}", "a representation name")
            if t not in reps:
                raise SchemaError(ptr + "/track", f"unknown representation {t!r}")
        pairs = None
        if "pairs" in praw:
            pairs_raw = _expect(praw["pairs"], list, ptr + "/pairs", "a list of class pairs")
            pairs = []
            for i, pr in enumerate(pairs_raw):
                pptr = ptr + f"/pairs/{i}"
                if (not isinstance(pr, list) or len(pr) != 2
                        or any(not isinstance(v, list) or len(v) != quiver.n for v in pr)):
                    raise SchemaError(pptr, f"a pair is two integer vectors of length {quiver.n}")
                pairs.append(tuple(
                    tuple(_expect(x, int, f"{pptr}/{j}/{k}", "an integer") for k, x in enumerate(v))
                    for j, v in enumerate(pr)
                ))
                _at(pptr, check_wall_pair, *pairs[-1])
            pairs = tuple(pairs)
        paths[name] = PathSpec(start, end, track, pairs)

    known = {"quiver", "field", "D", "reps", "charges", "complexes", "testsets", "paths"}
    extra = set(doc) - known
    if extra:
        raise SchemaError("/", f"unknown top-level fields {sorted(extra)}")

    return SessionDocument(quiver, field, quad_d, reps, charges, complexes, testsets, paths)


def fmt_exact_complex(z: ExactComplex) -> dict:
    re_f, im_f = z.to_floats()
    return {
        "re": _fmt_scalar_json(z.re),
        "im": _fmt_scalar_json(z.im),
        "str": f"{fmt_scalar(z.re)} + {fmt_scalar(z.im)} i",
        "float_re": re_f,
        "float_im": im_f,
    }

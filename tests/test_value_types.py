"""Value semantics of the package's classes: immutability, equality,
hashing, repr and pickling.

Value types and validated classes are slots classes on ``exactnum.Frozen``;
result records are ``typing.NamedTuple``s, which no code compares or
hashes.  Both lists of class names are read off the modules under
``src/stabkit``, and the README must list the same classes.  The reprs
below are pinned byte for byte.
"""

import copy
import importlib
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from stabkit import ellcurve, linalg, quivrep, slicing, stability, stabspace
from stabkit.exactnum import ExactComplex, Frozen, PhaseKey, QuadScalar
from stabkit.linalg import field_by_name
from stabkit.quivrep import Arrow, Quiver, QuiverRep
from stabkit.session import parse_session

from support import ec

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "a2_session.json"


def public_classes() -> dict[str, type]:
    """Every public class defined in a module under src/stabkit, by name."""
    out = {}
    for path in sorted((ROOT / "src" / "stabkit").glob("*.py")):
        module = importlib.import_module(f"stabkit.{path.stem}")
        out.update((name, obj) for name, obj in vars(module).items()
                   if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_"))
    return out


CLASSES = public_classes()
FROZEN = tuple(name for name, cls in CLASSES.items() if issubclass(cls, Frozen) and cls is not Frozen)
RECORDS = tuple(name for name, cls in CLASSES.items() if issubclass(cls, tuple) and hasattr(cls, "_fields"))


def representatives():
    """(instance, pinned repr) for each value type and core validated class;
    every call builds new, equal instances."""
    q = QuadScalar(Fraction(1, 2), Fraction(-3), 5)
    a2 = Quiver(2, (Arrow("a", 1, 2),))
    t = "((Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(1, 1)))"
    rep = QuiverRep(a2, field_by_name("F3"), (1, 1), (((2,),),))
    rep_text = ("QuiverRep(quiver=Quiver(n=2, arrows=(Arrow(name='a', src=1, tgt=2),)), field=F3, dims=(1, 1), "
                "maps=(((2,),),))")
    return [
        (q, "QuadScalar(1/2, -3, d=5)"),
        (ExactComplex(Fraction(-1), q), "(-1 + (1/2+-3√5)i)"),
        (ec(Fraction(1, 3), 2), "(1/3 + 2i)"),
        (PhaseKey(1, ec(-1, 1)), "PhaseKey(k=1, dir=(-1 + 1i), ~1.750000)"),
        (stability.CentralCharge((ec(-1, 1), ec(1, 1))), "CentralCharge(values=((-1 + 1i), (1 + 1i)))"),
        (a2, "Quiver(n=2, arrows=(Arrow(name='a', src=1, tgt=2),))"),
        (rep, rep_text),
        (quivrep.SubmoduleLattice(rep), f"SubmoduleLattice(rep={rep_text})"),
        (linalg.SubspaceTable(2, 2), "SubspaceTable(p=2, dim=2)"),
        (stabspace.GLtildeElement(stabspace.mat2(1, 2, 0, 1), -1), f"GLtildeElement(T={t}, m=-1)"),
    ]


def every_class_instance() -> dict[str, object]:
    """One instance of every value type, validated class and result record."""
    doc = parse_session(FIXTURE.read_text(encoding="utf-8"))
    testset = doc.testset("basic")
    Z = doc.charge("Zstd")
    sigma = stabspace.StabilityConditionHandle(doc.quiver, doc.field, Z)
    flip = stabspace.StabilityConditionHandle(doc.quiver, doc.field, doc.charge("Zflip"))
    spec, path = doc.path("path1")
    g = ellcurve.classify(ellcurve.NumericalCharge(stabspace.mat2(-5, -1, 1, 0)))
    lattice = quivrep.enumerate_submodules(doc.rep("P"))
    built = [x for x, _ in representatives()] + [
        doc, doc.quiver.arrows[0], spec, path, sigma, g, lattice, lattice.member(1), linalg.subspaces(2, 2),
        ellcurve.NumClass(1, 2), ellcurve.NumericalCharge(g.T), ellcurve.modular_reduce(g),
        stability.is_semistable(doc.rep("P"), Z), stability.hn_filtration_max_sub(doc.rep("P"), Z),
        stability.check_discreteness(Z),
        stabspace.deform(sigma, doc.charge("Zpert"), Fraction(1, 10), testset)[1],
        stabspace.find_walls(path, list(spec.pairs)),
        stabspace.validate_axioms(sigma, testset),
        doc.object("PS"), slicing.hn_decompose(doc.object("PS"), sigma)[0],
        slicing.slicing_distance(sigma, flip, testset),
    ]
    out = {type(x).__name__: x for x in built}
    out["ObjectDrift"] = out["DistanceReport"].rows[0]
    out["StabDistanceRow"] = stabspace.stab_distance(sigma, flip, testset).rows[0]
    out["HypothesisRow"] = out["DeformReport"].hypothesis[0]
    out["WallEvent"] = out["WallsReport"].events[0]
    out["AxiomCheck"] = out["AxiomReport"].checks[0]
    return out


def slot_names(obj) -> list[str]:
    """The slots of obj's class and its bases, base classes first."""
    return [n for cls in reversed(type(obj).__mro__) for n in getattr(cls, "__slots__", ())]


def public_fields(obj) -> tuple:
    """The values of obj's public fields, in order, as a bare tuple."""
    names = obj._fields if isinstance(obj, tuple) else [n for n in slot_names(obj) if not n.startswith("_")]
    return tuple(getattr(obj, n) for n in names)


def readme_class_list(heading: str) -> list[str]:
    """The backquoted names in the README's parenthesised list after heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"`(\w+)`", re.search(re.escape(heading) + r" \(([^)]*)\)", text).group(1))


def test_readme_lists_the_classes():
    assert {"PhaseKey", "Submodule", "SessionDocument"} <= set(FROZEN) and {"PathSpec", "ObjectDrift"} <= set(RECORDS)
    assert sorted(readme_class_list("*Value types and validated classes*")) == sorted(FROZEN)
    assert sorted(readme_class_list("*Result records*")) == sorted(RECORDS)


def test_every_instance_refuses_assignment_and_deletion():
    instances = every_class_instance()
    assert sorted(instances) == sorted(FROZEN + RECORDS)
    for name, obj in instances.items():
        assert isinstance(obj, Frozen if name in FROZEN else tuple), name
        first = obj._fields[0] if name in RECORDS else slot_names(obj)[0]
        for attempt in (lambda: setattr(obj, first, None), lambda: setattr(obj, "extra", None),
                        lambda: delattr(obj, first), lambda: delattr(obj, "extra")):
            with pytest.raises(AttributeError):
                attempt()
        assert not hasattr(obj, "__dict__"), name


def test_session_document_is_immutable():
    doc = parse_session(FIXTURE.read_text(encoding="utf-8"))
    with pytest.raises(AttributeError, match="SessionDocument is immutable"):
        doc.reps = {}
    assert sorted(doc.reps) == ["P", "S1", "S2", "SS"]


def test_reprs_equality_hash_and_pickling_are_pinned():
    for (x, text), (y, _) in zip(representatives(), representatives()):
        assert repr(x) == repr(y) == text
        assert x is not y and x == y and not x != y and hash(x) == hash(y)
        assert pickle.loads(pickle.dumps(x)) == x and copy.copy(x) == x and copy.deepcopy(x) == x


def test_compared_classes_never_equal_a_bare_tuple():
    instances = every_class_instance()
    for name in FROZEN:
        fields = public_fields(instances[name])
        assert instances[name] != fields and fields != instances[name] and instances[name] != list(fields), name

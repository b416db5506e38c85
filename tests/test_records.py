"""The slotted value classes against the dataclasses they replaced.

Each of the 19 classes must keep its constructor signature, defaults and
checks, its attribute values and repr, a type-strict ``==`` (never equal to
a plain tuple or to another class with the same field values), and either
the hash of its field tuple (frozen classes) or no hash at all (mutable
ones).  The reference definitions are ``conftest.Dataclasses``.
"""

import inspect
import itertools
import math
import random
from dataclasses import MISSING, fields

import pytest

from conftest import Dataclasses
from ditopo import core, graph, nathom, pv

NAMES = {
    core: ("Vertex", "EdgeInterior", "Step", "Patch", "Patchwork", "DiTCReport",
           "SectionCheckReport", "ContinuityReport"),
    graph: ("Edge", "TraceClassSummary", "_TierInfo"),
    nathom: ("NatObject", "NatMorphism", "NatDiagram"),
    pv: ("Action", "PVProgram", "Rect", "ForbiddenRegion", "Schedule"),
}
LIBRARY = {name: getattr(module, name) for module, names in NAMES.items() for name in names}
REFERENCE = {name: getattr(Dataclasses, name) for name in LIBRARY}


def _member(x, y):
    return True


def _section(x, y):
    return None


FUNCTIONS = (_member, _section)
SPACES = (None, object())


def _optional(rng, kwargs, key, value):
    """Pass ``key`` on about half the draws, so defaults get used too."""
    if rng.random() < 0.5:
        kwargs[key] = value
    return kwargs


def _name(rng):
    return rng.choice("ab")


def _t(rng):
    return rng.choice((0.25, 0.75))


def _patch(ns, rng):
    return ns["Patch"](rng.choice(("F1", "F2")), rng.choice(FUNCTIONS),
                       rng.choice(FUNCTIONS), rng.choice((1.0, 2.0)))


def _patchwork(ns, rng, k=None):
    k = rng.randint(0, 2) if k is None else k
    kwargs = _optional(rng, {}, "regular", rng.random() < 0.5)
    kwargs = _optional(rng, kwargs, "space", rng.choice(SPACES))
    return ns["Patchwork"]([_patch(ns, rng) for _ in range(k)], **kwargs)


def _ditc(ns, rng):
    lower = rng.randint(1, 2)
    upper = lower + rng.randint(0, 1)
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["patchwork"] = _patchwork(ns, rng, upper)
    return ns["DiTCReport"](lower, upper, lower == upper, rng.choice(list(core.Reason)),
                            **kwargs)


def _violations(rng):
    return [{"pair": (_name(rng), _name(rng))} for _ in range(rng.randint(0, 1))]


def _section_report(ns, rng):
    kwargs = {}
    for key in ("membership_violations", "endpoint_violations", "path_violations"):
        _optional(rng, kwargs, key, _violations(rng))
    return ns["SectionCheckReport"](rng.choice((10, 20)), **kwargs)


def _continuity(ns, rng):
    kwargs = _optional(rng, {}, "violations", _violations(rng))
    kwargs = _optional(rng, kwargs, "worst", rng.choice((None, {"ratio": 0.5})))
    return ns["ContinuityReport"](rng.choice(("F1", "F2")), 30, rng.choice((0, 30)), 2.0,
                                  rng.choice((0.0, 1.5)), **kwargs)


def _action(ns, rng):
    return ns["Action"](rng.choice("PV"), _name(rng))


def _program(ns, rng):
    return ns["PVProgram"](*(tuple(_action(ns, rng) for _ in range(rng.randint(0, 2)))
                             for _ in range(2)))


def _rect(ns, rng):
    return ns["Rect"](_name(rng), *(rng.randint(0, 1) for _ in range(4)))


def _nat_object(ns, rng):
    return ns["NatObject"](_name(rng), "v:a", "v:b", (_name(rng),),
                           tuple((_name(rng),) for _ in range(rng.randint(0, 2))))


def _nat_morphism(ns, rng):
    return ns["NatMorphism"](_name(rng), _name(rng), (), (_name(rng),),
                             tuple(range(rng.randint(0, 2))), rng.randint(0, 2))


MAKERS = {
    "Vertex": lambda ns, rng: ns["Vertex"](_name(rng)),
    "EdgeInterior": lambda ns, rng: ns["EdgeInterior"](_name(rng), _t(rng)),
    "Step": lambda ns, rng: ns["Step"](_name(rng), 0.0, _t(rng)),
    "Patch": _patch,
    "Patchwork": _patchwork,
    "DiTCReport": _ditc,
    "SectionCheckReport": _section_report,
    "ContinuityReport": _continuity,
    "Edge": lambda ns, rng: ns["Edge"](_name(rng), _name(rng), "c"),
    "TraceClassSummary": lambda ns, rng: ns["TraceClassSummary"](
        rng.choice((0, 1, math.inf)), tuple((_name(rng),) for _ in range(rng.randint(0, 1)))),
    "_TierInfo": lambda ns, rng: ns["_TierInfo"](
        rng.random() < 0.5, False, {("a", "b"): rng.randint(1, 2)}, [("a", "b")], True),
    "NatObject": _nat_object,
    "NatMorphism": _nat_morphism,
    "NatDiagram": lambda ns, rng: ns["NatDiagram"](
        [_nat_object(ns, rng) for _ in range(rng.randint(0, 1))],
        [_nat_morphism(ns, rng) for _ in range(rng.randint(0, 1))]),
    "Action": _action,
    "PVProgram": _program,
    "Rect": _rect,
    "ForbiddenRegion": lambda ns, rng: ns["ForbiddenRegion"](
        [_rect(ns, rng) for _ in range(rng.randint(0, 1))]),
    "Schedule": lambda ns, rng: ns["Schedule"](
        _program(ns, rng), rng.choice((2, 8)), ((0.0, 0.0), (_t(rng), 0.0)),
        tuple(f"1:P{_name(rng)}" for _ in range(rng.randint(0, 1)))),
}
SEEDS = range(12)


def _twins(ns) -> list:
    """One instance per class whose required fields all take the value 0.5,
    so that classes with the same number of fields hold equal field tuples."""
    out = []
    for name, cls in ns.items():
        required = [p for p in inspect.signature(cls).parameters.values()
                    if p.default is inspect.Parameter.empty]
        try:
            out.append(cls(*[0.5] * len(required)))
        except (ValueError, TypeError):
            pass    # a check of the class refuses the value
    return out


def _values(ns) -> list:
    """Seeded instances of every class (the small value pools make some of
    them equal), the twins, and each instance's field tuple as a plain tuple."""
    records = [MAKERS[name](ns, random.Random(seed)) for name in ns for seed in SEEDS]
    records += _twins(ns)
    field_names = {name: [f.name for f in fields(REFERENCE[name]) if f.compare]
                   for name in REFERENCE}
    tuples = [tuple(getattr(r, f) for f in field_names[type(r).__name__]) for r in records]
    return records + tuples


def test_every_converted_class_is_covered():
    assert sorted(MAKERS) == sorted(LIBRARY)
    assert len(LIBRARY) == 19


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_constructor_signature_matches(name):
    got = inspect.signature(LIBRARY[name]).parameters
    want = inspect.signature(REFERENCE[name]).parameters
    assert list(got) == list(want)
    for key, param in want.items():
        assert got[key].kind == param.kind
        # a list built per instance (default_factory) becomes a None default
        factory = REFERENCE[name].__dataclass_fields__[key].default_factory
        if factory is MISSING:
            assert got[key].default == param.default
        else:
            assert got[key].default is None and factory() == []


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_attributes_and_repr_match(name):
    for seed in SEEDS:
        lib = MAKERS[name](LIBRARY, random.Random(seed))
        ref = MAKERS[name](REFERENCE, random.Random(seed))
        assert repr(lib) == repr(ref)
        for f in fields(ref):
            assert repr(getattr(lib, f.name)) == repr(getattr(ref, f.name))


def test_equality_matches_across_all_classes_and_plain_tuples():
    lib, ref = _values(LIBRARY), _values(REFERENCE)
    assert [repr(v) for v in lib] == [repr(v) for v in ref]
    equal_pairs = 0
    for i, j in itertools.product(range(len(lib)), repeat=2):
        want = ref[i] == ref[j]
        assert (lib[i] == lib[j]) is want, (ref[i], ref[j])
        assert (lib[i] != lib[j]) is (ref[i] != ref[j]), (ref[i], ref[j])
        equal_pairs += want and i != j
    assert equal_pairs > 0      # the value pools must produce equal records


def test_eq_refuses_other_types_as_the_dataclasses_did():
    for name in LIBRARY:
        lib = MAKERS[name](LIBRARY, random.Random(0))
        ref = MAKERS[name](REFERENCE, random.Random(0))
        assert lib.__eq__(()) is NotImplemented is ref.__eq__(())
        assert lib.__eq__(ref) is NotImplemented


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_hash_matches_or_is_refused(name):
    frozen = REFERENCE[name].__dataclass_params__.frozen
    for seed in SEEDS:
        lib = MAKERS[name](LIBRARY, random.Random(seed))
        ref = MAKERS[name](REFERENCE, random.Random(seed))
        if frozen:
            assert hash(lib) == hash(ref)
        else:
            for value in (lib, ref):
                with pytest.raises(TypeError):
                    hash(value)


INVALID = [
    ("EdgeInterior", ("e", 0.0)),
    ("EdgeInterior", ("e", 1.0)),
    ("EdgeInterior", ("e", math.nan)),
    ("EdgeInterior", ("e", -0.5)),
    ("DiTCReport", (2, 1, False, core.Reason.KNOWN_BUILTIN)),
    ("DiTCReport", (0, 0, True, core.Reason.KNOWN_BUILTIN)),
    ("DiTCReport", (1, 2, True, core.Reason.KNOWN_BUILTIN)),
    ("DiTCReport", (2, 2, False, core.Reason.KNOWN_BUILTIN)),
]


@pytest.mark.parametrize("name, args", INVALID)
def test_checks_refuse_what_the_dataclasses_refused(name, args):
    with pytest.raises(Exception) as want:
        REFERENCE[name](*args)
    with pytest.raises(want.type) as got:
        LIBRARY[name](*args)
    assert str(got.value) == str(want.value)


def test_default_lists_are_built_per_instance():
    first, second = core.SectionCheckReport(1), core.SectionCheckReport(1)
    first.path_violations.append("x")
    assert second.path_violations == []
    first, second = (core.ContinuityReport("F1", 1, 0, 1.0, 0.0) for _ in range(2))
    first.violations.append("x")
    assert second.violations == []


def test_witness_patch_count_is_checked():
    for ns in (LIBRARY, REFERENCE):
        witness = ns["Patchwork"]([_patch(ns, random.Random(0))])
        with pytest.raises(ValueError, match="witness patch count"):
            ns["DiTCReport"](2, 2, True, core.Reason.KNOWN_BUILTIN, witness)

"""The record contract of the package's value types.

DigitString, Interval, SchemeCell, Scheme, AlphabetInfo, AdmissibilityBound,
UniqueSample, Expansion, Violation and AdmissibilityReport are immutable
records: equal only to a record of the same class with equal fields, hashed
as the tuple of their fields, printed as `Name(field=value, ...)`, and closed
to assignment.  Expansion and AdmissibilityReport also pass for frozen
dataclasses, so dataclasses.replace, fields and asdict work on them; their
dataclass fields are built when first read, so importing the package does
not import dataclasses.
"""

import copy
import dataclasses
import pickle
import pprint
import subprocess
import sys
from pathlib import Path

import pytest

from negabase import (ADMISSIBLE, REJECTED, STATUS_OK, STATUS_PERIOD_NOT_FOUND,
                      AdmissibilityBound, AdmissibilityReport, AlphabetInfo, DigitString,
                      Expansion, Interval, PairDigit, Scheme, SchemeCell, UniqueSample,
                      Violation, build_beta2_scheme, interval_I, minimal_alphabet, run_scheme)

# class, positional fields, every field by name in order, and the repr; plain
# literals stand in for exact values, which no record checks
RECORDS = [
    (DigitString, ((1, 0), (1, 1)), dict(preperiod=(1, 0), period=(1,)),
     "DigitString(preperiod=(1, 0), period=(1,))"),
    (Interval, (-1, 2, False, True), dict(lo=-1, hi=2, lo_closed=False, hi_closed=True),
     "Interval(lo=-1, hi=2, lo_closed=False, hi_closed=True)"),
    (SchemeCell, ("I", PairDigit(0, 1), 3), dict(interval="I", digit=PairDigit(0, 1), value=3),
     "SchemeCell(interval='I', digit=PairDigit(b=0, a=1), value=3)"),
    (Scheme, (-2, "I", ()), dict(base=-2, domain="I", cells=()),
     "Scheme(base=-2, domain='I', cells=())"),
    (AlphabetInfo, ((PairDigit(1, 0),), (), PairDigit(1, 0), None, False),
     dict(greedy=(PairDigit(1, 0),), lazy=(), max_greedy=PairDigit(1, 0), min_lazy=None,
          full=False),
     "AlphabetInfo(greedy=(PairDigit(b=1, a=0),), lazy=(), max_greedy=PairDigit(b=1, a=0), "
     "min_lazy=None, full=False)"),
    (AdmissibilityBound, ("ctx", 7), dict(ctx="ctx", orbit_budget=7),
     "AdmissibilityBound(ctx='ctx', orbit_budget=7)"),
    (UniqueSample, (DigitString((), (1,)), "1/2", 1),
     dict(word=DigitString((), (1,)), value="1/2", branch_count=1),
     "UniqueSample(word=DigitString(preperiod=(), period=(1,)), value='1/2', branch_count=1)"),
    (Expansion, (DigitString((1,)), STATUS_PERIOD_NOT_FOUND, "l"),
     dict(word=DigitString((1,)), status=STATUS_PERIOD_NOT_FOUND, endpoint="l"),
     "Expansion(word=DigitString(preperiod=(1,), period=()), status='period-not-found', "
     "endpoint='l')"),
    (Violation, ("top-digit", 1, "1:0"), dict(rule="top-digit", position=1, factor="1:0"),
     "Violation(rule='top-digit', position=1, factor='1:0')"),
    (AdmissibilityReport, (REJECTED, Violation("top", 1, "1:0")),
     dict(verdict=REJECTED, violation=Violation("top", 1, "1:0")),
     "AdmissibilityReport(verdict='rejected', "
     "violation=Violation(rule='top', position=1, factor='1:0'))"),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    fields = tuple(kwargs.values())
    assert tuple(getattr(a, name) for name in kwargs) == fields
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert repr(a) == repr(b) == text
    assert a.__eq__(fields) is NotImplemented
    assert a != fields
    # a change in any one field breaks equality
    for i in range(len(args)):
        other = list(args)
        other[i] = "changed"
        assert cls(*other) != a


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, args, kwargs, text):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**kwargs)


def test_records_of_different_classes_differ():
    assert SchemeCell(1, 2, 3) != UniqueSample(1, 2, 3)
    assert SchemeCell(1, 2, 3) != Scheme(1, 2, 3)


def test_construction_defaults_and_errors():
    assert DigitString() == DigitString((), ()) == DigitString(period=())
    assert DigitString(period=(0, 1, 0, 1)).period == (0, 1)
    full = Interval(0, 1)
    assert (full.lo_closed, full.hi_closed) == (True, True)
    assert Interval(0, 1, hi_closed=False) == Interval(0, 1, True, False)
    assert Interval(hi=1, lo=0) == full
    word = DigitString((1,))
    assert Expansion(word) == Expansion(word, STATUS_OK, None) == Expansion(word=word)
    assert Expansion(word, endpoint="r") == Expansion(word, STATUS_OK, "r")
    assert AdmissibilityReport(ADMISSIBLE) == AdmissibilityReport(ADMISSIBLE, None)
    assert AdmissibilityReport(violation=None, verdict=REJECTED).violation is None
    for make in (lambda: Interval(0), lambda: Interval(0, 1, True, True, True),
                 lambda: Interval(0, 1, lo=0), lambda: Interval(0, 1, width=1),
                 lambda: SchemeCell(1, 2), lambda: DigitString((), (), ()),
                 lambda: Expansion(), lambda: Expansion(word, status=STATUS_OK, verdict=1),
                 lambda: AdmissibilityReport(ADMISSIBLE, None, None)):
        with pytest.raises(TypeError):
            make()


def test_copy_and_pickle_keep_the_record():
    word = DigitString((PairDigit(1, 0),), (PairDigit(0, 1), PairDigit(1, 1)))
    for twin in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert twin == word and repr(twin) == repr(word)
    assert copy.copy(Interval(0, 1, False)) == Interval(0, 1, False)
    for cls, args, kwargs, text in RECORDS:
        record = cls(*args)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and repr(twin) == text


def test_bound_caches_stay_out_of_equality(phi):
    a, b = AdmissibilityBound(phi, 10_000), AdmissibilityBound(phi, 10_000)
    top = a.top
    assert a.top is top and a._automaton is None
    a._tails()
    assert a._automaton and b._automaton is None
    assert a == b and hash(a) == hash(b)
    assert a != AdmissibilityBound(phi, 9_999)
    assert repr(a) == repr(b) and "_automaton" not in repr(a) and "top" not in repr(a)


def test_scheme_lattice_is_cached(phi):
    scheme = build_beta2_scheme(phi, "greedy")
    assert run_scheme(scheme, interval_I(phi).lo, depth=4).ok
    assert scheme._lattice is scheme._lattice
    assert scheme == Scheme(scheme.base, scheme.domain, scheme.cells)
    assert hash(scheme) == hash((scheme.base, scheme.domain, scheme.cells))


def test_alphabet_info_is_a_record(phi):
    info = minimal_alphabet(phi)
    assert info == AlphabetInfo(info.greedy, info.lazy, info.max_greedy, info.min_lazy, info.full)
    assert repr(info).startswith("AlphabetInfo(greedy=(PairDigit(b=1, a=0), ")


def test_expansion_and_report_stay_dataclasses():
    word = DigitString((), (1, 0))
    exp = Expansion(word)
    moved = dataclasses.replace(exp, status=STATUS_PERIOD_NOT_FOUND)
    assert moved == Expansion(word, STATUS_PERIOD_NOT_FOUND) and not moved.ok
    assert dataclasses.replace(moved, word=DigitString((1,))).word == DigitString((1,))
    report = AdmissibilityReport(ADMISSIBLE)
    violation = Violation("top", 1, "1:0")
    rejected = dataclasses.replace(report, verdict=REJECTED, violation=violation)
    assert rejected == AdmissibilityReport(REJECTED, violation) and not rejected.ok
    missing = dataclasses.MISSING
    assert [(f.name, f.default) for f in dataclasses.fields(exp)] \
        == [("word", missing), ("status", STATUS_OK), ("endpoint", None)]
    assert [(f.name, f.default) for f in dataclasses.fields(AdmissibilityReport)] \
        == [("verdict", missing), ("violation", None)]
    assert dataclasses.asdict(moved) \
        == {"word": word, "status": STATUS_PERIOD_NOT_FOUND, "endpoint": None}
    assert dataclasses.asdict(rejected) == {"verdict": REJECTED, "violation": violation}
    assert dataclasses.is_dataclass(Expansion) and dataclasses.is_dataclass(rejected)
    assert not dataclasses.is_dataclass(Interval)
    # pprint asks for the dataclass parameters of a dataclass that outgrows a line
    long = Expansion(DigitString(tuple(range(30))))
    assert pprint.pformat(long, width=20).replace("\n", "").replace(" ", "") \
        == repr(long).replace(" ", "")


def test_dataclass_fields_are_built_when_first_read():
    # dataclasses.replace on records of a package imported without dataclasses
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from negabase import ADMISSIBLE, REJECTED, AdmissibilityReport, phi_field\n"
        "from negabase import greedy_neg_beta, parse_element\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import dataclasses\n"
        "exp = greedy_neg_beta(parse_element('-1/2', phi_field()))\n"
        "print(dataclasses.replace(exp, endpoint='r'))\n"
        "print(dataclasses.replace(AdmissibilityReport(ADMISSIBLE), verdict=REJECTED))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Expansion(word=DigitString(preperiod=(), period=(1, 1, 1, 0, 0, 0)), status='ok', "
        "endpoint='r')",
        "AdmissibilityReport(verdict='rejected', violation=None)"]


def test_pair_digit_is_a_named_tuple():
    p = PairDigit(0, 1)
    assert repr(p) == "PairDigit(b=0, a=1)"
    assert p == (0, 1) and hash(p) == hash((0, 1)) and tuple(p) == (0, 1)
    assert (p.b, p.a) == (0, 1) and PairDigit._fields == ("b", "a")
    assert PairDigit(a=1, b=0) == p and p._replace(b=1) == PairDigit(1, 1)
    assert p.letters() == (0, 1) and p.text() == "0:1"
    assert isinstance(p, tuple) and sorted([PairDigit(1, 0), p]) == [p, PairDigit(1, 0)]
    with pytest.raises(AttributeError):
        p.b = 1

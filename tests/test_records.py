"""The records: immutable tuples or plain classes.

Assigning to a field raises AttributeError; equality and hash cover the
record's fields, and the hash is the hash of the tuple of those fields,
on which set and dict orders, and so the output, depend; construction
validates with fixed messages, and `_replace` gives a changed copy that
is validated too.  `SearchResult` alone is mutable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import psbe
from psbe.algebra import FiniteAlgebra, UnaryMap
from psbe.classify import FAILS, HOLDS, NOT_APPLICABLE, Verdict
from psbe.deduction import Congruence, DeductiveSystem, QuotientAlgebra
from psbe.laws import Law, SearchResult, SearchSpec
from psbe.quantifiers import CompositionResult, MonadicPair

from conftest import VERDICT_BOOL, fixture_path

T = ((0, 1), (0, 0))           # -> and ~> of the 2-element chain 1 > e
E, F = UnaryMap((0, 1)), UnaryMap((0, 0))


def chain(**changes):
    fields = dict(name="c2", element_names=("1", "e"), one=0, arrow=T, squig=T)
    return FiniteAlgebra(**{**fields, **changes})


def check_law(ctx):
    return True, None, 1


# per record: (build(variant) -> record, its fields in order); variant 0
# and 1 differ in one field
RECORDS = {
    "UnaryMap": (lambda v: UnaryMap((0, v)), ("images",)),
    "Verdict": (lambda v: Verdict("psBE1", (HOLDS, FAILS)[v], (v,), v, "0,1"),
                ("name", "status", "witness", "instances", "pair")),
    "MonadicPair": (lambda v: MonadicPair(E, (E, F)[v]), ("exists", "forall")),
    "CompositionResult": (lambda v: CompositionResult(None, bool(v), None, None),
                          ("pair", "commute", "forall_le", "exists_le")),
    "DeductiveSystem": (lambda v: DeductiveSystem(frozenset({0, v}), True),
                        ("members", "normal")),
    "Congruence": (lambda v: Congruence((0, v)), ("classes",)),
    "QuotientAlgebra": (lambda v: QuotientAlgebra(chain(), (0, v), None),
                        ("algebra", "projection", "pair")),
    "Law": (lambda v: Law("X.law", "x = x", v, bool, check_law),
            ("id", "anchor", "arity", "hypothesis", "check", "uses_pair", "probe")),
    "SearchSpec": (lambda v: SearchSpec("AX.refl", 3 + v),
                   ("law", "max_size", "min_size", "require", "budget")),
    "FiniteAlgebra": (lambda v: chain(zero=(None, 1)[v]),
                      ("name", "element_names", "one", "arrow", "squig", "zero")),
}


@pytest.mark.parametrize("record", RECORDS)
def test_record_is_immutable_with_field_equality_and_hash(record):
    build, fields = RECORDS[record]
    a, b, c = build(0), build(0), build(1)
    assert a == b and a != c and a is not b
    assert not (a != b)
    values = tuple(getattr(a, f) for f in fields)
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b, c}) == 2
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
    assert tuple(getattr(a, f) for f in fields) == values
    changed = a._replace(**{fields[0]: getattr(c, fields[0])})
    assert type(changed) is type(a) and getattr(changed, fields[0]) == getattr(c, fields[0])
    assert tuple(getattr(changed, f) for f in fields[1:]) == values[1:]


def test_finite_algebra_ignores_unary_and_validates():
    plain, marked = chain(), chain(unary={"exists": E, "forall": F})
    assert plain == marked and hash(plain) == hash(marked)
    assert marked.unary == {"exists": E, "forall": F} and plain.unary == {}
    assert plain.with_unary(exists=E, forall=F).unary == marked.unary
    assert marked._replace(zero=1).unary is marked.unary
    with pytest.raises(AttributeError):
        del plain.arrow
    assert repr(plain) == ("FiniteAlgebra(name='c2', element_names=('1', 'e'), one=0, "
                           "arrow=((0, 1), (0, 0)), squig=((0, 1), (0, 0)), zero=None, "
                           "unary={})")
    bad = [(dict(element_names=()), "empty carrier"),
           (dict(element_names=("1", "1")), "duplicate element names"),
           (dict(arrow=((0, 1),)), "arrow table is not a 2x2 tuple of tuples"),
           (dict(squig=((0, 1), (0, 2))), "squig table entry out of range"),
           (dict(arrow=((0, -1), (0, 0))), "arrow table entry out of range"),
           (dict(one=2), "constant 1 out of range"),
           (dict(zero=-1), "constant 0 out of range"),
           (dict(unary={"m": UnaryMap((0,))}), "unary map 'm' is not a self-map"),
           (dict(unary={"m": UnaryMap((0, 2))}), "unary map 'm' is not a self-map"),
           (dict(unary={"m": UnaryMap((-1, 0))}), "unary map 'm' is not a self-map")]
    for changes, message in bad:
        for make in (lambda: chain(**changes), lambda: plain._replace(**changes)):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message
    with pytest.raises(TypeError):
        plain._replace(size=3)


def test_search_spec_validates_on_construction_and_replace():
    spec = SearchSpec(law="AX.refl")
    assert spec == ("AX.refl", 4, 2, (), None)
    with pytest.raises(TypeError):
        SearchSpec("AX.refl", iso_reject=True)   # every search skips isomorphic copies
    assert spec._replace(budget=0).budget == 0
    for make in (lambda: SearchSpec("AX.refl", 6), lambda: spec._replace(min_size=1),
                 lambda: SearchSpec("AX.refl", 3, 4)):
        with pytest.raises(psbe.PreconditionUnmet) as exc:
            make()
        assert str(exc.value) == "search sizes must satisfy 2 <= min <= max <= 5"
    for make in (lambda: SearchSpec("AX.refl", budget=-1), lambda: spec._replace(budget=-1)):
        with pytest.raises(psbe.PreconditionUnmet) as exc:
            make()
        assert str(exc.value) == "search budget must be >= 0, got -1"
    with pytest.raises(AttributeError):
        spec.extra = 1                           # no instance dictionary


def test_search_result_is_mutable_and_unhashable():
    result = SearchResult(found=None)
    assert result == SearchResult(None, {}, False) and result.visited == 0
    result.visited_by_size[2] = 7
    result.exhausted = True
    assert result.visited == 7 and result != SearchResult(found=None)
    assert SearchResult(found=None).visited_by_size is not SearchResult(None).visited_by_size
    with pytest.raises(TypeError):
        hash(result)


def test_record_protocols():
    m = UnaryMap((0, 0, 1))
    assert len(m) == 3 and m(2) == 1 and m._replace(images=(0, 1, 2)).is_identity()
    assert 2 in DeductiveSystem(frozenset({0, 2}), False)
    assert 1 not in DeductiveSystem(frozenset({0, 2}), False)
    truth = [VERDICT_BOOL(v) for v in (Verdict.holds("x"), Verdict.fails("x", (0,)),
                                       Verdict.na("x"), Verdict("l", HOLDS, None, 1, "0"),
                                       Verdict("l", NOT_APPLICABLE, None, 0, "0"))]
    assert truth == [True, False, False, True, False]
    for verdict in (Verdict.holds("x"), Verdict.fails("x", (0,))):
        with pytest.raises(TypeError, match="read its status"):
            bool(verdict)
    law_verdict = Verdict("l", FAILS, (0,), 3, "0,1")
    assert (law_verdict.law_id, law_verdict.pair_name) == ("l", "0,1")
    law = Law(id="X.law", anchor="x = x", arity=0, hypothesis=(), check=check_law)
    assert law.uses_pair and not law.probe
    assert Verdict("x", HOLDS).witness is None


# the modules each command line runs on bc4, whose file follows the subcommand;
# every other psbe module stays unexecuted in sys.modules (psbe/__init__.py
# loads it lazily), and only a pair (--pair, or each pair verify reads) runs quantifiers
CHECK = {"psbe.algebra", "psbe.classify", "psbe.cli"}
DS = CHECK | {"psbe.deduction"}
PAIR = DS | {"psbe.quantifiers"}
RUNS = {"check": CHECK, "mop": CHECK | {"psbe.quantifiers"}, "ds": DS, "gen --set a": DS,
        "quotient --set 1,a": DS, "ds --pair 1": PAIR, "quotient --set 1,a --pair 1": PAIR,
        "verify": PAIR | {"psbe.laws"}}

# a fresh interpreter, so that this process's imports do not count; it
# prints the modules imported after site, those of psbe that have run (a
# lazily loaded module is of a ModuleType subclass until then) and, after
# psbe.cli.run(ARGV) when ARGV is not empty, those that have run then
FRESH = """
import contextlib, io, json, sys, types
before = set(sys.modules)
sys.path.insert(0, {src!r})
{entry}
ran = lambda: sorted(n for n, m in sys.modules.items()
                     if n.startswith("psbe.") and type(m) is types.ModuleType)
out = {{"imported": sorted(set(sys.modules) - before), "ran": ran()}}
if {argv!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        out["code"] = psbe.cli.run({argv!r})
    out["ran_after"] = ran()
print(json.dumps(out))
"""


def fresh(argv=(), entry="import psbe.cli"):
    src = Path(psbe.__file__).resolve().parents[1]
    code = FRESH.format(src=str(src), argv=list(argv), entry=entry)
    # -B, as the benchmark runs psbe: no bytecode is written
    return json.loads(subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                                     text=True, check=True).stdout)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    out = fresh()
    assert "psbe.cli" in out["imported"]
    assert "dataclasses" not in out["imported"] and "inspect" not in out["imported"]
    # every submodule is in sys.modules, where perfbench's tracer finds it,
    # but only those the CLI needs to start have run
    assert {"psbe.algebra", "psbe.classify", "psbe.quantifiers", "psbe.deduction",
            "psbe.laws"} <= set(out["imported"])
    assert set(out["ran"]) == RUNS["check"]


@pytest.mark.parametrize("command", RUNS)
def test_a_subcommand_runs_only_the_modules_it_calls(command):
    name, *options = command.split()
    out = fresh([name, str(fixture_path("bc4")), *options])
    assert out["code"] == 0
    assert set(out["ran_after"]) == RUNS[command]


def test_a_search_for_a_pair_free_law_runs_neither_quantifiers_nor_deduction():
    out = fresh(["search", "--law", "AX.psbck6_antisym", "--max-size", "3"])
    assert out["code"] == 1     # a counterexample
    assert set(out["ran_after"]) == CHECK | {"psbe.laws"}


def test_the_law_catalog_runs_laws_alone():
    out = fresh(entry="import psbe; psbe.catalog()")
    assert set(out["ran"]) == {"psbe.algebra", "psbe.classify", "psbe.laws"}


EXPORTS = {
    "quantifiers": ("MonadicPair", "build_from_sigma", "build_from_tau", "check_monadic",
                    "compose_pairs", "enumerate_mop", "fixed_set"),
    "deduction": ("Congruence", "DeductiveSystem", "correspondence_report",
                  "enumerate_congruences", "enumerate_ds", "generated_ds", "quotient",
                  "theta_from_ds"),
    "laws": ("SearchSpec", "catalog", "search_counterexample", "verify_suite"),
}


def test_the_package_reexports_the_submodules_objects_without_storing_them():
    from psbe import (Congruence, DeductiveSystem, MonadicPair, SearchSpec, build_from_sigma,
                      build_from_tau, catalog, check_monadic, compose_pairs,
                      correspondence_report, enumerate_congruences, enumerate_ds,
                      enumerate_mop, fixed_set, generated_ds, quotient,
                      search_counterexample, theta_from_ds, verify_suite)
    imported = locals()
    assert sum(map(len, EXPORTS.values())) == len(imported) == 19
    for module, names in EXPORTS.items():
        for name in names:
            owner = getattr(sys.modules[f"psbe.{module}"], name)
            assert getattr(psbe, name) is owner and imported[name] is owner
            assert name not in vars(psbe)
    assert psbe.quantifiers is sys.modules["psbe.quantifiers"]
    with pytest.raises(AttributeError, match="module 'psbe' has no attribute 'nope'"):
        psbe.nope

import importlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from psbe.algebra import PreconditionUnmet
from psbe.classify import (FAILS, FLAG_NAMES, HOLDS, ClassificationReport, InvariantViolated,
                           check_pseudo_be, check_pseudo_bck, classify)
from psbe.laws import SearchSpec, search_counterexample

from conftest import (FIXTURE_NAMES, ORACLE_ALGEBRAS, TABLE_NAMES,
                      eager_classify, load, times_c2)

# the module: the package attribute psbe.classify is the function
classify_module = importlib.import_module("psbe.classify")


def names(alg, verdict):
    return tuple(alg.element_names[i] for i in verdict.witness)


def test_all_fixtures_are_pseudo_be(any_fixture):
    assert check_pseudo_be(any_fixture).status == HOLDS


def test_psbe4_not_bck_witness(psbe4):
    v = check_pseudo_bck(psbe4)
    assert v.status == FAILS
    assert names(psbe4, v) == ("a", "b")


def test_psbe5_not_bck_witness(psbe5):
    v = check_pseudo_bck(psbe5)
    assert v.status == FAILS
    assert names(psbe5, v) == ("b", "c")


def test_psbe5_flags(psbe5):
    report, _ = classify(psbe5)
    assert report.holds("distributive_i")
    assert report.holds("condition_M") and report.holds("condition_T")
    assert not report.holds("commutative")
    assert not report.holds("poset")          # a<=d<=a with a != d
    assert not report.holds("bounded")


def test_bc4_flags(bc4):
    report, _ = classify(bc4)
    for flag in ("pseudo_bck", "bounded", "commutative", "good",
                 "lattice", "has_pP", "pseudo_mv"):
        assert report.holds(flag), flag
    # both implications coincide: the algebra is its own "pseudo" twin
    assert bc4.arrow == bc4.squig


def test_inv6_flags(inv6):
    report, _ = classify(inv6)
    assert report.holds("pseudo_bck")
    assert report.holds("bounded") and report.holds("good")
    assert report.holds("involutive")
    assert not report.holds("commutative")
    assert report.holds("poset")
    assert not report.holds("meet_semilattice")  # some pairs have no infimum


def test_bc4_derived_tables(bc4):
    report, _ = classify(bc4)
    nm = bc4.element_names
    odot = [[nm[v] for v in row] for row in report.odot]
    oplus = [[nm[v] for v in row] for row in report.oplus]
    assert odot == [["1", "a", "b", "0"],
                    ["a", "a", "0", "0"],
                    ["b", "0", "b", "0"],
                    ["0", "0", "0", "0"]]
    assert oplus == [["1", "1", "1", "1"],
                     ["1", "a", "1", "a"],
                     ["1", "1", "b", "b"],
                     ["1", "a", "b", "0"]]


def test_negations_involutive(inv6):
    report, _ = classify(inv6)
    n = inv6.size
    for x in range(n):
        assert report.neg_sim[report.neg_minus[x]] == x
        assert report.neg_minus[report.neg_sim[x]] == x


def test_report_json_shape(any_fixture):
    report, _ = classify(any_fixture)
    doc = report.to_json(any_fixture)
    for verdict in doc.values():
        assert verdict["status"] in ("holds", "fails", "not_applicable")


# ------------------------------------------- on-demand classification
# Each flag and table of classify is computed on first read; the eager
# one-pass classification in conftest is the reference.  classify(alg)
# returns the report the algebra object keeps, which other tests may have
# read already: a fresh ClassificationReport is built for each read alone
# and for the reads in a random order.

def assert_matches_eager(alg, seed=0):
    try:
        flags, tables = eager_classify(alg)
    except PreconditionUnmet as exc:
        with pytest.raises(PreconditionUnmet, match=re.escape(str(exc))):
            classify(alg)
        return
    for name in FLAG_NAMES:                 # each read alone
        assert ClassificationReport(alg)[name] == flags[name], name
    for name in TABLE_NAMES:
        assert getattr(ClassificationReport(alg), name) == tables[name], name
    report = ClassificationReport(alg)      # everything, in a random order
    attrs = list(FLAG_NAMES + TABLE_NAMES)
    random.Random(seed).shuffle(attrs)
    for name in attrs:
        getattr(report, name)
    for checked in (report, classify(alg)[0]):
        assert checked.to_json(alg) == {k: v.to_json(alg) for k, v in flags.items()}
        assert list(checked.flags) == list(FLAG_NAMES)
        assert {name: getattr(checked, name) for name in TABLE_NAMES} == tables
        assert checked["distributive"] == flags["distributive_i"]


def test_classify_returns_the_report_the_algebra_keeps(any_fixture):
    report, ops = classify(any_fixture)
    assert ops is report
    assert classify(any_fixture)[0] is report
    copy = any_fixture._replace()
    assert copy == any_fixture and hash(copy) == hash(any_fixture)
    assert repr(copy) == repr(any_fixture)
    fresh, _ = classify(copy)
    assert fresh is not report and fresh.alg is copy
    assert classify(copy)[0] is fresh
    assert fresh.to_json(copy) == report.to_json(any_fixture)


def test_bad_declared_zero_raises_on_every_classify(psbe5):
    alg = psbe5._replace(zero=psbe5.one)
    for _ in range(2):
        with pytest.raises(PreconditionUnmet, match="declared zero"):
            classify(alg)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_classify_matches_eager(alg):
    assert_matches_eager(alg)


def test_a_declared_zero_must_be_among_several_least_elements(psbe4):
    # psbe4 has two least elements, b and c: either may be declared as the
    # zero (none is then the zero), its top 1 may not
    b, c = psbe4.index("b"), psbe4.index("c")
    assert classify_module.least_elements(psbe4._replace(zero=b)) == [b, c]
    report, _ = classify(psbe4._replace(zero=c))
    assert report.zero is None and report.bounded.status == FAILS
    with pytest.raises(PreconditionUnmet, match="^declared zero '1' is not a least element$"):
        classify(psbe4._replace(zero=psbe4.one))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_declared_zero_checked_up_front(name):
    # every element declared as the zero: classify raises exactly when,
    # and with the message with which, the eager classification does
    alg = load(name)
    for zero in alg.elements():
        assert_matches_eager(alg._replace(zero=zero), seed=zero)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.data())
def test_classify_matches_eager_off_psbe(name, data):
    # one cell of one table changed, mostly not psBE any more; the
    # declared zero is dropped, as it need not stay least
    alg = load(name)
    n = alg.size
    which = data.draw(st.sampled_from(["arrow", "squig"]))
    x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    rows = [list(row) for row in getattr(alg, which)]
    rows[x][y] = v
    alg = alg._replace(zero=None, **{which: tuple(map(tuple, rows))})
    assert_matches_eager(alg, seed=data.draw(st.integers(0, 2**16)))


def test_unmet_names_the_first_name_not_met(bc4, inv6, psbe5):
    report, _ = classify(inv6)
    assert report.unmet(()) is None
    assert report.unmet(("pseudo_bck", "distributive", "odot")) == "distributive"   # an alias
    assert report.unmet(("bounded", "has_pP", "odot", "neg_minus", "meet", "bogus")) == "meet"
    assert classify(bc4)[0].unmet(("lattice", "oplus", "odot", "meet", "join")) is None
    assert classify(psbe5)[0].unmet(("pseudo_be", "distributive", "neg_sim")) == "neg_sim"


@pytest.mark.parametrize("names", [("bogus",), ("pseudo_be", "leq"), ("zero",)])
def test_unmet_raises_on_an_unknown_name(bc4, names):
    with pytest.raises(InvariantViolated, match="neither a flag nor a derived table"):
        classify(bc4)[0].unmet(names)


def test_report_zero_is_the_derived_least_element(any_fixture):
    report, _ = classify(any_fixture)
    assert report.zero == any_fixture.zero      # a fixture declares its least element, if any
    assert classify(any_fixture._replace(zero=None))[0].zero == any_fixture.zero


def test_unknown_flag_is_a_key_error(bc4):
    report, _ = classify(bc4)
    with pytest.raises(KeyError):
        report["leq"]


def test_search_computes_only_what_the_law_reads(monkeypatch):
    # AX.psbck6_antisym needs pseudo_be alone: no model of the search
    # may be checked for psBCK or get a pseudo-product table
    calls = Counter()

    def counted(name):
        fn = getattr(classify_module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(classify_module, name, wrapper)

    for name in ("check_pseudo_be", "check_pseudo_bck", "pseudo_product_table"):
        counted(name)
    result = search_counterexample(SearchSpec(law="AX.psbck6_antisym", max_size=3))
    assert result.found is not None
    assert calls["check_pseudo_be"] > 0
    assert calls["check_pseudo_bck"] == calls["pseudo_product_table"] == 0

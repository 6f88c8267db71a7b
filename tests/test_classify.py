import importlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from psbe.algebra import PreconditionUnmet
from psbe.classify import FLAG_NAMES, check_pseudo_be, check_pseudo_bck, classify
from psbe.laws import SearchSpec, search_counterexample

from conftest import (FIXTURE_NAMES, ORACLE_ALGEBRAS, TABLE_NAMES,
                      eager_classify, load, times_c2)

# the module: the package attribute psbe.classify is the function
classify_module = importlib.import_module("psbe.classify")


def names(alg, verdict):
    return tuple(alg.element_names[i] for i in verdict.witness)


def test_all_fixtures_are_pseudo_be(any_fixture):
    assert bool(check_pseudo_be(any_fixture))


def test_psbe4_not_bck_witness(psbe4):
    v = check_pseudo_bck(psbe4)
    assert not v
    assert names(psbe4, v) == ("a", "b")


def test_psbe5_not_bck_witness(psbe5):
    v = check_pseudo_bck(psbe5)
    assert not v
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
    _, ops = classify(bc4)
    nm = bc4.element_names
    odot = [[nm[v] for v in row] for row in ops.odot]
    oplus = [[nm[v] for v in row] for row in ops.oplus]
    assert odot == [["1", "a", "b", "0"],
                    ["a", "a", "0", "0"],
                    ["b", "0", "b", "0"],
                    ["0", "0", "0", "0"]]
    assert oplus == [["1", "1", "1", "1"],
                     ["1", "a", "1", "a"],
                     ["1", "1", "b", "b"],
                     ["1", "a", "b", "0"]]


def test_negations_involutive(inv6):
    _, ops = classify(inv6)
    n = inv6.size
    for x in range(n):
        assert ops.neg_sim[ops.neg_minus[x]] == x
        assert ops.neg_minus[ops.neg_sim[x]] == x


def test_report_json_shape(any_fixture):
    report, _ = classify(any_fixture)
    doc = report.to_json(any_fixture)
    for verdict in doc.values():
        assert verdict["status"] in ("holds", "fails", "not_applicable")


# ------------------------------------------- on-demand classification
# Each flag and table of classify is computed on first read; the eager
# one-pass classification in conftest is the reference.

def assert_matches_eager(alg, seed=0):
    try:
        flags, tables = eager_classify(alg)
    except PreconditionUnmet as exc:
        with pytest.raises(PreconditionUnmet, match=re.escape(str(exc))):
            classify(alg)
        return
    for name in FLAG_NAMES:                 # each read alone
        report, _ = classify(alg)
        assert report[name] == flags[name], name
    for name in TABLE_NAMES:
        _, ops = classify(alg)
        assert getattr(ops, name) == tables[name], name
    report, ops = classify(alg)             # everything, in a random order
    attrs = list(FLAG_NAMES + TABLE_NAMES)
    random.Random(seed).shuffle(attrs)
    for name in attrs:
        getattr(report, name)
    assert report.to_json(alg) == {k: v.to_json(alg) for k, v in flags.items()}
    assert list(report.flags) == list(FLAG_NAMES)
    assert {name: getattr(ops, name) for name in TABLE_NAMES} == tables
    assert report["distributive"] == flags["distributive_i"]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_classify_matches_eager(alg):
    assert_matches_eager(alg)


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

import time

import pytest

from psbe.algebra import PreconditionUnmet
from psbe.laws import (FAILS, HOLDS, NOT_APPLICABLE, Ctx, catalog,
                       catalog_json, evaluate_law, verify_suite)
from psbe.quantifiers import enumerate_mop

from conftest import FIXTURE_NAMES, load


def test_catalog_size_and_required_ids():
    laws = catalog()
    assert len(laws) >= 40
    ids = {l.id for l in laws}
    assert "P3.forall_one" in ids
    assert "L6.arrow_iff_squig_one_class" in ids
    assert len(ids) == len(laws)


def test_catalog_is_built_once():
    assert catalog() is catalog()
    assert isinstance(catalog(), tuple)


def test_laws_hold_no_per_call_state():
    # the catalog's laws are shared by every call: a second run over
    # the same algebra gives the same verdicts
    alg = load("inv6")
    pairs = enumerate_mop(alg)
    first = verify_suite(alg, pairs, include_probes=True)
    assert verify_suite(alg, pairs, include_probes=True) == first


def test_catalog_sorted_and_anchored():
    laws = catalog()
    assert [l.id for l in laws] == sorted(l.id for l in laws)
    assert all(l.anchor.strip() for l in laws)


def test_suite_zero_failures_all_fixtures():
    t0 = time.monotonic()
    instances = 0
    for name in FIXTURE_NAMES:
        alg = load(name)
        verdicts = verify_suite(alg, enumerate_mop(alg))
        assert not any(v.status == FAILS for v in verdicts), \
            [v for v in verdicts if v.status == FAILS]
        instances += sum(v.instances for v in verdicts)
    assert instances >= 10_000
    assert time.monotonic() - t0 < 10


def test_probe_laws_skipped_by_default():
    alg = load("psbe5")
    pairs = enumerate_mop(alg)
    default_ids = {v.law_id for v in verify_suite(alg, pairs)}
    with_probes = {v.law_id for v in verify_suite(alg, pairs,
                                                  include_probes=True)}
    assert "AX.psbck6_antisym" not in default_ids
    assert "AX.psbck6_antisym" in with_probes


def test_antisymmetry_probe_fails_on_preorder():
    alg = load("psbe5")
    verdicts = verify_suite(alg, [], law_ids=["AX.psbck6_antisym"],
                            include_probes=True)
    (v,) = verdicts
    assert v.status == FAILS
    assert v.witness is not None


def test_hypothesis_gating_yields_not_applicable():
    # psbe5 is unbounded: every bounded law must be skipped, not failed
    alg = load("psbe5")
    verdicts = verify_suite(alg, enumerate_mop(alg))
    bnd = [v for v in verdicts if v.law_id.startswith(("BND.", "P3b."))]
    assert bnd and all(v.status == NOT_APPLICABLE for v in bnd)


def test_pair_law_without_pair_is_not_applicable():
    alg = load("bc4")
    law = next(l for l in catalog() if l.id == "P3.forall_one")
    v = evaluate_law(law, Ctx(alg))
    assert v.status == NOT_APPLICABLE


def test_unknown_law_id_rejected():
    alg = load("bc4")
    with pytest.raises(PreconditionUnmet):
        verify_suite(alg, [], law_ids=["NO.such_law"])


def test_witness_is_reported():
    # evaluate a poset-only expectation on the preorder fixture directly
    alg = load("psbe5")
    law = next(l for l in catalog() if l.id == "AX.psbck6_antisym")
    v = evaluate_law(law, Ctx(alg))
    assert v.status == FAILS
    names = [alg.element_names[x] for x in v.witness]
    assert sorted(names) in (["a", "d"], ["b", "c"])


def test_verdict_json_names_witnesses():
    alg = load("psbe5")
    law = next(l for l in catalog() if l.id == "AX.psbck6_antisym")
    doc = evaluate_law(law, Ctx(alg)).to_json(alg)
    assert doc["status"] == "fails"
    assert all(isinstance(t, str) for t in doc["witness"])


def test_catalog_json_shape():
    docs = catalog_json()
    assert len(docs) >= 40
    for d in docs:
        assert set(d) == {"id", "anchor", "arity", "uses_pair", "probe"}


def test_instances_counted():
    alg = load("bc4")
    verdicts = verify_suite(alg, enumerate_mop(alg))
    evaluated = [v for v in verdicts if v.status == HOLDS]
    assert all(v.instances > 0 for v in evaluated)

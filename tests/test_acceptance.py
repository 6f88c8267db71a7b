"""Acceptance gate: exact reproduction of the reference examples plus
the property suites, one test per criterion."""

import time

from psbe.classify import check_pseudo_bck, classify
from psbe.deduction import (correspondence_report, enumerate_ds, generated_ds,
                            monadic_ds, quotient, theta_from_ds)
from psbe.laws import (FAILS, HOLDS, Ctx, SearchSpec, candidate_count, catalog,
                       evaluate_law, search_counterexample, verify_suite)
from psbe.quantifiers import (BOUNDED_COMMUTATIVE, build_from_sigma,
                              build_from_tau, check_mv_quantifier,
                              compose_pairs, declared_pairs, enumerate_mop,
                              fixed_set, is_monadic, pair_from_unary_blocks)

from conftest import (FIXTURE_NAMES, assert_generated_ds_matches_references, load,
                      unpruned_mop)


def test_criterion_01_mop_four_element():
    alg = load("psbe4")
    t0 = time.monotonic()
    pairs = enumerate_mop(alg)
    assert time.monotonic() - t0 < 1.0
    assert len(pairs) == 3
    assert {(p.exists.images, p.forall.images) for p in pairs} == \
        {(p.exists.images, p.forall.images) for _, p in declared_pairs(alg)}


def test_criterion_02_mop_five_element_pruned_and_unpruned():
    alg = load("psbe5")
    t0 = time.monotonic()
    pruned = enumerate_mop(alg)
    assert time.monotonic() - t0 < 2.0
    assert len(pruned) == 4
    assert set(pruned) == {p for _, p in declared_pairs(alg)}
    t0 = time.monotonic()
    unpruned = unpruned_mop(alg)
    assert time.monotonic() - t0 < 30.0
    assert set(unpruned) == set(pruned)


def test_criterion_03_mop_bounded_commutative():
    alg = load("bc4")
    pairs = enumerate_mop(alg, mode=BOUNDED_COMMUTATIVE)
    assert len(pairs) == 2
    assert set(pairs) == {p for _, p in declared_pairs(alg)}


def test_criterion_04_fixed_sets():
    alg = load("psbe5")
    expected = {frozenset({"1", "a", "c", "d"}), frozenset({"1", "b", "c", "d"}),
                frozenset({"1", "c", "d"}), frozenset({"1", "a", "b", "c", "d"})}
    got = set()
    for pair in enumerate_mop(alg):
        fixed, image, _ = fixed_set(alg, pair)
        assert fixed == image
        got.add(frozenset(alg.element_names[x] for x in fixed))
    assert got == expected


def test_criterion_05_non_bck_witnesses():
    for name, expected in (("psbe4", ("a", "b")), ("psbe5", ("b", "c"))):
        alg = load(name)
        v = check_pseudo_bck(alg)
        assert not v
        assert tuple(alg.element_names[i] for i in v.witness) == expected


def test_criterion_06_derived_product_and_sum_tables():
    alg = load("bc4")
    report, _ = classify(alg)
    nm = alg.element_names
    assert [[nm[v] for v in row] for row in report.odot] == \
        [["1", "a", "b", "0"], ["a", "a", "0", "0"],
         ["b", "0", "b", "0"], ["0", "0", "0", "0"]]
    assert [[nm[v] for v in row] for row in report.oplus] == \
        [["1", "1", "1", "1"], ["1", "a", "1", "a"],
         ["1", "1", "b", "b"], ["1", "a", "b", "0"]]


def test_criterion_07_ds_listings():
    psbe5 = load("psbe5")
    members5 = {frozenset(psbe5.element_names[x] for x in d.members)
                for d in enumerate_ds(psbe5)}
    assert members5 == {frozenset({"1"}), frozenset({"1", "a", "d"}),
                        frozenset({"1", "b", "c"}),
                        frozenset({"1", "a", "b", "c", "d"})}
    bc4 = load("bc4")
    members4 = {frozenset(bc4.element_names[x] for x in d.members)
                for d in enumerate_ds(bc4)}
    assert members4 == {frozenset({"1"}), frozenset({"1", "a"}),
                        frozenset({"1", "b"}), frozenset({"1", "a", "b", "0"})}
    pair2 = pair_from_unary_blocks(bc4, "2")
    mds = {frozenset(bc4.element_names[x] for x in d.members)
           for d in monadic_ds(bc4, pair2)}
    assert mds == {frozenset({"1"}), frozenset({"1", "a", "b", "0"})}
    all_ds = enumerate_ds(psbe5)
    for pair in enumerate_mop(psbe5):
        assert monadic_ds(psbe5, pair, all_ds) == all_ds


def test_criterion_08_generated_ds_against_oracle():
    psbe5 = load("psbe5")
    report5, _ = classify(psbe5)
    gen = generated_ds(psbe5, {"1", "d"}, report5)
    assert frozenset(psbe5.element_names[x] for x in gen.members) == \
        {"1", "a", "d"}
    # exhaustive: the closure equals the intersection of all scanned
    # deductive systems containing xs, and the nested implications
    # under condition (M)
    for name in FIXTURE_NAMES:
        assert_generated_ds_matches_references(load(name))


def test_criterion_09_composition_and_ordering():
    alg = load("psbe5")
    p2 = pair_from_unary_blocks(alg, "2")
    p3 = pair_from_unary_blocks(alg, "3")
    p4 = pair_from_unary_blocks(alg, "4")
    res = compose_pairs(alg, p2, p3)
    assert res.commute and res.pair == p4
    # ordering characterization (computed-then-ordered direction holds on
    # the preorder; the full equivalence is asserted internally whenever
    # the induced relation is a partial order)
    mop = enumerate_mop(alg)
    for p in mop:
        for q in mop:
            r = compose_pairs(alg, p, q)
            comp = p.forall.compose(q.forall)
            if comp == p.forall:
                assert all(alg.leq(p.forall(x), q.forall(x))
                           for x in alg.elements())
    # on the poset fixtures the reported ordering agrees with composition
    for name in ("bc4", "inv6"):
        poset_alg = load(name)
        pairs = enumerate_mop(poset_alg)
        for p in pairs:
            for q in pairs:
                r = compose_pairs(poset_alg, p, q)
                assert r.forall_le == (p.forall.compose(q.forall) == p.forall)


def test_criterion_10_tau_sigma_constructions():
    inv6 = load("inv6")
    printed = pair_from_unary_blocks(inv6, "")
    built_tau = build_from_tau(inv6, inv6.unary["tau"])
    built_sigma = build_from_sigma(inv6, inv6.unary["sigma"])
    assert built_tau == printed == built_sigma
    assert is_monadic(inv6, built_tau)
    dual = next(l for l in catalog() if l.id == "INV.dual_formulas")
    for name in FIXTURE_NAMES:
        alg = load(name)
        report, _ = classify(alg)
        if not report.holds("involutive"):
            continue
        for pair in enumerate_mop(alg):
            assert evaluate_law(dual, Ctx(alg, pair)).status == HOLDS


def test_criterion_11_law_suite_clean():
    t0 = time.monotonic()
    instances = 0
    law_count = None
    for name in FIXTURE_NAMES:
        alg = load(name)
        verdicts = verify_suite(alg, [p for _, p in declared_pairs(alg)])
        failures = [v for v in verdicts if v.status == FAILS]
        assert not failures, failures
        instances += sum(v.instances for v in verdicts)
        law_count = len({v.law_id for v in verdicts})
    assert law_count >= 40
    assert instances >= 10_000
    assert time.monotonic() - t0 < 10.0


def test_criterion_12_correspondence_roundtrips():
    bc4 = load("bc4")
    for pair in enumerate_mop(bc4):
        assert bool(correspondence_report(bc4, pair, variant="be"))
    inv6 = load("inv6")
    for pair in enumerate_mop(inv6):
        assert bool(correspondence_report(inv6, pair, variant="bck_meet"))


def test_criterion_13_quotient():
    alg = load("psbe5")
    d = next(ds for ds in enumerate_ds(alg)
             if {alg.element_names[x] for x in ds.members} == {"1", "a", "d"})
    pair4 = pair_from_unary_blocks(alg, "4")
    quot = quotient(alg, theta_from_ds(alg, d), pair=pair4)
    assert quot.algebra.size == 2
    assert quot.algebra.arrow == quot.algebra.squig
    assert quot.pair is not None
    assert is_monadic(quot.algebra, quot.pair)


def test_criterion_14_mv_transfer():
    bc4 = load("bc4")
    for pair in enumerate_mop(bc4, mode=BOUNDED_COMMUTATIVE):
        rebuilt = build_from_tau(bc4, pair.forall)
        assert rebuilt == pair
        assert bool(check_mv_quantifier(bc4, rebuilt.forall, "universal"))
        assert bool(check_mv_quantifier(bc4, rebuilt.exists, "existential"))


def test_criterion_15_search_soundness_and_exhaustiveness():
    found = search_counterexample(SearchSpec(law="AX.psbck6_antisym",
                                             max_size=4))
    assert found.found is not None
    alg, _, witness = found.found
    x, y = witness
    assert alg.leq(x, y) and alg.leq(y, x) and x != y  # re-verifies
    exhaustive = search_counterexample(SearchSpec(law="AX.refl",
                                                  min_size=3, max_size=3))
    assert exhaustive.exhausted
    assert exhaustive.visited_by_size == {3: candidate_count(3) ** 2}
    assert candidate_count(3) ** 2 == (3 ** ((3 - 1) * (3 - 2))) ** 2 == 81

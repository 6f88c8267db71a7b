import pytest
from hypothesis import given, settings, strategies as st

from psbe.algebra import UnaryMap
from psbe.classify import classify
from psbe.quantifiers import (BOUNDED_COMMUTATIVE, MonadicPair, NotBCK,
                              build_from_sigma, build_from_tau, check_monadic,
                              check_mv_quantifier, compose_pairs,
                              declared_pairs, dual_quantifier, enumerate_mop,
                              fixed_set, is_monadic, pair_from_unary_blocks,
                              residuation_check)

from conftest import load


def test_mop_psbe4_matches_declared(psbe4):
    pairs = enumerate_mop(psbe4)
    assert len(pairs) == 3
    assert sorted(pairs, key=lambda p: p.sort_key()) == \
        sorted([p for _, p in declared_pairs(psbe4)], key=lambda p: p.sort_key())


def test_mop_psbe5_matches_declared(psbe5):
    pairs = enumerate_mop(psbe5)
    assert len(pairs) == 4
    assert set(pairs) == {p for _, p in declared_pairs(psbe5)}


def test_declared_pairs_labels_in_file_order(psbe5, inv6):
    assert [label for label, _ in declared_pairs(psbe5)] == ["1", "2", "3", "4"]
    assert [label for label, _ in declared_pairs(inv6)] == [""]
    renamed = inv6.with_unary(p_exists=inv6.unary["exists"],
                              p_forall=inv6.unary["forall"])
    assert [label for label, _ in declared_pairs(renamed)] == ["", "p"]
    assert pair_from_unary_blocks(renamed, "p") == pair_from_unary_blocks(inv6, "")


def test_mop_unpruned_agrees(psbe4):
    assert set(enumerate_mop(psbe4, unpruned=True)) == set(enumerate_mop(psbe4))


def test_mop_bc4_bounded_commutative_mode(bc4):
    pairs = enumerate_mop(bc4, mode=BOUNDED_COMMUTATIVE)
    assert len(pairs) == 2
    assert set(pairs) == {p for _, p in declared_pairs(bc4)}


def test_check_monadic_reports_failing_axiom(psbe5):
    bad = MonadicPair(UnaryMap((0, 0, 0, 0, 0)), UnaryMap((0, 1, 2, 3, 4)))
    report = check_monadic(psbe5, bad)
    assert not report.ok
    assert report.first_failure is not None


def test_fixed_sets_psbe5(psbe5):
    expected = [{"1", "a", "b", "c", "d"}, {"1", "a", "c", "d"},
                {"1", "b", "c", "d"}, {"1", "c", "d"}]
    got = []
    for pair in enumerate_mop(psbe5):
        fixed, image, _ = fixed_set(psbe5, pair)
        assert fixed == image
        got.append({psbe5.element_names[x] for x in fixed})
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


def test_residuation_on_all_pairs(psbe5, bc4):
    for alg in (psbe5, bc4):
        for pair in enumerate_mop(alg):
            assert residuation_check(alg, pair)


def test_build_from_tau_inv6(inv6):
    printed = pair_from_unary_blocks(inv6, "")
    built = build_from_tau(inv6, inv6.unary["tau"])
    assert built == printed
    assert is_monadic(inv6, built)


def test_build_from_sigma_inv6(inv6):
    printed = pair_from_unary_blocks(inv6, "")
    assert build_from_sigma(inv6, inv6.unary["sigma"]) == printed


def test_build_from_tau_bc4(bc4):
    # tau = forall2 reconstructs the second declared pair
    built = build_from_tau(bc4, bc4.unary["forall2"])
    assert built == pair_from_unary_blocks(bc4, "2")
    ident = build_from_tau(bc4, UnaryMap.identity(bc4.size))
    assert ident.exists.is_identity() and ident.forall.is_identity()


def test_dual_roundtrip(bc4, inv6):
    for alg in (bc4, inv6):
        for pair in enumerate_mop(alg):
            e2 = dual_quantifier(alg, "forall", pair.forall)
            f2 = dual_quantifier(alg, "exists", pair.exists)
            assert e2 == pair.exists
            assert f2 == pair.forall


def test_compose_reproduces_fourth_pair(psbe5):
    pairs = {tuple(p.forall.images): p for p in enumerate_mop(psbe5)}
    p2 = pair_from_unary_blocks(psbe5, "2")
    p3 = pair_from_unary_blocks(psbe5, "3")
    p4 = pair_from_unary_blocks(psbe5, "4")
    res = compose_pairs(psbe5, p2, p3)
    assert res.commute
    assert res.pair == p4
    assert tuple(res.pair.forall.images) in pairs


def test_compose_ordering_not_applicable_on_preorder(psbe5):
    pairs = enumerate_mop(psbe5)
    res = compose_pairs(psbe5, pairs[0], pairs[1])
    assert res.forall_le is None and res.exists_le is None


def test_compose_ordering_on_poset(bc4):
    p1, p2 = enumerate_mop(bc4)
    res = compose_pairs(bc4, p1, p2)
    assert res.forall_le is not None


def test_compose_requires_transitivity(psbe4):
    # a <= b <= c but a -> c = a: the induced relation is not transitive
    report, _ = classify(psbe4)
    assert not report.holds("condition_T")
    pairs = enumerate_mop(psbe4)
    with pytest.raises(NotBCK):
        compose_pairs(psbe4, pairs[0], pairs[0])


def test_mv_quantifier_transfer(bc4):
    for pair in enumerate_mop(bc4, mode=BOUNDED_COMMUTATIVE):
        assert bool(check_mv_quantifier(bc4, pair.forall, "universal"))
        assert bool(check_mv_quantifier(bc4, pair.exists, "existential"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["psbe4", "bc4"]), st.data())
def test_random_pairs_in_mop_iff_monadic(name, data):
    alg = load(name)
    n = alg.size
    mop = set(enumerate_mop(alg))
    imgs = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * n)
    pair = MonadicPair(UnaryMap(data.draw(imgs)), UnaryMap(data.draw(imgs)))
    assert is_monadic(alg, pair) == (pair in mop)

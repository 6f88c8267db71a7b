from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from psbe import deduction
from psbe.classify import check_pseudo_be, classify
from psbe.deduction import (Congruence, IllDefined, correspondence_report,
                            enumerate_congruences, enumerate_ds, generated_ds,
                            is_compatible, is_meet_compatible,
                            is_monadic_congruence,
                            is_monadic_ds, monadic_ds, quotient,
                            theta_from_ds)
from psbe.quantifiers import enumerate_mop, pair_from_unary_blocks

from conftest import ORACLE_ALGEBRAS, labelled_models, load, times_c2


def member_names(alg, ds):
    return frozenset(alg.element_names[x] for x in ds.members)


def test_ds_listing_psbe5(psbe5):
    got = {member_names(psbe5, d) for d in enumerate_ds(psbe5)}
    assert got == {frozenset("1"), frozenset({"1", "a", "d"}),
                   frozenset({"1", "b", "c"}), frozenset({"1", "a", "b", "c", "d"})}


def test_ds_listing_bc4(bc4):
    got = {member_names(bc4, d) for d in enumerate_ds(bc4)}
    assert got == {frozenset("1"), frozenset({"1", "a"}),
                   frozenset({"1", "b"}), frozenset({"1", "a", "b", "0"})}


def test_distributive_forces_normal(psbe5):
    report, _ = classify(psbe5)
    assert report.holds("distributive_i")
    assert all(d.normal for d in enumerate_ds(psbe5))


def test_mds_equals_ds_on_psbe5(psbe5):
    all_ds = enumerate_ds(psbe5)
    for pair in enumerate_mop(psbe5):
        assert monadic_ds(psbe5, pair, all_ds) == all_ds


def test_mds_bc4_second_pair(bc4):
    pair = pair_from_unary_blocks(bc4, "2")
    mds = monadic_ds(bc4, pair)
    assert {member_names(bc4, d) for d in mds} == \
        {frozenset("1"), frozenset({"1", "a", "b", "0"})}


def test_generated_ds_example(psbe5):
    report, _ = classify(psbe5)
    gen = generated_ds(psbe5, {"1", "d"}, report)
    assert member_names(psbe5, gen) == {"1", "a", "d"}


def test_generated_ds_exhaustive_oracle(any_fixture):
    # generated_ds(verify=True) asserts fixpoint == intersection oracle
    # (and the nested-implication characterizations under condition (M))
    report, _ = classify(any_fixture)
    n = any_fixture.size
    for r in range(n + 1):
        for xs in combinations(range(n), r):
            generated_ds(any_fixture, xs, report, verify=True)


def test_theta_from_ds(psbe5):
    d = next(ds for ds in enumerate_ds(psbe5)
             if member_names(psbe5, ds) == {"1", "a", "d"})
    cong = theta_from_ds(psbe5, d)
    blocks = {frozenset(psbe5.element_names[x] for x in b)
              for b in cong.blocks()}
    assert blocks == {frozenset({"1", "a", "d"}), frozenset({"b", "c"})}


def test_theta_trivial_cases(psbe5, bc4):
    # Theta_{1} is the identity on a poset; on the preorder fixture it
    # collapses exactly the mutually-related pairs (a,d) and (b,c)
    dss = {len(d.members): d for d in enumerate_ds(bc4)}
    assert theta_from_ds(bc4, dss[1]).n_blocks == bc4.size
    assert theta_from_ds(bc4, dss[bc4.size]).n_blocks == 1
    dss5 = {len(d.members): d for d in enumerate_ds(psbe5)}
    blocks = {frozenset(psbe5.element_names[x] for x in b)
              for b in theta_from_ds(psbe5, dss5[1]).blocks()}
    assert blocks == {frozenset({"1"}), frozenset({"a", "d"}),
                      frozenset({"b", "c"})}
    assert theta_from_ds(psbe5, dss5[psbe5.size]).n_blocks == 1


def test_congruence_count_psbe5(psbe5):
    assert len(enumerate_congruences(psbe5)) == 7


def all_partitions(n):
    """Every partition of range(n) as a restricted-growth string, in
    lexicographic order (Bell(n) of them)."""
    def grow(prefix, k):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(k + 1):
            yield from grow(prefix + [c], max(k, c + 1))

    return [Congruence(c) for c in grow([], 0)]


def scan_congruences(alg):
    """Reference enumerator: every partition that passes is_compatible."""
    return [c for c in all_partitions(alg.size) if is_compatible(alg, c) is None]


def scan_compatible(alg, cong):
    """Reference for is_compatible: the first of all n^4 tuples."""
    for x, y, u, v in product(range(alg.size), repeat=4):
        if cong.same(x, y) and cong.same(u, v):
            if not cong.same(alg.arrow[x][u], alg.arrow[y][v]):
                return (x, y, u, v)
            if not cong.same(alg.squig[x][u], alg.squig[y][v]):
                return (x, y, u, v)
    return None


def scan_meet_compatible(alg, cong, meet):
    """Reference for is_meet_compatible over all n^4 tuples."""
    for x, y, u, v in product(range(alg.size), repeat=4):
        if cong.same(x, y) and cong.same(u, v):
            a, b = meet[x][u], meet[y][v]
            if a is not None and b is not None and not cong.same(a, b):
                return False
    return True


def test_labelled_models_small():
    assert [len(labelled_models(n)) for n in (2, 3)] == [1, 6]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_compatibility_witnesses_match_full_scan(alg):
    _, ops = classify(alg)
    for cong in all_partitions(alg.size):
        assert is_compatible(alg, cong) == scan_compatible(alg, cong)
        if ops.meet is not None:
            assert (is_meet_compatible(alg, cong, ops)
                    == scan_meet_compatible(alg, cong, ops.meet))


@pytest.mark.parametrize("name, count", [("bc4", 8), ("psbe4", 4),
                                         ("psbe5", 19), ("inv6", 4)])
def test_product_congruence_counts(name, count):
    alg = times_c2(load(name))
    assert check_pseudo_be(alg)
    congs = enumerate_congruences(alg)
    assert len(congs) == count
    assert all(is_compatible(alg, c) is None for c in congs)


def test_quotient_psbe5(psbe5):
    d = next(ds for ds in enumerate_ds(psbe5)
             if member_names(psbe5, ds) == {"1", "a", "d"})
    pair = pair_from_unary_blocks(psbe5, "4")
    quot = quotient(psbe5, theta_from_ds(psbe5, d), pair=pair)
    assert quot.algebra.size == 2
    assert quot.algebra.arrow == quot.algebra.squig
    assert quot.pair is not None


def test_quotient_identity_and_full(psbe5):
    n = psbe5.size
    ident = Congruence(tuple(range(n)))
    assert quotient(psbe5, ident).algebra.size == n
    full = Congruence((0,) * n)
    assert quotient(psbe5, full).algebra.size == 1


def test_correspondence_be_variant(bc4):
    for pair in enumerate_mop(bc4):
        assert bool(correspondence_report(bc4, pair, variant="be"))


def test_correspondence_bck_meet_variant(inv6):
    for pair in enumerate_mop(inv6):
        assert bool(correspondence_report(inv6, pair, variant="bck_meet"))


def test_correspondence_computes_theta_once_per_ds(inv6, monkeypatch):
    pair = pair_from_unary_blocks(inv6, "")
    normal = [d for d in monadic_ds(inv6, pair) if d.normal]
    assert len(normal) == 2
    calls = []
    real = deduction.theta_from_ds

    def counted(alg, ds):
        calls.append(ds.members)
        return real(alg, ds)

    monkeypatch.setattr(deduction, "theta_from_ds", counted)
    assert bool(correspondence_report(inv6, pair, variant="bck_meet"))
    assert sorted(calls, key=sorted) == sorted((d.members for d in normal), key=sorted)


def test_monadic_congruence_definition(psbe5):
    pair = pair_from_unary_blocks(psbe5, "4")
    for cong in enumerate_congruences(psbe5):
        expected = all(cong.same(pair.forall(x), pair.forall(y))
                       and cong.same(pair.exists(x), pair.exists(y))
                       for x in range(psbe5.size) for y in range(psbe5.size)
                       if cong.same(x, y))
        assert is_monadic_congruence(cong, pair) == expected


@st.composite
def partitions(draw, n):
    # restricted-growth strings over n elements
    classes = [0]
    top = 0
    for _ in range(n - 1):
        c = draw(st.integers(min_value=0, max_value=top + 1))
        classes.append(c)
        top = max(top, c)
    return Congruence(tuple(classes))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["psbe4", "psbe5", "bc4", "inv6"]), st.data())
def test_enumerate_congruences_complete(name, data):
    # a random partition is listed iff it is operation-compatible
    alg = load(name)
    cong = data.draw(partitions(alg.size))
    listed = cong in enumerate_congruences(alg)
    assert listed == (is_compatible(alg, cong) is None)

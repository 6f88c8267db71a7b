from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from psbe import quantifiers as quantifiers_module
from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import FAILS, HOLDS, Verdict, check_pseudo_be, classify
from psbe.laws import Ctx, catalog, evaluate_law
from psbe.quantifiers import (BOUNDED_COMMUTATIVE, HOOP, PLAIN, MonadicPair,
                              build_from_sigma, build_from_tau, check_monadic,
                              check_mv_quantifier, compose_pairs,
                              declared_pairs, enumerate_mop, fixed_set,
                              is_monadic, pair_from_unary_blocks)

from conftest import ORACLE_ALGEBRAS, load, model_algebra, times_c2, unpruned_mop

MODES = (PLAIN, BOUNDED_COMMUTATIVE, HOOP)


def cross_product_mop(alg, mode=PLAIN):
    """Reference enumerator: every (exists, forall) pair of candidates
    (increasing resp. decreasing, idempotent, fixing 1) that passes
    check_monadic.  M5 (E F x = F x) is screened first, read off the
    definition of the fixed set; it is one of the axioms check_monadic
    decides, so the list is the same and products stay affordable.
    PreconditionUnmet is raised whatever the candidates, as check_monadic
    raises it on the identity pair."""
    n, one, arr, sq = alg.size, alg.one, alg.arrow, alg.squig
    identity = UnaryMap.identity(n)
    check_monadic(alg, MonadicPair(identity, identity), mode)
    up = [[y for y in range(n) if arr[x][y] == one and sq[x][y] == one]
          for x in range(n)]
    down = [[y for y in range(n) if arr[y][x] == one and sq[y][x] == one]
            for x in range(n)]
    up[one] = down[one] = [one]

    def idempotent(m):
        return all(m[m[x]] == m[x] for x in range(n))

    foralls = [(F, frozenset(F)) for F in product(*down) if idempotent(F)]
    found = []
    for E in product(*up):
        if not idempotent(E):
            continue
        fix = frozenset(x for x in range(n) if E[x] == x)
        for F, image in foralls:
            if image <= fix:
                pair = MonadicPair(UnaryMap(E), UnaryMap(F))
                if check_monadic(alg, pair, mode).status == HOLDS:
                    found.append(pair)
    found.sort(key=MonadicPair.sort_key)
    return found


def outcome(enumerator, alg, mode):
    """The list of pairs, or PreconditionUnmet when that is raised."""
    try:
        return enumerator(alg, mode=mode)
    except PreconditionUnmet:
        return PreconditionUnmet


def answer(enumerator, alg, mode):
    """The list of pairs, or the message and witness of the PreconditionUnmet raised."""
    try:
        return enumerator(alg, mode=mode)
    except PreconditionUnmet as exc:
        return str(exc), exc.witness


def psbe_gated(reference):
    """reference, raising off a pseudo BE-algebra as enumerate_mop does: the
    mode's own PreconditionUnmet (check_monadic raises it on the identity
    pair), else check_pseudo_be's first failing axiom and its witness."""
    def gated(alg, mode):
        verdict = check_pseudo_be(alg)
        if verdict.status == HOLDS:
            return reference(alg, mode)
        identity = UnaryMap.identity(alg.size)
        check_monadic(alg, MonadicPair(identity, identity), mode)
        raise PreconditionUnmet(f"enumerate_mop needs a pseudo BE-algebra: "
                                f"{verdict.failed_at(alg)}", verdict.witness)
    return gated


def times_c2_pair(pair):
    """pair x the identity pair of C2, indexed as `times_c2` does."""
    def lift(m):
        return UnaryMap(tuple(2 * m(x) + y for x in range(len(m.images))
                              for y in range(2)))
    return MonadicPair(lift(pair.exists), lift(pair.forall))


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
    assert set(unpruned_mop(psbe4)) == set(enumerate_mop(psbe4))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_enumerate_mop_matches_cross_product(alg, mode):
    expected = outcome(cross_product_mop, alg, mode)
    assert outcome(enumerate_mop, alg, mode) == expected
    if alg.size <= 3:
        assert outcome(unpruned_mop, alg, mode) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["psbe4", "psbe5", "bc4", "inv6"]), st.sampled_from(MODES),
       st.data())
def test_enumerate_mop_matches_cross_product_off_psbe(name, mode, data):
    # one cell of one table changed: mostly not a pseudo BE-algebra any
    # more (1 -> x = x or x -> x = 1 may fail), where enumerate_mop
    # refuses the tables; the declared zero is dropped, as it need not
    # stay least
    alg = load(name)
    n = alg.size
    which = data.draw(st.sampled_from(["arrow", "squig"]))
    x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    rows = [list(row) for row in getattr(alg, which)]
    rows[x][y] = v
    alg = alg._replace(zero=None, **{which: tuple(map(tuple, rows))})
    assert (answer(enumerate_mop, alg, mode)
            == answer(psbe_gated(cross_product_mop), alg, mode))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_enumerate_mop_matches_unpruned_on_any_tables(data):
    # arbitrary tables and any element as 1, refused unless they form a
    # pseudo BE-algebra; the reference is the raw scan, not the cross
    # product of idempotent candidates, and the row of 1 is made the
    # identity half of the time, so that psBE3 holds more often
    n = data.draw(st.integers(1, 3))
    one = data.draw(st.integers(0, n - 1))
    cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    arrow, squig = (list(data.draw(st.lists(cells, min_size=n, max_size=n)))
                    for _ in range(2))
    if data.draw(st.booleans()):
        arrow[one] = tuple(range(n))
    alg = FiniteAlgebra("any", tuple(f"e{i}" for i in range(n)), one,
                        tuple(arrow), tuple(squig))
    for mode in MODES:
        assert (answer(enumerate_mop, alg, mode)
                == answer(psbe_gated(unpruned_mop), alg, mode)), mode


def test_enumerate_mop_refuses_tables_that_are_not_pseudo_be():
    # x -> y = x ~> y = 1 everywhere: 1 -> a = 1, so psBE3 fails at a; off
    # a poset the bc and hoop modes find no pseudo-product, and say so first
    ones = ((0, 0, 0),) * 3
    alg = FiniteAlgebra("ones", ("1", "a", "b"), 0, ones, ones)
    assert [answer(enumerate_mop, alg, mode) for mode in MODES] == [
        ("enumerate_mop needs a pseudo BE-algebra: psBE3 fails at (a)", (1,)),
        ("mode 'bc' needs the pseudo-product table", None),
        ("mode 'hoop' needs the pseudo-product table", None)]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_enumerate_mop_decides_pairs_without_check_monadic(alg, monkeypatch):
    # the search is the decision procedure and check_monadic its oracle:
    # no call is made, and every pair returned passes the full check
    def refuse(*args, **kw):
        raise AssertionError("enumerate_mop called check_monadic")

    with monkeypatch.context() as patch:
        patch.setattr(quantifiers_module, "check_monadic", refuse)
        found = {mode: outcome(enumerate_mop, alg, mode) for mode in MODES}
    for mode, pairs in found.items():
        if pairs is not PreconditionUnmet:
            assert all(check_monadic(alg, p, mode).status == HOLDS for p in pairs), mode


# per family of instances the search tests, the first model in scan
# order on which the search without it lists a pair that is not monadic
# (no pseudo BE-algebra with n <= 4 needs M4); the tables are 1 -> y = y,
# x -> y = 1 for the middle rows x, and the last row given
@pytest.mark.parametrize("last_arrow, last_squig, pair, failure", [
    ((0, 1, 1, 0), (0, 1, 2, 0), ((0, 1, 2, 0), (0, 1, 2, 1)), ("M3(arrow)", (3, 2))),
    ((0, 1, 2, 0), (0, 1, 1, 0), ((0, 1, 2, 0), (0, 1, 2, 1)), ("M3(squig)", (3, 2))),
    ((0, 0, 1, 4, 0), (0, 0, 1, 1, 0), ((0, 1, 2, 2, 4),) * 2, ("M4(arrow)", (4, 3))),
    ((0, 0, 1, 1, 0), (0, 0, 1, 4, 0), ((0, 1, 2, 2, 4),) * 2, ("M4(squig)", (4, 3)))],
    ids=["M3-arrow", "M3-squig", "M4-arrow", "M4-squig"])
def test_enumerate_mop_tests_each_instance_family(last_arrow, last_squig, pair, failure):
    n = len(last_arrow)
    arrow, squig = ((tuple(range(n)),) + ((0,) * n,) * (n - 2) + (last,)
                    for last in (last_arrow, last_squig))
    alg = model_algebra(n, arrow, squig)
    name, witness = failure
    assert (check_monadic(alg, MonadicPair(*map(UnaryMap, pair)))
            == Verdict(name, FAILS, witness))
    assert enumerate_mop(alg) == cross_product_mop(alg)


@pytest.mark.parametrize("name, counts", [
    ("inv6", (2, 1, 2)), ("bc4", (2, 2, 2)),
    ("psbe4", (3, PreconditionUnmet, PreconditionUnmet)),
    ("psbe5", (4, PreconditionUnmet, PreconditionUnmet))])
def test_mop_counts_per_mode(name, counts):
    alg = load(name)
    got = [outcome(enumerate_mop, alg, mode) for mode in MODES]
    assert [r if r is PreconditionUnmet else len(r) for r in got] == list(counts)


@pytest.mark.parametrize("name", ["bc4", "psbe4"])
def test_mop_on_products_with_c2(name):
    factor = load(name)
    alg = times_c2(factor)
    pairs = enumerate_mop(alg)
    assert len(pairs) == 5
    if name == "bc4":   # psbe4's reference takes seconds: it is in oracles/
        assert pairs == cross_product_mop(alg)
    for _, pair in declared_pairs(factor):
        assert times_c2_pair(pair) in pairs


def raised(compute, *args):
    """compute(*args), or the type and message of the PreconditionUnmet raised."""
    try:
        return compute(*args)
    except PreconditionUnmet as exc:
        return PreconditionUnmet, str(exc)


def filtered_mop(alg, mode):
    """The plain pairs that is_monadic accepts in mode; it raises as is_monadic
    raises on the identity pair."""
    identity = UnaryMap.identity(alg.size)
    is_monadic(alg, MonadicPair(identity, identity), mode)
    return [p for p in enumerate_mop(alg) if is_monadic(alg, p, mode)]


@pytest.mark.parametrize("mode", [BOUNDED_COMMUTATIVE, HOOP])
@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_mode_list_is_the_plain_list_filtered(alg, mode):
    alg = alg._replace()        # nothing kept: the mode's list is asked for first
    assert raised(enumerate_mop, alg, mode) == raised(filtered_mop, alg, mode)


def test_mop_bc4_bounded_commutative_mode(bc4):
    pairs = enumerate_mop(bc4, mode=BOUNDED_COMMUTATIVE)
    assert len(pairs) == 2
    assert set(pairs) == {p for _, p in declared_pairs(bc4)}


def test_check_monadic_reports_failing_axiom(psbe5):
    bad = MonadicPair(UnaryMap((0, 0, 0, 0, 0)), UnaryMap((0, 1, 2, 3, 4)))
    verdict = check_monadic(psbe5, bad)
    assert verdict.status == FAILS and not is_monadic(psbe5, bad)
    assert verdict == Verdict("M5", FAILS, (1,))
    identity = UnaryMap.identity(psbe5.size)
    assert check_monadic(psbe5, MonadicPair(identity, identity)) == Verdict("monadic", HOLDS)


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
    law = next(l for l in catalog() if l.id == "P3.residuated_T")
    for alg in (psbe5, bc4):
        for pair in enumerate_mop(alg):
            assert evaluate_law(law, Ctx(alg, pair)).status == HOLDS


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


def test_a_non_monadic_build_on_a_non_psbe_algebra_names_the_failing_axiom():
    # bounded and good, so the builder's own preconditions pass, but a ~> 1 = a:
    # the construction theorem assumes a pseudo BE-algebra, so this is the
    # input's fault, not a bug (InvariantViolated)
    bad = FiniteAlgebra("bad", ("1", "a"), 0, ((0, 0), (0, 0)), ((0, 0), (1, 0)))
    for tau in ((0, 0), (0, 1)):
        with pytest.raises(PreconditionUnmet) as exc:
            build_from_tau(bad, UnaryMap(tau))
        assert str(exc.value) == (
            "the construction needs a pseudo BE-algebra: build_from_tau built a non-monadic "
            "pair, M1(squig) fails at (a); psBE2 fails at (a)")
        assert exc.value.witness == (1,)


def test_dual_roundtrip(bc4, inv6):
    # INV.dual_formulas: Ex = (F(x-))~ = (F(x~))- and Fx = (E(x-))~ = (E(x~))-
    law = next(l for l in catalog() if l.id == "INV.dual_formulas")
    for alg in (bc4, inv6):
        for pair in enumerate_mop(alg):
            assert evaluate_law(law, Ctx(alg, pair)).status == HOLDS


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
    with pytest.raises(PreconditionUnmet):
        compose_pairs(psbe4, pairs[0], pairs[0])


@pytest.mark.parametrize("first", [True, False])
def test_compose_rejects_a_pair_that_is_not_monadic(bc4, first):
    # E = F = constantly 1 fails M2; it used to surface as a broken ordering theorem
    bad = MonadicPair(UnaryMap((bc4.one,) * 4), UnaryMap((bc4.one,) * 4))
    pairs = (bad, enumerate_mop(bc4)[0]) if first else (enumerate_mop(bc4)[0], bad)
    with pytest.raises(PreconditionUnmet,
                       match=r"^compose_pairs needs a monadic pair: M2\(arrow\) fails at"):
        compose_pairs(bc4, *pairs)


@pytest.mark.parametrize("kind, table", [("universal", "meet"), ("existential", "join")])
def test_mv_quantifier_needs_every_table_it_reads(kind, table):
    # bounded and commutative, but without a pseudo-product: odot, oplus
    # and the lattice table are named in the precondition, not read as None
    alg = FiniteAlgebra("no_odot", ("1", "a", "b"), 0, ((0, 1, 2), (1, 0, 1), (0, 0, 0)),
                        ((0, 1, 2), (0, 0, 1), (0, 0, 0)))
    report, _ = classify(alg)
    assert report.unmet(("bounded", "commutative")) is None and report.odot is None
    with pytest.raises(PreconditionUnmet, match=f"and {table} tables: odot is not met"):
        check_mv_quantifier(alg, UnaryMap.identity(3), kind)


def test_mv_quantifier_transfer(bc4):
    for pair in enumerate_mop(bc4, mode=BOUNDED_COMMUTATIVE):
        assert check_mv_quantifier(bc4, pair.forall, "universal").status == HOLDS
        assert check_mv_quantifier(bc4, pair.exists, "existential").status == HOLDS


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["psbe4", "bc4"]), st.data())
def test_random_pairs_in_mop_iff_monadic(name, data):
    alg = load(name)
    n = alg.size
    mop = set(enumerate_mop(alg))
    imgs = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * n)
    pair = MonadicPair(UnaryMap(data.draw(imgs)), UnaryMap(data.draw(imgs)))
    assert is_monadic(alg, pair) == (pair in mop)

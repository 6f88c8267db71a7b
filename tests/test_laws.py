import importlib
import random
import time
from types import SimpleNamespace

import pytest

from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import InvariantViolated, expression, formula, opposite
from psbe.deduction import (Congruence, correspondence_report, enumerate_congruences,
                             is_monadic_congruence, quotient)
from psbe.laws import (FAILS, HOLDS, NOT_APPLICABLE, Ctx, catalog,
                       catalog_json, evaluate_law, pointwise_law, verify_suite)
from psbe.quantifiers import (BOUNDED_COMMUTATIVE, MonadicPair, check_monadic, compose_pairs,
                              enumerate_mop, fixed_set, is_monadic, require_monadic)

from conftest import (C2, EVERY_LAW, FIXTURE_NAMES, ORACLE_ALGEBRAS, congruence_law_outcomes,
                      direct_product, load, per_congruence, scanned_parts, times_c2)

laws_module = importlib.import_module("psbe.laws")
quantifiers_module = importlib.import_module("psbe.quantifiers")


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
    first = verify_suite(alg, pairs, law_ids=EVERY_LAW)
    assert verify_suite(alg, pairs, law_ids=EVERY_LAW) == first


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
    default_ids = {v.name for v in verify_suite(alg, pairs)}
    with_probes = {v.name for v in verify_suite(alg, pairs, law_ids=EVERY_LAW)}
    assert "AX.psbck6_antisym" not in default_ids
    assert "AX.psbck6_antisym" in with_probes


def test_antisymmetry_probe_fails_on_preorder():
    alg = load("psbe5")
    verdicts = verify_suite(alg, [], law_ids=["AX.psbck6_antisym"])
    (v,) = verdicts
    assert v.status == FAILS
    assert v.witness is not None


def test_hypothesis_gating_yields_not_applicable():
    # psbe5 is unbounded: every bounded law must be skipped, not failed
    alg = load("psbe5")
    verdicts = verify_suite(alg, enumerate_mop(alg))
    bnd = [v for v in verdicts if v.name.startswith(("BND.", "P3b."))]
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


@pytest.mark.parametrize("law_ids, message", [
    ("AX.refl", "law_ids must list law ids, not the string 'AX.refl'"),
    ([["AX.refl"]], "law_ids must list law ids, got [['AX.refl']]"),
    (5, "law_ids must list law ids, got 5"),
])
def test_law_ids_must_be_an_iterable_of_ids(law_ids, message):
    with pytest.raises(PreconditionUnmet) as info:
        verify_suite(load("bc4"), [], law_ids=law_ids)
    assert str(info.value) == message


def test_law_ids_are_read_once():
    verdicts = verify_suite(load("bc4"), [], law_ids=(i for i in ["AX.refl", "BE.exchange"]))
    assert [v.name for v in verdicts] == ["AX.refl", "BE.exchange"]


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


# every export that takes a pair, as (call on bc4 and the pair, the name its message gives):
# each goes through the pair gate, check_monadic, or its shape test alone
PAIR_TAKERS = [
    (lambda alg, p: check_monadic(alg, p), "check_monadic"),
    (lambda alg, p: check_monadic(alg, p, BOUNDED_COMMUTATIVE), "check_monadic"),
    (lambda alg, p: is_monadic(alg, p), "check_monadic"),
    (lambda alg, p: require_monadic(alg, p, "the caller"), "the caller"),
    (lambda alg, p: fixed_set(alg, p), "fixed_set"),
    (lambda alg, p: compose_pairs(alg, enumerate_mop(alg)[0], p), "compose_pairs"),
    (lambda alg, p: compose_pairs(alg, p, enumerate_mop(alg)[0]), "compose_pairs"),
    (lambda alg, p: quotient(alg, Congruence((0, 1, 2, 3)), p), "quotient"),   # None: no pair
    (lambda alg, p: correspondence_report(alg, p), "correspondence_report"),
    (lambda alg, p: verify_suite(alg, [*enumerate_mop(alg), p]), "verify_suite"),
]


@pytest.mark.parametrize("pair", [
    MonadicPair(UnaryMap((0, 7, 0, 0)), UnaryMap((0, 0, 0, 0))),    # an image off the carrier
    MonadicPair(UnaryMap((0, 1, 2)), UnaryMap((0, 1, 2))),          # three images, four elements
    None,
    (UnaryMap((0, 1, 2, 3)), UnaryMap((0, 1, 2, 3))),               # not a MonadicPair
    MonadicPair((0, 1, 2, 3), (0, 1, 2, 3)),                        # tuples, not UnaryMaps
    MonadicPair(UnaryMap((0, 1.0, 2, 3)), UnaryMap((0, 1, 2, 3))),  # 1.0 is not an index
])
def test_pairs_of_maps_off_the_carrier_are_rejected_before_any_scan(pair, monkeypatch):
    # every read the scans hoist must be total: each E and F scanned maps the carrier into itself
    def total_maps_only(scan):
        def spy(n, *args):
            for m in (getattr(args[-1], name, None) for name in "EF"):   # args[-1] is the source
                assert m is None or (len(m) == n and {type(v) for v in m} <= {int}
                                     and set(m) <= set(range(n))), m
            return scan(n, *args)
        return spy

    for module, name in ((laws_module, "first_failures"), (quantifiers_module, "first_failure_of")):
        monkeypatch.setattr(module, name, total_maps_only(getattr(module, name)))
    alg = load("bc4")
    for call, what in PAIR_TAKERS:
        if pair is None and what == "quotient":
            continue
        with pytest.raises(PreconditionUnmet,
                           match=f"^{what} needs self-maps of the carrier, got "):
            call(alg, pair)


@pytest.mark.parametrize("exists, forall, axiom", [
    ((0, 1, 0), (2, 2, 2), r"M3\(arrow\) fails at \(1, 1\)"),    # E and F fix different sets
    ((0, 0, 0), (0, 0, 0), r"M2\(arrow\) fails at \(a\)"),       # E and F fix the same set
])
def test_pairs_that_are_not_monadic_are_rejected(exists, forall, axiom):
    constant = ((0, 1, 2), (0, 0, 0), (0, 0, 0))
    alg = FiniteAlgebra("m3", ("1", "a", "b"), 0, constant, constant)
    pair = MonadicPair(UnaryMap(exists), UnaryMap(forall))
    for _ in range(2):      # a rejection is not kept on the algebra
        with pytest.raises(PreconditionUnmet, match=f"verify_suite needs a monadic pair: {axiom}"):
            verify_suite(alg, [*enumerate_mop(alg), pair], law_ids=EVERY_LAW)


# ------------------------------------------------- anchors compiled into checks

def compiled(anchor, hypothesis=()):
    """The check pointwise_law compiles from anchor; for a law over congruences,
    the expression of the body it scans on each congruence."""
    law = pointwise_law("t", anchor, hypothesis)
    return law.check if law.arity else expression(formula(anchor)[0])


@pytest.mark.parametrize("anchor, check", [
    # postfix negations bind before E and F, which bind before *
    ("Ex- = x", "E[neg_minus[x]] == x"),
    ("(Ex)~ = x", "neg_sim[E[x]] == x"),
    ("x-~- = x~", "neg_minus[neg_sim[neg_minus[x]]] == neg_sim[x]"),
    ("FEx*y = x", "odot[F[E[x]]][y] == x"),
    # then *, (+), ^ and v, -> and ~>, each looser than the one before
    ("x*y (+) z = x", "oplus[odot[x][y]][z] == x"),
    ("x (+) y*z = x", "oplus[x][odot[y][z]] == x"),
    ("x (+) y ^ z = x", "meet[oplus[x][y]][z] == x"),
    ("x v y (+) z = x", "join[x][oplus[y][z]] == x"),
    ("x ^ y -> z = x ~> y*z", "arrow[meet[x][y]][z] == squig[x][odot[y][z]]"),
    # one operator repeats from the left
    ("x*y*z = x", "odot[odot[x][y]][z] == x"),
    ("xvyvz = x", "join[join[x][y]][z] == x"),
    # then the relations, <= once and = as a chain
    ("x -> y <= z", "leq[arrow[x][y]][z]"),
    ("x = y = 1 = 0", "x == y == one == zero"),
    # then and, then implies and iff
    ("x <= y and y <= z and z = 1", "leq[x][y] and leq[y][z] and z == one"),
    ("x <= y and y <= z imply x <= z", "(not (leq[x][y] and leq[y][z]) or (leq[x][z]))"),
    ("x <= y implies Fx <= Fy and Ex = Ey", "(not (leq[x][y]) or (leq[F[x]][F[y]] and E[x] == E[y]))"),
    ("Fx = x iff Ex = x and x <= 1", "(F[x] == x) == (E[x] == x and leq[x][one])"),
    # under a congruence quantifier, ~C and in [1]_C are relations on terms
    ("for every monadic congruence C: x ~C y implies Ex ~C Ey",
     "(not (cls[x] == cls[y]) or (cls[E[x]] == cls[E[y]]))"),
    ("for every congruence C: Fx ~C x ^ y-", "cls[F[x]] == cls[meet[x][neg_minus[y]]]"),
    ("for every congruence C: x * y -> z in [1]_C", "arrow[odot[x][y]][z] in one_cls"),
])
def test_anchor_grammar_and_precedence(anchor, check):
    assert compiled(anchor) == check


@pytest.mark.parametrize("anchor", [
    "x -> (y ~> z) = y ~> (x -> z)",
    "E(Fx -> Fy) = Fx -> Fy and F(Fx -> Fy) = Fx -> Fy",
    "x <= y implies y -> z <= x -> z",
    "Ex <= y iff x <= Fy",
])
def test_both_arrows_is_both(anchor):
    tree = formula(anchor)[0]
    assert compiled(anchor + " (dual)") == expression(opposite(tree))
    assert compiled(anchor + " (both arrows)") == (
        f"{expression(tree)} and {expression(opposite(tree))}")


def test_an_axiom_on_constants_has_arity_0():
    tree, arity, uses_pair, under = formula("1- = 0 (both arrows)")
    assert (expression(tree), arity, uses_pair, under) == (
        "neg_minus[one] == zero and neg_sim[one] == zero", 0, False, None)


def test_under_adds_its_condition_to_the_hypothesis():
    law = pointwise_law("t", "under (M): x <= y implies Ex <= Ey", ("pseudo_be",))
    assert law.hypothesis == ("pseudo_be", "condition_M")
    assert law.check == compiled("x <= y implies Ex <= Ey")
    assert pointwise_law("t", "x <= y implies Ex <= Ey", ("pseudo_be",)).hypothesis \
        == ("pseudo_be",)


def test_under_agrees_with_every_pointwise_hypothesis():
    for law in catalog():
        if law.arity:
            conditions = [h[-1] for h in law.hypothesis if h.startswith("condition_")]
            assert law.anchor.startswith("under (") == bool(conditions), law.id
            assert [law.anchor[7:8]] == conditions or not conditions, law.id


@pytest.mark.parametrize("anchor, message", [
    ("(x -> y)*x <= x,y", "unexpected ',' at position 15"),
    ("x <= y (probe)", "unexpected '\\(' at position 7"),
    ("x -> y -> z = x", "unexpected '->' at position 7"),
    ("x ~> y -> z = x", "unexpected '->' at position 7"),
    ("x <= y <= z", "unexpected '<=' at position 7"),
    ("x = y <= z", "unexpected '<=' at position 6"),
    ("x ^ y v z = x", "unexpected 'v' at position 6"),
    ("x = y iff y = x iff x = x", "unexpected 'iff' at position 16"),
    ("x and y", "unexpected 'and' at position 2"),
    ("x", "unexpected 'end' at position 1"),
    ("(x <= y)", "unexpected '<=' at position 3"),
    ("x = ", "unexpected 'end' at position 4"),
    ("", "unexpected 'end' at position 0"),
    ("x = w", "unexpected 'w' at position 4"),
    ("E = x", "unexpected '=' at position 2"),
    ("under (Q): x = x", "unexpected 'u' at position 0"),
    ("x = x and under (T): x <= y", "unexpected 'under \\(T\\):' at position 10"),
    ("1 = 0", "names none of x, y, z"),
    # ~C and [1]_C name the congruence of a leading quantifier, and in takes [1]_C only
    ("x ~C y", "unexpected '~C' at position 2"),
    ("x in [1]_C", "unexpected 'in' at position 2"),
    ("x = [1]_C", "unexpected '\\[1\\]_C' at position 4"),
    ("for every congruence C: x in y", "unexpected 'y' at position 29"),
    ("for every congruence C: x in 1", "unexpected '1' at position 29"),
    ("for every congruence C: x ~C y ~C z", "unexpected '~C' at position 31"),
    ("x = x and for every congruence C: x ~C y",
     "unexpected 'for every congruence C:' at position 10"),
    ("under (A): for every congruence C: x ~C y",
     "unexpected 'for every congruence C:' at position 11"),
    # (all x,y) closes a relation, and iff joins two closed parts only
    ("x = y (all x,y) iff x = y", "unexpected 'iff' at position 16"),
    ("x = y iff x = y (all x,y)", "unexpected 'iff' at position 6"),
    ("x = z (all x,y) iff x = y (all x,y)", "unexpected '\\(all x,y\\)' at position 6"),
    ("x = y (all x,y) (all x,y) iff x = y (all x,y)", "unexpected '\\(all x,y\\)' at position 16"),
    ("x = y (all x,y) iff y = x (all x,y) (all x,y)", "unexpected '\\(all x,y\\)' at position 36"),
    ("Fx (all x,y) iff x = y (all x,y)", "unexpected '\\(all x,y\\)' at position 3"),
    ("F(x (all x,y)) = x", "unexpected '\\(all x,y\\)' at position 4"),
    ("x = y (all x,y) and y = x (all x,y)", "unexpected 'and' at position 16"),
    ("x = y (all x,y) implies y = x (all x,y)", "unexpected 'implies' at position 16"),
    ("x = y (all x,y) -> y = x (all x,y)", "unexpected '->' at position 16"),
    ("x = y (all x,y) = x", "unexpected '=' at position 16"),
    ("x = y (all x,y)", "unexpected 'end' at position 15"),
    ("for every congruence C: x ~C y (all x,y) iff x ~C y (all x,y)",
     "unexpected '\\(all x,y\\)' at position 31"),
    ("x = y (all x,y) iff y = x (all x,y) (both arrows)",
     "unexpected '\\(both arrows\\)' at position 36"),
    ("x = y (all x,y) iff y = x (all x,y) (dual)", "unexpected '\\(dual\\)' at position 36"),
])
def test_malformed_anchors_are_rejected(anchor, message):
    with pytest.raises(InvariantViolated, match=f"^t: .*{message}"):
        compiled(anchor)


def test_every_pointwise_check_is_its_compiled_anchor():
    # no law carries a hand-written check, arity or uses_pair
    pointwise = [law for law in catalog() if law.arity]
    assert len(pointwise) == 66
    for law in pointwise:
        base = tuple(h for h in law.hypothesis if not h.startswith("condition_"))  # under (X) adds
        assert law == pointwise_law(law.id, law.anchor, base, law.probe)


# the laws whose check is written by hand, not compiled from their anchor
HAND_WRITTEN = {
    "BND.neg_constants", "P3.exists_one", "P3.forall_one_const", "P3b.zero_fixed",
    "P3f.full_iff_id", "P3f.images", "P3f.kernel", "P3f.subalgebra", "P3f.surjective_id",
    "P6.distributive_normal", "P6.ds_upward", "P6.monadic_con_one_class",
    "P6.monadic_ds_generated",
}


def test_only_the_listed_laws_carry_a_hand_written_check():
    # a law added with a hand-written check fails here until it is listed
    def from_anchor(law):
        base = tuple(h for h in law.hypothesis if not h.startswith("condition_"))
        try:
            return law == pointwise_law(law.id, law.anchor, base, law.probe)
        except InvariantViolated:       # not a formula, or one on constants
            return False
    assert {law.id for law in catalog() if not from_anchor(law)} == HAND_WRITTEN
    quantified = [law for law in catalog() if law.anchor.startswith("for every")]
    assert [(law.id, law.arity) for law in quantified] == [
        ("L6.arrow_iff_squig_one_class", 0), ("L6.class_implications", 0),
        ("L6.commutative_converse", 0), ("P6.commutative_exists_cong", 0)]
    closed = [law for law in catalog() if law.anchor.endswith("(all x,y)")]
    assert [(law.id, law.arity, law.uses_pair) for law in closed] == [
        ("P4.meet_join_equiv", 0, True), ("P4.odot_oplus_equiv", 0, True),
        ("P4.oplus_odot_equiv", 0, True)]


P4 = {"P4.meet_join_equiv": ("F[meet[x][y]] == meet[F[x]][F[y]]",
                             "E[join[x][y]] == join[E[x]][E[y]]"),
      "P4.odot_oplus_equiv": ("F[odot[x][y]] == odot[F[x]][F[y]]",
                              "E[oplus[x][y]] == oplus[E[x]][E[y]]"),
      "P4.oplus_odot_equiv": ("F[oplus[x][y]] == oplus[F[x]][F[y]]",
                              "E[odot[x][y]] == odot[E[x]][E[y]]")}


def test_a_closed_formula_is_scanned_part_by_part():
    # each P4 anchor parses: its closed parts are the expressions the law scans,
    # the kernel is never given the whole formula, and recompiling gives the same check
    for law in catalog():
        if law.id in P4:
            tree, arity, uses_pair, under = formula(law.anchor)
            assert tuple(map(expression, scanned_parts(tree))) == P4[law.id]
            assert (arity, uses_pair, under) == (2, True, None)
            with pytest.raises(InvariantViolated, match="closes x and y"):
                expression(tree)
            assert pointwise_law(law.id, law.anchor, law.hypothesis).check is law.check
    # the left part is scanned first, so a missing meet raises before a bad join is read
    law = next(law for law in catalog() if law.id == "P4.meet_join_equiv")
    with pytest.raises(TypeError):
        law.check(SimpleNamespace(n=2, E=(0, 1), F=(0, 1), meet=None, join={}))
    with pytest.raises(KeyError):
        law.check(SimpleNamespace(n=2, E=(0, 1), F=(0, 1), meet=((0, 0), (0, 1)), join={}))


def closed_reference(n, left, right):
    """A P4 verdict by plain loops: left and right each tested at every (x, y)."""
    truths = [all(side(x, y) for x in range(n) for y in range(n)) for side in (left, right)]
    return (HOLDS, None) if truths[0] == truths[1] else (FAILS, ()), 2 * n * n


def test_closed_laws_against_plain_loops():
    # on bc4 and bc4 x C2 with their pairs and on random pairs of maps, which
    # make one part fail where the other holds; F preserves s iff E preserves t
    rng, statuses = random.Random(32), set()
    for alg in (load("bc4"), times_c2(load("bc4"))):
        r = Ctx(alg).report
        ops = {"P4.meet_join_equiv": (r.meet, r.join), "P4.odot_oplus_equiv": (r.odot, r.oplus),
               "P4.oplus_odot_equiv": (r.oplus, r.odot)}
        random_map = lambda: UnaryMap(tuple(rng.randrange(alg.size) for _ in alg.elements()))
        for pair in enumerate_mop(alg) + [MonadicPair(random_map(), random_map())
                                          for _ in range(30)]:
            E, F = pair.exists.images, pair.forall.images
            for law in catalog():
                if law.id in ops:
                    s, t = ops[law.id]
                    want = closed_reference(alg.size, lambda x, y: F[s[x][y]] == s[F[x]][F[y]],
                                            lambda x, y: E[t[x][y]] == t[E[x]][E[y]])
                    got = evaluate_law(law, Ctx(alg).with_pair(pair))
                    assert ((got.status, got.witness), got.instances) == want, law.id
                    statuses.add(got.status)
    assert statuses == {HOLDS, FAILS}


def congruence_law_reference(alg, pair, monadic, holds):
    """The verdict of a law over congruences by plain loops: the first (x, y)
    where holds(cls, one_cls, x, y) is false, congruence by congruence, those
    that are not monadic skipped under the monadic quantifier; n^2 instances
    per congruence visited."""
    n, count = alg.size, 0
    for count, cong in enumerate(enumerate_congruences(alg), 1):
        if monadic and not is_monadic_congruence(cong, pair):
            continue
        cls, one_cls = cong.classes, cong.one_class(alg)
        bad = next(((x, y) for x in range(n) for y in range(n)
                    if not holds(cls, one_cls, x, y)), None)
        if bad is not None:
            return FAILS, bad, count * n * n
    return HOLDS, None, count * n * n


@pytest.mark.parametrize("quantifier", ["congruence", "monadic congruence"])
def test_a_congruence_law_reads_the_tables_of_its_context(quantifier):
    # a body may name leq and E besides cls; the plain quantifier fails on
    # bc4 where the monadic one skips the congruence
    law = pointwise_law("t", f"for every {quantifier} C: x ~C y and x <= y implies Ex ~C Ey")
    assert (law.arity, law.uses_pair) == (0, True)
    # the monadic quantifier reads the pair's F, whatever its body names
    law_without_e = pointwise_law("t", f"for every {quantifier} C: x ~C y implies x -> y in [1]_C")
    assert law_without_e.uses_pair == quantifier.startswith("monadic")
    statuses = set()
    for alg in (load("bc4"), load("psbe5"), times_c2(load("bc4"))):
        leq = Ctx(alg).report.leq
        for pair in enumerate_mop(alg):
            E = pair.exists.images
            got = evaluate_law(law, Ctx(alg).with_pair(pair))
            want = congruence_law_reference(alg, pair, quantifier.startswith("monadic"), (
                lambda cls, one_cls, x, y: not (cls[x] == cls[y] and leq[x][y])
                or cls[E[x]] == cls[E[y]]))
            assert (got.status, got.witness, got.instances) == want
            statuses.add(got.status)
    assert statuses == ({HOLDS} if quantifier.startswith("monadic") else {HOLDS, FAILS})


def test_a_congruence_law_builds_only_the_tables_it_names():
    alg = load("bc4")._replace()
    law = pointwise_law("t", "for every congruence C: x -> y in [1]_C iff x ~> y in [1]_C")
    assert evaluate_law(law, Ctx(alg)).status == HOLDS
    assert not {"odot", "oplus", "leq", "meet"} & set(vars(Ctx(alg).report))


@pytest.mark.parametrize("anchor, mask", [
    ("for every congruence C: x -> y in [1]_C iff x ~> y in [1]_C",
     "ALL & ~(~((ONE[arrow[x][y]]) ^ (ONE[squig[x][y]])))"),
    ("for every monadic congruence C: x ~C y implies Ex ~C Ey",
     "MON & ~(~(EQ[x][y]) | (EQ[E[x]][E[y]]))"),
    ("for every congruence C: x ~C y and x <= y implies x = 1",
     "ALL & ~(~((EQ[x][y]) & ((leq[x][y] and ALL))) | ((x == one and ALL)))"),
])
def test_a_congruence_formula_compiles_to_its_failure_mask(anchor, mask):
    # bit c for the c-th congruence: EQ and ONE read C, a relation without C is ALL or 0
    assert expression(formula(anchor)[0], masks=True) == mask


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_congruence_laws_match_the_per_congruence_scan(alg):
    for law_id, pair, got, want in congruence_law_outcomes(alg):
        assert got == want, (law_id, pair)


def test_the_congruence_comparison_fails_somewhere():
    # with hypotheses unread and pairs of maps that are not monadic, the
    # comparison meets a failure of every congruence law but the two L6
    # theorems of every pseudo BE-algebra
    failing = {law_id for param in ORACLE_ALGEBRAS
               for law_id, _, (ok, _, _), _ in congruence_law_outcomes(param.values[0]) if not ok}
    assert failing == {"L6.commutative_converse", "P6.commutative_exists_cong",
                       "P6.monadic_con_one_class"}


def test_the_first_failing_congruence_is_not_where_the_scan_first_fails():
    # C2 x C2 has the congruences 0000, 0011, 0101 and 0123 (elements 2x + y):
    # x ~C y fails first at (0, 1), on 0101 and 0123, but the first congruence
    # that fails is 0011, at (0, 2)
    alg = direct_product(C2, C2)
    assert [c.classes for c in enumerate_congruences(alg)] == [
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 2, 3)]
    law = pointwise_law("t", "for every congruence C: x ~C y")
    assert law.check(Ctx(alg)) == per_congruence(law, Ctx(alg)) == (False, (0, 2), 2 * 16)

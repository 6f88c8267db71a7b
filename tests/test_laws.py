import importlib
import time

import pytest

from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import InvariantViolated, both
from psbe.laws import (FAILS, HOLDS, NOT_APPLICABLE, Ctx, catalog,
                       catalog_json, evaluate_law, pointwise_law, verify_suite)
from psbe.quantifiers import MonadicPair, enumerate_mop

from conftest import FIXTURE_NAMES, load

laws_module = importlib.import_module("psbe.laws")


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
    default_ids = {v.name for v in verify_suite(alg, pairs)}
    with_probes = {v.name for v in verify_suite(alg, pairs,
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


@pytest.mark.parametrize("pair", [
    MonadicPair(UnaryMap((0, 7, 0, 0)), UnaryMap((0, 0, 0, 0))),    # an image off the carrier
    MonadicPair(UnaryMap((0, 1, 2)), UnaryMap((0, 1, 2))),          # three images, four elements
    None,
])
def test_pairs_of_maps_off_the_carrier_are_rejected_before_any_scan(pair, monkeypatch):
    # every read the fused scans hoist must be total: E and F map the carrier into itself
    monkeypatch.setattr(laws_module, "first_failures", None)
    with pytest.raises(PreconditionUnmet, match="verify_suite needs self-maps of the carrier"):
        verify_suite(load("bc4"), [*enumerate_mop(load("bc4")), pair])


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
            verify_suite(alg, [*enumerate_mop(alg), pair], include_probes=True)


# ------------------------------------------------- anchors compiled into checks

compiled = lambda anchor, hypothesis=(): pointwise_law("t", anchor, hypothesis).check


@pytest.mark.parametrize("anchor, check", [
    # postfix negations bind before E and F, which bind before *
    ("Ex- = x", "E[nm[x]] == x"),
    ("(Ex)~ = x", "ns[E[x]] == x"),
    ("x-~- = x~", "nm[ns[nm[x]]] == ns[x]"),
    ("FEx*y = x", "od[F[E[x]]][y] == x"),
    # then *, (+), ^ and v, -> and ~>, each looser than the one before
    ("x*y (+) z = x", "op[od[x][y]][z] == x"),
    ("x (+) y*z = x", "op[x][od[y][z]] == x"),
    ("x (+) y ^ z = x", "meet[op[x][y]][z] == x"),
    ("x v y (+) z = x", "join[x][op[y][z]] == x"),
    ("x ^ y -> z = x ~> y*z", "a[meet[x][y]][z] == s[x][od[y][z]]"),
    # one operator repeats from the left
    ("x*y*z = x", "od[od[x][y]][z] == x"),
    ("xvyvz = x", "join[join[x][y]][z] == x"),
    # then the relations, <= once and = as a chain
    ("x -> y <= z", "leq[a[x][y]][z]"),
    ("x = y = 1 = 0", "x == y == one == zero"),
    # then and, then implies and iff
    ("x <= y and y <= z and z = 1", "leq[x][y] and leq[y][z] and z == one"),
    ("x <= y and y <= z imply x <= z", "(not (leq[x][y] and leq[y][z]) or (leq[x][z]))"),
    ("x <= y implies Fx <= Fy and Ex = Ey", "(not (leq[x][y]) or (leq[F[x]][F[y]] and E[x] == E[y]))"),
    ("Fx = x iff Ex = x and x <= 1", "(F[x] == x) == (E[x] == x and leq[x][one])"),
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
    assert compiled(anchor + " (both arrows)") == both(compiled(anchor))


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
    for law in catalog():
        if law.id.startswith("P4."):
            sides = law.anchor.replace(" (all x,y)", "").split(" iff ")
            assert law.check.args == tuple(compiled(side) for side in sides)

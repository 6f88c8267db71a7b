from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from psbe import deduction
from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import HOLDS, check_pseudo_be, classify
from psbe.deduction import (Congruence, DeductiveSystem, correspondence_report,
                            enumerate_congruences, enumerate_ds, generated_ds,
                            is_compatible, is_meet_compatible,
                            is_monadic_congruence,
                            is_monadic_ds, monadic_ds, quotient,
                            theta_from_ds)
from psbe.laws import SearchSpec, verify_suite
from psbe.quantifiers import (MonadicPair, build_from_sigma, build_from_tau, check_monadic,
                              check_mv_quantifier, enumerate_mop, fixed_set, pair_from_unary_blocks)

from conftest import (ORACLE_ALGEBRAS, assert_generated_ds_matches_references,
                      labelled_models, load, scan_ds, times_c2)


@cache
def _product(name):
    return times_c2(load(name))


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
    # the closure of every subset equals the intersection of the scanned
    # systems holding it (and the nested implications under condition (M))
    assert_generated_ds_matches_references(any_fixture)


def ds_outcome(enumerator, alg):
    """The list of deductive systems, or the message and witness of the
    PreconditionUnmet raised instead."""
    try:
        return enumerator(alg)
    except PreconditionUnmet as exc:
        return str(exc), exc.witness


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_enumerate_ds_matches_subset_scan(alg):
    assert enumerate_ds(alg) == scan_ds(alg)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_enumerate_ds_matches_subset_scan_on_any_tables(data):
    # arbitrary tables and any element as 1, the row of 1 made the
    # identity half of the time: mostly not pseudo BE-algebras, where the
    # two closures may disagree and the scan names the first subset;
    # generated_ds, read off the same list, raises the same error
    n = data.draw(st.integers(1, 6))
    one = data.draw(st.integers(0, n - 1))
    cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    arrow, squig = (list(data.draw(st.lists(cells, min_size=n, max_size=n)))
                    for _ in range(2))
    if data.draw(st.booleans()):
        arrow[one] = squig[one] = tuple(range(n))
    alg = FiniteAlgebra("any", tuple(f"e{i}" for i in range(n)), one,
                        tuple(arrow), tuple(squig))
    assert ds_outcome(enumerate_ds, alg) == ds_outcome(scan_ds, alg)
    xs = data.draw(st.frozensets(st.sampled_from(alg.elements())))
    assert (ds_outcome(lambda alg: generated_ds(alg, xs).members, alg)
            == ds_outcome(lambda alg: frozenset.intersection(
                *(d.members for d in scan_ds(alg) if xs <= d.members)), alg))


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


def test_theta_from_ds_rejects_a_non_transitive_relation():
    # a pseudo BE-algebra of size 4 (arrow = squig) in which {1} relates
    # e2 ~ e1 (e2 -> e1 = e1 -> e2 = 1) and e1 ~ e3, but e3 -> e2 = e1
    t = ((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
    alg = FiniteAlgebra("m4", ("1", "e1", "e2", "e3"), 0, t, t)
    assert check_pseudo_be(alg).status == HOLDS
    with pytest.raises(PreconditionUnmet) as err:
        theta_from_ds(alg, enumerate_ds(alg)[0])
    assert (str(err.value), err.value.witness) == ("relation not transitive at (2, 1, 3)",
                                                   (2, 1, 3))


# not a pseudo BE-algebra (psBE1 fails at e1, as e1 -> e1 = e1), on which
# {1, e1} is a deductive system whose relation Theta has [1] = {1}
THETA_NOT_PSBE = FiniteAlgebra("bad", ("1", "e1", "e2"), 0, ((0, 2, 2), (2, 1, 2), (1, 2, 0)),
                               ((0, 1, 2), (2, 1, 2), (0, 2, 1)))


def test_theta_from_ds_names_the_failing_axiom_off_pseudo_be_algebras():
    alg = THETA_NOT_PSBE
    d = generated_ds(alg, {0, 1})
    assert d.members == {0, 1}
    with pytest.raises(PreconditionUnmet) as err:
        theta_from_ds(alg, d)
    assert (str(err.value), err.value.witness) == (
        "Theta_D needs a pseudo BE-algebra: [1]_Theta differs from D = {1, e1}; "
        "psBE1 fails at (e1)", (1,))


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


def unionfind_congruences(alg):
    """Reference enumerator: the identity and every principal Cg(a, b) by
    union-find closure over all translated pairs, closed under
    union-find joins of partitions."""
    n = alg.size
    cols = [tuple(zip(*t)) for t in (alg.arrow, alg.squig)]

    def find(parent, x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def partition(parent):
        seen = {}
        return tuple(seen.setdefault(find(parent, x), len(seen)) for x in range(n))

    def principal(a, b):
        parent = list(range(n))
        blocks = n
        queue = [(a, b)]
        while queue and blocks > 1:
            x, y = queue.pop()
            rx, ry = find(parent, x), find(parent, y)
            if rx != ry:
                parent[ry] = rx
                blocks -= 1
                for table, col in zip((alg.arrow, alg.squig), cols):
                    queue.extend(zip(table[x], table[y]))
                    queue.extend(zip(col[x], col[y]))
        return partition(parent)

    def join(p, q):
        first = {}
        parent = [first.setdefault(c, x) for x, c in enumerate(p)]
        first = {}
        for x, c in enumerate(q):
            rx, ry = find(parent, x), find(parent, first.setdefault(c, x))
            parent[rx] = ry
        return partition(parent)

    principals = {principal(a, b) for a in range(n) for b in range(a + 1, n)}
    found = set(principals)
    queue = list(principals)
    while queue:
        theta = queue.pop()
        for p in principals:
            psi = join(theta, p)
            if psi not in found:
                found.add(psi)
                queue.append(psi)
    found.add(tuple(range(n)))
    return [Congruence(c) for c in sorted(found)]


def monadic_congruence_reference(cong, pair):
    """Reference for is_monadic_congruence: x ~ y implies forall x ~
    forall y, over all n^2 pairs."""
    n = len(cong.classes)
    return all(cong.same(pair.forall(x), pair.forall(y))
               for x in range(n) for y in range(n) if cong.same(x, y))


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
            if not cong.same(meet[x][u], meet[y][v]):
                return False
    return True


def test_labelled_models_small():
    assert [len(labelled_models(n)) for n in (2, 3)] == [1, 6]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)


@pytest.mark.parametrize("name", ["psbe5", "inv6"])
def test_enumerate_congruences_matches_unionfind(name):
    alg = times_c2(load(name))
    assert enumerate_congruences(alg) == unionfind_congruences(alg)


@st.composite
def table_pairs(draw):
    """Two arbitrary operation tables on 2 to 6 elements, 1 = element 0."""
    n = draw(st.integers(min_value=2, max_value=6))
    cell = st.integers(min_value=0, max_value=n - 1)
    arrow, squig = (tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))
                    for _ in range(2))
    return FiniteAlgebra("r", tuple(f"e{i}" for i in range(n)), 0, arrow, squig)


@settings(max_examples=120, deadline=None)
@given(table_pairs())
def test_enumerate_congruences_matches_scan_off_psbe(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS + [
    pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")])
def test_is_monadic_congruence_matches_reference(alg):
    # every partition up to n = 6; every self-map as forall up to n = 4
    n = alg.size
    congs = all_partitions(n) if n <= 6 else enumerate_congruences(alg)
    pairs = enumerate_mop(alg)
    if n <= 4:
        pairs = [MonadicPair(UnaryMap.identity(n), UnaryMap(images))
                 for images in product(range(n), repeat=n)]
    for pair in pairs:
        for cong in congs:
            assert (is_monadic_congruence(cong, pair)
                    == monadic_congruence_reference(cong, pair))


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_compatibility_witnesses_match_full_scan(alg):
    meet = classify(alg)[0].meet    # None unless every pair has a meet
    for cong in all_partitions(alg.size):
        assert is_compatible(alg, cong) == scan_compatible(alg, cong)
        assert is_meet_compatible(alg, cong) == (
            meet is None or scan_meet_compatible(alg, cong, meet))


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_quotient_decides_by_is_compatible_and_reads_the_leaders(alg):
    n = alg.size
    for cong in all_partitions(n):
        bad = scan_compatible(alg, cong)
        if bad is not None:
            with pytest.raises(PreconditionUnmet) as err:
                quotient(alg, cong)
            assert str(err.value) == f"class operation disagrees at {bad}"
            assert err.value.witness == bad
            continue
        q, proj = quotient(alg, cong)[:2]
        blocks = sorted(cong.blocks(), key=min)
        assert all(x in blocks[proj[x]] for x in range(n))
        assert q.element_names == tuple(alg.element_names[min(b)] for b in blocks)
        for x, y in product(range(n), repeat=2):
            assert q.arrow[proj[x]][proj[y]] == proj[alg.arrow[x][y]]
            assert q.squig[proj[x]][proj[y]] == proj[alg.squig[x][y]]


def _bc4_theta_pair_2(members):
    alg = load("bc4")
    d = next(ds for ds in enumerate_ds(alg) if member_names(alg, ds) == members)
    return alg, theta_from_ds(alg, d), pair_from_unary_blocks(alg, "2")


def _chain3_forall_breaks():
    # e1 <= e2 <= 1 for both implications; exists respects the classes
    # {1, e2}, {e1}, forall sends e2 to e1 but 1 to 1
    t = ((0, 1, 2), (0, 0, 0), (0, 1, 0))
    alg = FiniteAlgebra("chain3", ("1", "e1", "e2"), 0, t, t)
    return alg, Congruence((0, 1, 0)), MonadicPair(UnaryMap((0, 1, 0)), UnaryMap((0, 1, 1)))


@pytest.mark.parametrize("make, witness, message", [
    (lambda: _bc4_theta_pair_2({"1", "a"}), (3, 2),
     "exists does not respect the congruence at (3, 2)"),
    (lambda: _bc4_theta_pair_2({"1", "b"}), (3, 1),
     "exists does not respect the congruence at (3, 1)"),
    (_chain3_forall_breaks, (2, 0), "forall does not respect the congruence at (2, 0)"),
], ids=["bc4-1a-pair2", "bc4-1b-pair2", "chain3-forall"])
def test_quotient_rejects_a_pair_whose_maps_break_the_congruence(make, witness, message):
    alg, cong, pair = make()
    with pytest.raises(PreconditionUnmet) as err:
        quotient(alg, cong, pair=pair)
    assert str(err.value) == message
    assert err.value.witness == witness


@pytest.mark.parametrize("name", ["bc4", "inv6"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_leader_tests_match_references_on_products(name, data):
    # inv6xC2 has a pair without a meet, so is_meet_compatible holds unchecked
    alg = _product(name)
    meet = classify(alg)[0].meet
    for cong in [data.draw(partitions(alg.size)), *enumerate_congruences(alg)]:
        assert is_meet_compatible(alg, cong) == (
            meet is None or scan_meet_compatible(alg, cong, meet))
        for pair in enumerate_mop(alg):
            assert (is_monadic_congruence(cong, pair)
                    == monadic_congruence_reference(cong, pair))


@pytest.mark.parametrize("bad", [99, -1])
def test_generated_ds_rejects_an_element_outside_the_carrier(psbe5, bad):
    with pytest.raises(PreconditionUnmet) as err:
        generated_ds(psbe5, [1, bad])
    assert str(err.value) == f"element not in the carrier at ({bad},)"
    assert err.value.witness == (bad,)


# on bc4, a four-element carrier: a map of three images, and one with an image off it;
# a pair of two-element maps, and the carrier as a deductive system they do not reach
SHORT, OFF = UnaryMap((0, 1, 2)), UnaryMap((0, 7, 0, 0))
PAIR2 = MonadicPair(UnaryMap((0, 1)), UnaryMap((0, 1)))
CARRIER = DeductiveSystem(frozenset(range(4)), True)
SET_PAIR = MonadicPair(UnaryMap({0, 1, 2, 3}), UnaryMap({0, 1, 2, 3}))   # sized, in range


@pytest.mark.parametrize("call, message", [
    (lambda alg: build_from_tau(alg, SHORT),
     f"build_from_tau needs self-maps of the carrier, got {SHORT}"),
    (lambda alg: build_from_tau(alg, OFF),
     f"build_from_tau needs self-maps of the carrier, got {OFF}"),
    (lambda alg: build_from_sigma(alg, SHORT),
     f"build_from_sigma needs self-maps of the carrier, got {SHORT}"),
    (lambda alg: build_from_sigma(alg, MonadicPair(OFF, OFF)),
     f"build_from_sigma needs self-maps of the carrier, got {MonadicPair(OFF, OFF)}"),
    (lambda alg: check_mv_quantifier(alg, OFF, "existential"),
     f"check_mv_quantifier needs self-maps of the carrier, got {OFF}"),
    (lambda alg: fixed_set(alg, MonadicPair(SHORT, SHORT)),
     f"fixed_set needs self-maps of the carrier, got {MonadicPair(SHORT, SHORT)}"),
    (lambda alg: correspondence_report(alg, MonadicPair(UnaryMap.identity(4), OFF), "bck_meet"),
     f"correspondence_report needs self-maps of the carrier, got "
     f"{MonadicPair(UnaryMap.identity(4), OFF)}"),
    (lambda alg: theta_from_ds(alg, DeductiveSystem(frozenset({0, 9}), False)),
     "theta_from_ds needs a set of elements of the carrier, got "
     "DeductiveSystem(members=frozenset({0, 9}), normal=False)"),
    # members that are not a set: [1]_Theta, a frozenset, never equalled them
    (lambda alg: theta_from_ds(alg, DeductiveSystem([0], True)),
     "theta_from_ds needs a set of elements of the carrier, got "
     "DeductiveSystem(members=[0], normal=True)"),
    (lambda alg: theta_from_ds(alg, DeductiveSystem((0,), True)),
     "theta_from_ds needs a set of elements of the carrier, got "
     "DeductiveSystem(members=(0,), normal=True)"),
    (lambda alg: quotient(alg, Congruence((0, 1))),
     "quotient needs a partition of the carrier, got Congruence(classes=(0, 1))"),
    (lambda alg: quotient(alg, (0, 1, 2, 3)),
     "quotient needs a partition of the carrier, got (0, 1, 2, 3)"),
    (lambda alg: monadic_ds(alg, PAIR2), f"monadic_ds needs self-maps of the carrier, got {PAIR2}"),
    (lambda alg: monadic_ds(alg, PAIR2, [CARRIER]),
     f"monadic_ds needs self-maps of the carrier, got {PAIR2}"),
    (lambda alg: is_monadic_ds(CARRIER, PAIR2),
     "is_monadic_ds needs members in the forall map's domain, got "
     "DeductiveSystem(members=frozenset({0, 1, 2, 3}), normal=True)"),
    (lambda alg: is_monadic_ds(DeductiveSystem([0], True), enumerate_mop(alg)[0]),
     "is_monadic_ds needs members in the forall map's domain, got "
     "DeductiveSystem(members=[0], normal=True)"),
    (lambda alg: is_monadic_congruence(Congruence((0, 0, 1, 1)), PAIR2),
     f"is_monadic_congruence needs self-maps of the carrier, got {PAIR2}"),
    (lambda alg: generated_ds(alg, [[1]]), "generated_ds needs element names or indices, got [[1]]"),
    # a system, a pair, a list or a partition of another type: each broke a read of its fields
    (lambda alg: is_monadic_ds(frozenset({0}), enumerate_mop(alg)[0]),
     "is_monadic_ds needs members in the forall map's domain, got frozenset({0})"),
    (lambda alg: is_monadic_ds(CARRIER, 5), "is_monadic_ds needs a pair of self-maps, got 5"),
    (lambda alg: monadic_ds(alg, enumerate_mop(alg)[0], [5]),
     "is_monadic_ds needs members in the forall map's domain, got 5"),
    (lambda alg: monadic_ds(alg, enumerate_mop(alg)[0], 5),
     "monadic_ds needs an iterable of deductive systems, got 5"),
    (lambda alg: is_monadic_congruence(Congruence(5), enumerate_mop(alg)[0]),
     "is_monadic_congruence needs a partition, got Congruence(classes=5)"),
    (lambda alg: is_monadic_congruence(Congruence((0, 0, 1, 1)), 5),
     "is_monadic_congruence needs self-maps of the carrier, got 5"),
    # maps and partitions whose images have no len(), or are a set: the shape is
    # tested first, and a self-map's images and a partition's classes are a tuple
    (lambda alg: quotient(alg, Congruence(5)),
     "quotient needs a partition of the carrier, got Congruence(classes=5)"),
    (lambda alg: alg.with_unary(e=UnaryMap(5)), "unary map 'e' is not a self-map"),
    *((lambda alg, call=call, pair=pair: call(alg, pair),
       f"{what} needs self-maps of the carrier, got {pair}")
      for pair in (MonadicPair(UnaryMap(5), UnaryMap(5)), SET_PAIR,
                   MonadicPair(UnaryMap(None), UnaryMap(None)))
      for what, call in (
          ("check_monadic", check_monadic), ("monadic_ds", monadic_ds), ("fixed_set", fixed_set),
          ("verify_suite", lambda alg, pair: verify_suite(alg, [pair])),
          ("is_monadic_congruence", lambda alg, pair: is_monadic_congruence(
              Congruence((0, 0, 1, 1)), pair)))),
    (lambda alg: is_monadic_ds(CARRIER, SET_PAIR),
     f"is_monadic_ds needs a pair of self-maps, got {SET_PAIR}"),
    (lambda alg: build_from_tau(alg, SET_PAIR.forall),
     f"build_from_tau needs self-maps of the carrier, got {SET_PAIR.forall}"),
    (lambda alg: alg.with_unary(e=SET_PAIR.forall), "unary map 'e' is not a self-map"),
    (lambda alg: quotient(alg, Congruence({0, 1, 2, 3})),
     "quotient needs a partition of the carrier, got Congruence(classes={0, 1, 2, 3})"),
    (lambda alg: is_monadic_congruence(Congruence({0, 1, 2, 3}), enumerate_mop(alg)[0]),
     "is_monadic_congruence needs a partition, got Congruence(classes={0, 1, 2, 3})"),
])
def test_malformed_maps_systems_and_partitions_are_rejected_at_entry(bc4, call, message):
    # shape only, before any read of a table by the given indices
    with pytest.raises(PreconditionUnmet) as err:
        call(bc4)
    assert str(err.value) == message


@pytest.mark.parametrize("name, count", [("bc4", 8), ("psbe4", 4),
                                         ("psbe5", 19), ("inv6", 4)])
def test_product_congruence_counts(name, count):
    alg = times_c2(load(name))
    assert check_pseudo_be(alg).status == HOLDS
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


def test_quotient_rejects_a_pair_that_is_not_monadic():
    # E = (1, 1), F = Id on the 2-element chain: M5 (E F x = F x) fails at e1
    t = ((0, 1), (0, 0))
    alg = FiniteAlgebra("c2", ("1", "e1"), 0, t, t)
    pair = MonadicPair(UnaryMap((0, 0)), UnaryMap((0, 1)))
    with pytest.raises(PreconditionUnmet,
                       match=r"^quotient needs a monadic pair: M5 fails at \(e1\)$"):
        quotient(alg, Congruence((0, 1)), pair=pair)


@pytest.mark.parametrize("name, call, message", [
    ("psbe5", lambda alg: correspondence_report(alg, enumerate_mop(alg)[0], "nope"),
     "unknown variant 'nope'"),
    ("bc4", lambda alg: check_mv_quantifier(alg, UnaryMap.identity(alg.size), "modal"),
     "kind must be 'universal' or 'existential'"),
    ("psbe4", lambda alg: fixed_set(alg, MonadicPair(UnaryMap.identity(alg.size),
                                                     UnaryMap((alg.one,) * alg.size))),
     "fixed sets of exists and forall disagree; pair is not monadic"),
    ("psbe4", lambda alg: SearchSpec(law=5), "search law must be a law id, got 5"),
    ("psbe4", lambda alg: SearchSpec(law="AX.refl", require=("poset", "bogus")),
     "unknown classification flags in require: ['bogus']"),
    ("psbe4", lambda alg: SearchSpec(law="AX.refl", require="bounded"),
     "require must list flag names, not the string 'bounded'"),
    ("psbe4", lambda alg: SearchSpec(law="AX.refl", require=5),
     "require must list flag names, got 5"),
    ("psbe4", lambda alg: SearchSpec(law="AX.refl", require=None),
     "require must list flag names, got None"),
    ("psbe4", lambda alg: SearchSpec(law="AX.refl", require=(["poset"],)),
     "require must list flag names, got (['poset'],)"),
    ("bc4", lambda alg: enumerate_mop(alg, "bounded_commutative"),
     "unknown mode 'bounded_commutative'"),
    # a value of the wrong type, before it is hashed, iterated or compared
    ("bc4", lambda alg: enumerate_mop(alg, [1]), "unknown mode [1]"),
    ("bc4", lambda alg: verify_suite(alg, 5),
     "verify_suite needs an iterable of monadic pairs, got 5"),
    ("bc4", lambda alg: verify_suite(alg, None),
     "verify_suite needs an iterable of monadic pairs, got None"),
    ("bc4", lambda alg: generated_ds(alg, 5), "generated_ds needs an iterable of elements, got 5"),
    *(("psbe4", lambda alg, size=size: SearchSpec(law="AX.refl", **size),
       "search sizes must satisfy 2 <= min <= max <= 5")
      for size in ({"max_size": "4"}, {"max_size": 3.5}, {"min_size": 2.0}, {"max_size": None})),
    *(("psbe4", lambda alg, budget=budget: SearchSpec(law="AX.refl", budget=budget),
       f"search budget must be an int or None, got {budget!r}") for budget in ("5", 2.5, False)),
])
def test_unknown_keyword_values_are_rejected(name, call, message):
    with pytest.raises(PreconditionUnmet) as err:
        call(load(name))
    assert str(err.value) == message


def test_quotient_identity_and_full(psbe5):
    n = psbe5.size
    ident = Congruence(tuple(range(n)))
    assert quotient(psbe5, ident).algebra.size == n
    full = Congruence((0,) * n)
    assert quotient(psbe5, full).algebra.size == 1


def test_correspondence_be_variant(bc4):
    for pair in enumerate_mop(bc4):
        assert correspondence_report(bc4, pair, variant="be").status == HOLDS


def test_correspondence_bck_meet_variant(inv6):
    for pair in enumerate_mop(inv6):
        assert correspondence_report(inv6, pair, variant="bck_meet").status == HOLDS


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
    assert correspondence_report(inv6, pair, variant="bck_meet").status == HOLDS
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

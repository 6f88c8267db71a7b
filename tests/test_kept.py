"""What an algebra object keeps: axiom verdicts, deductive systems,
congruences and monadic pairs are computed on the first call for the
object, later calls get the kept result (a new list each time), a
`_replace` copy computes afresh and a raised PreconditionUnmet is never
kept.  Law hypotheses are names the report decides, so they read no pair
and each is decided once, into the one dict of decided hypotheses that
the object keeps; what a law context computes once (`Ctx.once`) is kept
on the object too, and what it finds per pair on the context."""

import importlib
from collections import Counter

import pytest

from psbe import deduction as deduction_module
from psbe import laws as laws_module
from psbe import quantifiers as quantifiers_module
from psbe.algebra import PreconditionUnmet, parse_algebra
from psbe.classify import HOLDS, ClassificationReport, check_pseudo_be, check_pseudo_bck
from psbe.deduction import enumerate_congruences, enumerate_ds, generated_ds, is_monadic_ds
from psbe.laws import Ctx, SearchSpec, catalog, search_counterexample, verify_suite
from psbe.quantifiers import BOUNDED_COMMUTATIVE, HOOP, PLAIN, enumerate_mop

from conftest import FIXTURE_NAMES, load, model_algebra, times_c2

classify_module = importlib.import_module("psbe.classify")   # psbe.classify is the function

ALGEBRAS = [
    *(pytest.param(load(name), id=name) for name in FIXTURE_NAMES),
    *(pytest.param(times_c2(load(name)), id=f"{name}xC2") for name in ("bc4", "psbe4")),
    *(pytest.param(model_algebra(n, arrow, squig), id=f"m{n}-{rank}")
      for n in (2, 3) for rank, arrow, squig in laws_module._models(n)),
]

COMPUTATIONS = {
    "check_pseudo_be": check_pseudo_be,
    "check_pseudo_bck": check_pseudo_bck,
    "enumerate_ds": enumerate_ds,
    "enumerate_congruences": enumerate_congruences,
    **{f"enumerate_mop[{mode}]": lambda alg, mode=mode: enumerate_mop(alg, mode)
       for mode in (PLAIN, BOUNDED_COMMUTATIVE, HOOP)},
}
LISTS = [name for name in COMPUTATIONS if name.startswith("enumerate")]

# the private scanner behind each computation, as (module, attribute)
SCANNERS = {
    "check_pseudo_be": (classify_module, "_scan_pseudo_be"),
    "check_pseudo_bck": (classify_module, "_scan_pseudo_bck"),
    "enumerate_ds": (deduction_module, "_enumerate_ds"),
    "enumerate_congruences": (deduction_module, "_enumerate_congruences"),
    "enumerate_mop": (quantifiers_module, "_enumerate_mop"),
}

# -> and ~> close different sets: {1, b} is closed for -> only
CLOSURES_DISAGREE = ("algebra broken\nelements 1 a b\none 1\n"
                     "arrow\n1 a b\n1 1 1\n1 1 1\n"
                     "squig\n1 a b\n1 1 1\n1 a 1\nend\n")


def outcome(compute, alg):
    """The result, or the PreconditionUnmet raised, as (type, message)."""
    try:
        return compute(alg)
    except PreconditionUnmet as exc:
        return PreconditionUnmet, str(exc)


def raises(compute, alg) -> bool:
    try:
        compute(alg)
    except PreconditionUnmet:
        return True
    return False


def count_scans(monkeypatch, by=lambda alg: (alg.arrow, alg.squig)) -> Counter:
    """Count each private scanner's calls, by scanner and algebra (its
    tables, unless `by` says otherwise) and the scanner's arguments."""
    calls = Counter()
    for name, (module, attr) in SCANNERS.items():
        def counted(alg, *args, real=getattr(module, attr), name=name):
            calls[name, *by(alg), *args] += 1
            return real(alg, *args)
        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_later_calls_and_copies_give_the_first_result(alg):
    alg = alg._replace()            # a new object: nothing is kept yet
    for name, compute in COMPUTATIONS.items():
        first = outcome(compute, alg)
        assert outcome(compute, alg) == first, name
        assert outcome(compute, alg._replace()) == first, name


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_a_returned_list_is_the_callers_own(alg):
    alg = alg._replace()
    for name in LISTS:
        returned = outcome(COMPUTATIONS[name], alg)
        if not isinstance(returned, list):
            continue                # the mode is not available here
        want = list(returned)
        returned.clear()
        assert COMPUTATIONS[name](alg) == want, name
        again = COMPUTATIONS[name](alg)
        again.append(None)
        assert COMPUTATIONS[name](alg) == want, name


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_each_object_is_scanned_once(alg, monkeypatch):
    # what raises is never kept: that is the two tests below.  Scans are
    # counted by object, since a mode's list filters the plain list of its
    # own object: a copy that lists a mode's pairs scans its plain list too
    computations = [c for c in COMPUTATIONS.values() if not raises(c, alg._replace())]
    alg = alg._replace()
    copies = [alg._replace() for _ in computations]     # alive, so each id is its own
    calls = count_scans(monkeypatch, by=lambda scanned: (id(scanned),))
    for compute in computations:
        compute(alg)
        compute(alg)
    first = Counter(calls)
    assert len(first) == len(computations) and max(first.values()) == 1
    for compute, copy in zip(computations, copies):
        before = set(calls)
        compute(copy)
        assert len(calls) > len(before)                 # the copy computes afresh
    scans = lambda key: (key[0], *key[2:])              # the scan without the object
    assert max(calls.values()) == 1 and set(map(scans, calls)) == set(map(scans, first))


def test_unavailable_mode_raises_on_every_call(psbe4, monkeypatch):
    alg = psbe4._replace()
    calls = count_scans(monkeypatch)
    for _ in range(3):
        with pytest.raises(PreconditionUnmet, match="needs the pseudo-product table"):
            enumerate_mop(alg, mode=BOUNDED_COMMUTATIVE)
    assert sum(calls.values()) == 3


def test_disagreeing_closures_raise_on_every_call(monkeypatch):
    # generated_ds reads enumerate_ds's list, so it raises the same error
    alg = parse_algebra(CLOSURES_DISAGREE)
    calls = count_scans(monkeypatch)
    for _ in range(3):
        for compute in (enumerate_ds, lambda alg: generated_ds(alg, ["1"])):
            with pytest.raises(PreconditionUnmet, match="closures disagree on {1, b}"):
                compute(alg)
    assert calls[("enumerate_ds", alg.arrow, alg.squig)] == 6


def test_generated_ds_and_ctx_once_read_what_the_object_keeps(psbe5, monkeypatch):
    alg = psbe5._replace()
    calls = count_scans(monkeypatch)
    systems = enumerate_ds(alg)
    assert [generated_ds(alg, d.members) for d in systems] == systems
    assert calls[("enumerate_ds", alg.arrow, alg.squig)] == 1
    computed = []

    def fn(ctx):
        computed.append(ctx)
        return object()

    first = Ctx(alg).once(fn)
    assert Ctx(alg).with_pair(enumerate_mop(alg)[0]).once(fn) is first and len(computed) == 1
    assert Ctx(alg._replace()).once(fn) is not first and len(computed) == 2
    # a hypothesis is decided once per object, and a context's systems are the kept list
    decided = Counter()
    unmet = ClassificationReport.unmet
    monkeypatch.setattr(ClassificationReport, "unmet",
                        lambda report, names: decided.update([names]) or unmet(report, names))
    hypothesis = ("pseudo_be", "bounded")
    assert {Ctx(alg).applies(hypothesis), Ctx(alg).with_pair(enumerate_mop(alg)[0]).applies(
        hypothesis)} == {unmet(Ctx(alg).report, hypothesis) is None}
    assert decided[hypothesis] == 1
    assert Ctx(alg).ds == systems and Ctx(alg).ds is not Ctx(alg).ds
    assert calls[("enumerate_ds", alg.arrow, alg.squig)] == 1
    # the decided hypotheses are one dict per object, which every context on it
    # reads and a second verify_suite call finds filled; a copy starts empty
    base, pairs = Ctx(alg), enumerate_mop(alg)
    hypotheses = base.hypotheses
    assert all(base.with_pair(pair).hypotheses is hypotheses for pair in pairs)
    verify_suite(alg, pairs)
    assert Ctx(alg).hypotheses is hypotheses
    assert set(hypotheses) == {law.hypothesis for law in catalog() if not law.probe}
    before = Counter(decided)
    verify_suite(alg, pairs)
    assert decided == before and Ctx(alg).hypotheses is hypotheses
    assert Ctx(alg._replace()).hypotheses == {} and Ctx(alg._replace()).hypotheses is not hypotheses
    # a pair's context shares the algebra and report, not what it finds per pair
    ctx = base.with_pair(pairs[0])
    assert ctx.alg is base.alg and ctx.report is base.report
    assert ctx.failures is not base.failures and ctx.failures == {}
    assert ctx.monadic_members is not base.with_pair(pairs[0]).monadic_members
    assert ctx.with_pair(pairs[-1]).monadic_members is not ctx.monadic_members
    assert ctx.monadic_members == {d.members for d in systems if is_monadic_ds(d, pairs[0])}


def test_congruence_masks_are_built_once_per_object_and_pair(bc4, monkeypatch):
    # both monadic-congruence laws read the congruence masks the algebra object
    # keeps and the one monadic mask of each pair context: on bc4, 4 congruences
    # and 2 pairs make one mask table, two monadic masks and no leader test
    alg = bc4._replace()
    built, tested = Counter(), Counter()
    for name in ("_congruence_masks", "_monadic_mask"):
        monkeypatch.setattr(laws_module, name, lambda ctx, real=getattr(laws_module, name),
                            name=name: built.update([name]) or real(ctx))
    real = deduction_module._disagreement

    def counted(cls, links, tables=(), maps=()):
        if maps:        # a leader test under the pair's forall map
            tested[maps, cls] += 1
        return real(cls, links, tables, maps)

    monkeypatch.setattr(deduction_module, "_disagreement", counted)
    pairs = enumerate_mop(alg)
    verdicts = verify_suite(alg, pairs, law_ids=["P6.monadic_con_one_class",
                                                 "P6.commutative_exists_cong"])
    assert [v.status for v in verdicts] == [HOLDS] * 4
    assert len(pairs) == 2 and len(enumerate_congruences(alg)) == 4
    assert built == {"_congruence_masks": 1, "_monadic_mask": 2} and not tested
    ctx = Ctx(alg).with_pair(pairs[0])
    assert ctx.EQ is ctx.with_pair(pairs[1]).EQ is Ctx(alg).EQ
    assert Ctx(alg._replace()).EQ is not ctx.EQ and built["_congruence_masks"] == 2
    assert ctx.MON == ctx.MON and built["_monadic_mask"] == 3
    assert ctx.with_pair(pairs[0]).MON == ctx.MON and built["_monadic_mask"] == 4


@pytest.mark.parametrize("law_id, max_size, scanner", [
    ("AX.psbck6_antisym", 3, "check_pseudo_be"),
    ("P3.isotone_unconditional", 4, "enumerate_mop"),
])
def test_counterexample_recheck_scans_again(law_id, max_size, scanner, monkeypatch):
    # the re-check runs on a copy of the found algebra, which keeps
    # nothing of what the scan computed on it
    calls = count_scans(monkeypatch)
    alg = search_counterexample(SearchSpec(law=law_id, max_size=max_size)).found[0]
    found = {key: count for key, count in calls.items() if key[:3] == (scanner, alg.arrow, alg.squig)}
    assert list(found.values()) == [2]


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_hypotheses_read_no_pair(alg):
    report = Ctx(alg).report
    pairs = enumerate_mop(alg)
    for law in catalog():
        assert type(law.hypothesis) is tuple, law.id
        assert all(type(name) is str for name in law.hypothesis), law.id
        want = report.unmet(law.hypothesis) is None
        for pair in pairs:
            ctx = Ctx(alg).with_pair(pair)
            assert ctx.applies(law.hypothesis) == want, law.id


@pytest.mark.parametrize("law_id", ["P4.meet_join_equiv", "P5.meet_forall"])
def test_search_lists_pairs_only_where_the_hypothesis_holds(law_id, monkeypatch):
    listed = Counter()
    real = quantifiers_module.enumerate_mop

    def counted(alg, *args):
        listed[alg.arrow, alg.squig] += 1
        return real(alg, *args)

    monkeypatch.setattr(quantifiers_module, "enumerate_mop", counted)
    result = search_counterexample(SearchSpec(law=law_id, max_size=3))
    assert result.found is None and result.exhausted
    law = laws_module._law_by_id()[law_id]
    models = [model_algebra(n, arrow, squig) for n in (2, 3)
              for _, arrow, squig in laws_module._models(n)
              if laws_module._is_canonical(n, arrow, squig)]    # the least of each class
    holds = Counter((m.arrow, m.squig) for m in models
                    if Ctx(m).report.unmet(law.hypothesis) is None)
    assert 0 < len(holds) < len(models)     # the hypothesis fails somewhere
    assert listed == holds

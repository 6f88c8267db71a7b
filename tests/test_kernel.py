"""The compiled scan kernel, `classify.first_failure` and its mask mode
`first_failing_bit`, against the plain scanner of conftest, and its
whitelist; `verify_suite`'s fused scans
(`classify.first_failures`) against the laws evaluated one at a time.

The reference scanner makes each check expression a predicate and calls
it once per tuple of `itertools.product`; it shares nothing with the
kernel but the expression text.  With it patched in wherever the package
binds the kernel, every law, flag and monadic check must give the same
status, witness and instance count.  `verify_suite` scans each context
once per arity, its laws in one loop with hoisted reads; evaluated one
law at a time on a fresh context, each law is scanned alone by
`first_failure`, and every verdict must be the same.
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from psbe.algebra import UnaryMap
from psbe.classify import (InvariantViolated, Verdict, classify, expression, first_failing_bit,
                           first_failure, first_failure_of, first_failures)
from psbe.cli import run
from psbe.laws import Ctx, _models, catalog, evaluate_law, verify_suite
from psbe.quantifiers import (MonadicPair, build_from_sigma, build_from_tau, check_monadic,
                              check_mv_quantifier, declared_pairs, enumerate_mop)

from conftest import (EVERY_LAW, FIXTURE_NAMES, assert_generated_ds_matches_references,
                      fixture_path, load, model_algebra, predicate, reference_first_failing_bit,
                      reference_first_failure, reference_first_failure_of, scanned_parts,
                      times_c2)
from test_law_pin import with_least_zero
from test_quantifiers import MODES, times_c2_pair

classify_module = importlib.import_module("psbe.classify")
laws_module = importlib.import_module("psbe.laws")
KERNEL = {first_failure: reference_first_failure, first_failure_of: reference_first_failure_of,
          first_failing_bit: reference_first_failing_bit}


def reference_scanner(monkeypatch):
    """Rebind every binding of the kernel in the package to the reference."""
    for name, module in list(sys.modules.items()):
        if name == "psbe" or name.startswith("psbe."):
            for attr, value in list(vars(module).items()):
                for kernel, reference in KERNEL.items():
                    if value is kernel:
                        monkeypatch.setattr(module, attr, reference)


def both(monkeypatch, run):
    """run() by the kernel, then by the reference scanner."""
    kernel = run()
    with monkeypatch.context() as patch:
        reference_scanner(patch)
        reference = run()
    return kernel, reference


def outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:        # e.g. a law reading an undefined table
        return "raised", type(exc).__name__, str(exc)


def law_outcomes(alg, pairs):
    """Every law of the catalog, probes included, on a fresh copy of alg:
    once without a pair and once per pair for the laws that read one."""
    alg = alg._replace()
    base = Ctx(alg)
    ctxs = [base.with_pair(pair) for pair in pairs]
    return [[outcome(evaluate_law, law, ctx) for ctx in (ctxs if law.uses_pair else [base])]
            for law in catalog()]


# every labelled pseudo BE-algebra with n <= 3 (1 = element 0); SMALL adds the fixtures
MODELS = [model_algebra(n, arrow, squig) for n in (1, 2, 3) for _, arrow, squig in _models(n)]
SMALL = [*(pytest.param(load(name), id=name) for name in FIXTURE_NAMES),
         *(pytest.param(alg, id=f"m{alg.size}-{i}") for i, alg in enumerate(MODELS))]
SUITE_INPUTS = [
    *(pytest.param(load(name), "declared and mop", id=name) for name in FIXTURE_NAMES),
    *(pytest.param(with_least_zero(times_c2(load(name))), name, id=f"{name}xC2")
      for name in ("bc4", "psbe4")),
    *(pytest.param(alg, "mop", id=f"m{alg.size}-{i}") for i, alg in enumerate(MODELS)),
]


def suite_pairs(alg, which):
    if which == "mop":
        return enumerate_mop(alg)
    if which == "declared and mop":
        return [pair for _, pair in declared_pairs(alg)] + enumerate_mop(alg)
    return [times_c2_pair(pair) for pair in enumerate_mop(load(which))]


@pytest.mark.parametrize("alg, which", SUITE_INPUTS)
def test_every_law_matches_the_plain_scanner(alg, which, monkeypatch):
    pairs = suite_pairs(alg, which)
    kernel, reference = both(monkeypatch, lambda: law_outcomes(alg, pairs))
    assert kernel == reference


@pytest.mark.parametrize("alg", SMALL)
def test_every_flag_matches_the_plain_scanner(alg, monkeypatch):
    kernel, reference = both(monkeypatch, lambda: outcome(
        lambda: classify(alg._replace())[0].to_json()))
    assert kernel == reference


def monadic_outcomes(alg):
    """check_monadic of every pair of self-maps, in every mode."""
    maps = [UnaryMap(images) for images in product(range(alg.size), repeat=alg.size)]
    return [outcome(check_monadic, alg, MonadicPair(e, f), mode)
            for e in maps for f in maps for mode in MODES]


@pytest.mark.parametrize("alg", SMALL[len(FIXTURE_NAMES):])
def test_check_monadic_matches_the_plain_scanner_on_every_map_pair(alg, monkeypatch):
    kernel, reference = both(monkeypatch, lambda: monadic_outcomes(alg))
    assert kernel == reference


def test_the_scans_compared_fail_somewhere():
    # the differential covers failing branches, not only holding ones
    laws = {v.status for alg in MODELS for row in law_outcomes(alg, enumerate_mop(alg))
            for v in row if isinstance(v, Verdict)}
    monadic = {v.status for alg in MODELS for v in monadic_outcomes(alg) if v[0] != "raised"}
    assert laws == {"holds", "fails", "not_applicable"} and monadic == {"holds", "fails"}


# ------------------------------------------- verify_suite's fused scans

def one_law_at_a_time(alg, pairs, monkeypatch):
    """verify_suite(alg, pairs, law_ids=EVERY_LAW) as evaluate_law gives
    it law by law on fresh contexts, where nothing is registered, so that
    each pointwise law is scanned alone by first_failure."""
    base = Ctx(alg)
    ctxs = [base.with_pair(pair) for pair in pairs]
    with monkeypatch.context() as patch:
        patch.setattr(laws_module, "first_failures", None)     # not called here
        return [evaluate_law(law, ctx) for law in catalog()
                for ctx in (ctxs if law.uses_pair else [base])]


def zero_declared(alg, which):      # the Ctx.zero defect is out of scope here
    return with_least_zero(alg) if which == "mop" else alg


@pytest.mark.parametrize("alg, which", SUITE_INPUTS)
def test_verify_suite_matches_one_law_at_a_time(alg, which, monkeypatch):
    alg = zero_declared(alg, which)
    pairs = suite_pairs(alg, which)
    fused = verify_suite(alg, pairs, law_ids=EVERY_LAW)
    assert fused == one_law_at_a_time(alg, pairs, monkeypatch)


def test_the_fused_comparison_meets_a_law_failing_at_several_tuples():
    # where a law fails more than once, dropping the failed-law guard
    # would report its last failure: psbe5 is among the inputs compared
    alg = load("psbe5")
    law = next(law for law in catalog() if law.id == "AX.psbck6_antisym")
    holds = predicate(law.arity, law.check, Ctx(alg))
    assert sum(not holds(*t) for t in product(range(alg.size), repeat=law.arity)) > 1


def scans_by_context(monkeypatch):
    """Spy on verify_suite's fused scans: (context, arity) per call."""
    calls = []

    def spy(n, arity, exprs, source):
        calls.append((id(source), arity))
        return first_failures(n, arity, exprs, source)
    monkeypatch.setattr(laws_module, "first_failures", spy)
    return calls


def test_verify_suite_scans_each_context_once_per_arity(monkeypatch):
    alg = load("bc4")
    pairs = enumerate_mop(alg)
    calls = scans_by_context(monkeypatch)
    verify_suite(alg, pairs)
    assert len(calls) == len(set(calls))
    assert len({ctx for ctx, _ in calls}) == 1 + len(pairs)
    # nothing is kept across calls: a second call scans as much again
    first = len(calls)
    verify_suite(alg, pairs)
    assert len(calls) == 2 * first


def test_a_law_ids_subset_reads_the_same_verdicts():
    alg = load("psbe5")
    pairs = enumerate_mop(alg)
    full = verify_suite(alg, pairs)
    ids = ["P3.forall_arrow", "BE.exchange", "P6.ds_upward", "P3.exists_idem"]
    assert verify_suite(alg, pairs, law_ids=ids) == [v for v in full if v.name in ids]


# ------------------------------------------------------------ the kernel

TABLES = type("Tables", (), {"a": ((0, 1), (0, 0)), "one": 0})()


def test_witness_and_instances_follow_the_order_contract():
    checks = (("first", "a[x][y] == one or x > z"), ("second", "x != 1"))
    assert first_failure(2, 3, checks, TABLES) == ("first", (0, 1, 0), 3)
    assert first_failure(2, 1, (("unit", "x < 1"),), TABLES) == ("unit", (1,), 2)
    assert first_failure(2, 0, (("none", "one == 1"),), TABLES) == ("none", (), 1)
    assert first_failure(2, 2, (("fine", "{a[x][y], one} <= {0, 1}"),), TABLES) is None


def test_first_failures_is_first_failure_per_expression():
    exprs = ("a[x][y] == one or x > z", "x != 1", "a[y][x] == one", "x != 1", "one == 0 or z < 2")
    got = first_failures(2, 3, exprs, TABLES)
    assert list(got) == list(dict.fromkeys(exprs))
    for expr in exprs:
        assert got[expr] == first_failure(2, 3, ((expr, expr),), TABLES)


def test_a_fused_scan_reads_each_row_in_the_loop_that_binds_it():
    exprs = ("a[x][a[y][z]] == a[y][a[x][z]]", "a[y][z] != one or a[x][z] == one")
    first_failures(2, 3, exprs, TABLES)
    scan = classify_module._SCANS[3, exprs, "ranks"]
    text = next(key for key, value in classify_module._SCANS.items()
                if value is scan and isinstance(key, str))
    loops = text.split("for ")
    assert "_h0 = a[x]" in loops[1] and "= a[y]" in loops[2] and "= a[z]" not in text
    assert "_h0[z]" in loops[3] and "if _f0 and _f1: break" in text


MASKS = type("Masks", (), {"m": ((0, 6), (4, 1)), "low": 2})()


def test_a_mask_scan_gives_the_lowest_bit_and_where_it_is_first_set(monkeypatch):
    # bits 1 and 2 are set first, at (0, 1); bit 0 only later, at (1, 1)
    assert first_failing_bit(2, 2, "m[x][y]", MASKS) == (0, (1, 1))
    assert first_failing_bit(2, 2, "m[x][y] & ~1", MASKS) == (1, (0, 1))
    assert first_failing_bit(2, 1, "m[x][x] & low", MASKS) is None
    assert first_failing_bit(2, 2, "m[y][x] ^ m[x][y] | low", MASKS) == (1, (0, 0))
    # kept by its expression, as a check group is: a second scan builds nothing
    monkeypatch.setattr(classify_module, "_scan", None)
    assert first_failing_bit(2, 2, "m[x][y]", MASKS) == (0, (1, 1))
    assert classify_module._SCANS[2, ("m[x][y]",), "masks"].tables == ("m",)


def test_a_scan_is_compiled_once_per_text():
    expr = "a[x][x] == one and x in {0, 1}"
    first_failure(2, 1, (("A", expr),), TABLES)
    first_failure(2, 1, (("B", expr),), TABLES)
    scans = classify_module._SCANS
    assert scans[1, (("A", expr),)] is scans[1, (("B", expr),)]
    assert scans[1, (("A", expr),)].tables == ("a", "one")


@pytest.mark.parametrize("expr", [
    "a.count(x) == 1",                      # attribute access
    "abs(x) == one",                        # calls
    "max(a[x]) == one",
    "len(a) == 2",
    "len(lambda: 0) == 0",                  # a lambda
    "len([v for v in a]) == 2",             # comprehensions
    "len({v for v in a}) == 2",
    "len(list(v for v in a)) == 2",
    "__import__('os') == one",
    "a[x][y] == 'one'",                     # constants other than integers
    "a[x][x] == True",
    "_r == one",                            # names the scan function keeps
    "a[x][z] == one",                       # a variable beyond the arity
    "a[x][y:] == one",                      # slices, tuples, arithmetic
    "a[x, y] == one",
    "a[x][y] + 1 == one",
    "(v := one) == one",
    "a[x][y] is one",
    "a[x][y] & 1 == one",                   # bitwise operators, outside a mask scan
    "~a[x][y] == one",
])
def test_the_whitelist_rejects_before_anything_is_compiled(expr, monkeypatch):
    calls = []

    def parse_only(source, filename, mode, flags=0, *args):
        calls.append(flags)
        return compile(source, filename, mode, flags, *args)

    monkeypatch.setattr(classify_module, "compile", parse_only, raising=False)
    monkeypatch.setattr(classify_module, "exec", lambda *args: calls.append("exec"),
                        raising=False)
    scans = dict(classify_module._SCANS)
    with pytest.raises(InvariantViolated, match="is not allowed in the scan expression"):
        first_failure(2, 2, (("ok", "a[x][y] == one"), ("bad", expr)), TABLES)
    with pytest.raises(InvariantViolated, match="is not allowed in the scan expression"):
        first_failures(2, 2, ("a[x][y] == one", expr), TABLES)
    assert calls and all(flags == classify_module._ast.PyCF_ONLY_AST for flags in calls)
    assert classify_module._SCANS == scans


@pytest.mark.parametrize("expr", ["a[x][y] + 1", "a[x][y] << 1", "-a[x][y]", "len(a) & 1"])
def test_a_mask_scan_admits_only_the_bitwise_operators(expr):
    scans = dict(classify_module._SCANS)
    with pytest.raises(InvariantViolated, match="is not allowed in the scan expression"):
        first_failing_bit(2, 2, expr, TABLES)
    assert classify_module._SCANS == scans


def test_no_scan_is_compiled_at_import_or_by_the_catalog():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, psbe; psbe.catalog(); "
            "print(len(sys.modules['psbe.classify']._SCANS), 'ast' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out.split() == ["0", "False"]


# the one scan that is not a formula: psBCK6 compares element indices
NOT_FORMULAS = {"y >= x or arrow[y][x] != one or arrow[x][y] != one"}


def test_every_scan_is_a_compiled_formula(monkeypatch):
    scanned, scan = set(), classify_module._scan

    def spy(arity, checks, mode=None):
        scanned.update(checks if mode else [expr for _, expr in checks])
        return scan(arity, checks, mode)
    monkeypatch.setattr(classify_module, "_SCANS", {})      # so that every group is scanned anew
    monkeypatch.setattr(classify_module, "_scan", spy)
    for name in FIXTURE_NAMES:
        for argv in (["check"], *(["mop", "--mode", mode] for mode in MODES), ["ds"], ["verify"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                run([argv[0], str(fixture_path(name)), *argv[1:], "--text"])
    bc4 = load("bc4")
    for pair in enumerate_mop(bc4):
        build_from_tau(bc4, pair.forall)
        build_from_sigma(bc4, pair.exists)
        for kind, m in (("universal", pair.forall), ("existential", pair.exists)):
            check_mv_quantifier(bc4, m, kind)
    formulas = {expression(part, masks=part[0].startswith("for every"))
                for tree, *_ in classify_module._FORMULAS.values() for part in scanned_parts(tree)}
    assert scanned - formulas == NOT_FORMULAS


# ------------------------- generated_ds, read off the kept list of systems

@pytest.mark.parametrize("alg", SMALL)
def test_least_ds_is_the_generated_ds(alg):
    # the lookup P6.monadic_ds_generated reads, against the subset scan
    assert_generated_ds_matches_references(alg)

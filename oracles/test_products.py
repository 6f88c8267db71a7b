"""Differential oracles on larger direct products of the fixtures.

The partition scan cannot reach these carriers (Bell(16) is about
10^10), so `enumerate_congruences` is compared with the union-find
closure it replaced, and the counts are pinned.  The monadic pairs of
psbe5×C2 and inv6×C2 are pinned as the product-and-filter join listed
them (0.4 s and 28 s on CPython 3.11); psbe4×C2 is compared with the
cross-product reference, which takes about 4 s there.  The n = 36
reference takes about a second.  `enumerate_ds` is compared with the
subset scan on bc4×bc4 and psbe5×psbe4 (2^15 and 2^19 subsets, about
0.3 s and 5 s); inv6×inv6 (2^35) is out of the scan's reach, so its
counts are pinned, with its deductive systems, congruences and monadic
pairs listed in under 0.5 s together.  The monadic pairs of bc4×bc4 and
psbe5×psbe4 (15 and 603) are pinned, keyed by product, both
recorded while `enumerate_mop` still re-checked each pair with
`check_monadic`, and every pair of both passes `check_monadic` (about
0.6 s).  The classification of bc4×bc4 and inv6×inv6, pseudo-product,
meet and join tables included, is compared with the eager one-pass
classification, whose tables scan candidate lists cell by cell (about
0.6 s together), and their pair counts in each mode are pinned.
`verify_suite` over psbe5×psbe4 and its 603 pairs (34,400 verdicts, about
0.4 s) is compared with `evaluate_law` one law at a time on fresh
contexts, and its verdicts are pinned by law id:

    PYTHONPATH=src python -m pytest oracles
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import EVERY_LAW, assert_pinned, by_law, direct_product, load, scan_ds, times_c2
from test_classify import assert_matches_eager
from test_deduction import unionfind_congruences
from test_kernel import one_law_at_a_time
from test_quantifiers import cross_product_mop, times_c2_pair

from psbe.algebra import UnaryMap
from psbe.classify import HOLDS
from psbe.deduction import enumerate_congruences, enumerate_ds, is_compatible
from psbe.laws import verify_suite
from psbe.quantifiers import MonadicPair, check_monadic, declared_pairs, enumerate_mop


@pytest.mark.parametrize("left, right, count", [("bc4", "bc4", 16),
                                                ("psbe5", "psbe4", 46),
                                                ("inv6", "inv6", 4)])
def test_product_congruences_match_unionfind(left, right, count):
    alg = direct_product(load(left), load(right))
    congs = enumerate_congruences(alg)
    assert congs == unionfind_congruences(alg)
    assert len(congs) == count
    assert all(is_compatible(alg, c) is None for c in congs)


@pytest.mark.parametrize("left, right", [("bc4", "bc4"), ("inv6", "inv6")])
def test_product_classification_matches_eager(left, right):
    assert_matches_eager(direct_product(load(left), load(right)))


@pytest.mark.parametrize("left, right, count", [("bc4", "bc4", 16),
                                                ("psbe5", "psbe4", 8)])
def test_product_ds_match_subset_scan(left, right, count):
    alg = direct_product(load(left), load(right))
    systems = enumerate_ds(alg)
    assert systems == scan_ds(alg)
    assert len(systems) == count


def test_inv6_squared_structure_is_pinned():
    alg = direct_product(load("inv6"), load("inv6"))
    t0 = time.perf_counter()
    systems, congs, pairs = enumerate_ds(alg), enumerate_congruences(alg), enumerate_mop(alg)
    assert time.perf_counter() - t0 < 0.5
    assert (len(systems), len(congs), len(pairs)) == (16, 4, 5)


# (exists, forall) images, in enumerate_mop's order
PRODUCT_MOP = {
    "psbe5": [
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ((0, 1, 2, 3, 6, 7, 6, 7, 8, 9), (0, 1, 2, 3, 6, 7, 6, 7, 8, 9)),
        ((0, 1, 8, 9, 4, 5, 6, 7, 8, 9), (0, 1, 8, 9, 4, 5, 6, 7, 8, 9)),
        ((0, 1, 8, 9, 6, 7, 6, 7, 8, 9), (0, 1, 8, 9, 6, 7, 6, 7, 8, 9)),
    ],
    "inv6": [
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
         (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
        ((0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 10, 11),
         (0, 1, 10, 11, 10, 11, 10, 11, 10, 11, 10, 11)),
        ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11),
         (0, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11)),
    ],
}


@pytest.mark.parametrize("left, right, counts", [("bc4", "bc4", (15, 15, 15)),
                                                 ("inv6", "inv6", (5, 1, 5))])
def test_product_mop_counts_per_mode(left, right, counts):
    alg = direct_product(load(left), load(right))
    assert tuple(len(enumerate_mop(alg, mode)) for mode in ("plain", "bc", "hoop")) == counts


def test_psbe4_product_mop_matches_cross_product():
    alg = times_c2(load("psbe4"))
    assert enumerate_mop(alg) == cross_product_mop(alg)


@pytest.mark.parametrize("name", sorted(PRODUCT_MOP))
def test_product_mop_is_pinned(name):
    factor = load(name)
    pairs = enumerate_mop(times_c2(factor))
    assert pairs == [MonadicPair(UnaryMap(e), UnaryMap(f))
                     for e, f in PRODUCT_MOP[name]]
    for _, pair in declared_pairs(factor):
        assert times_c2_pair(pair) in pairs


def test_product_mop_list_is_pinned():
    # each list in enumerate_mop's order, keyed by the product's name
    lists = {}
    for left, right in (("bc4", "bc4"), ("psbe5", "psbe4")):
        alg = direct_product(load(left), load(right))
        pairs = enumerate_mop(alg)
        assert all(check_monadic(alg, p).status == HOLDS for p in pairs)
        lists[alg.name] = [[p.exists.images, p.forall.images] for p in pairs]
    assert_pinned("product_mop_lists", lists)


def test_many_pair_suite_matches_one_law_at_a_time(monkeypatch):
    alg = direct_product(load("psbe5"), load("psbe4"))
    pairs = enumerate_mop(alg)
    verdicts = verify_suite(alg, pairs, law_ids=EVERY_LAW)
    assert (len(pairs), len(verdicts)) == (603, 34400)
    assert_pinned("many_pair_suite", by_law(alg, verdicts))
    assert verdicts == one_law_at_a_time(alg._replace(), pairs, monkeypatch)

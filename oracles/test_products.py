"""Differential oracles on larger direct products of the fixtures.

The partition scan cannot reach these carriers (Bell(16) is about
10^10), so `enumerate_congruences` is compared with the union-find
closure it replaced, and the counts are pinned.  The monadic pairs of
psbe5×C2 and inv6×C2 are pinned as the product-and-filter join listed
them (0.4 s and 28 s on CPython 3.11); psbe4×C2 is compared with the
cross-product reference, which takes about 4 s there.  The n = 36
reference takes about a second:

    PYTHONPATH=src python -m pytest oracles
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import direct_product, load, times_c2
from test_deduction import unionfind_congruences
from test_quantifiers import cross_product_mop, times_c2_pair

from psbe.algebra import UnaryMap
from psbe.deduction import enumerate_congruences, is_compatible
from psbe.quantifiers import MonadicPair, declared_pairs, enumerate_mop


@pytest.mark.parametrize("left, right, count", [("bc4", "bc4", 16),
                                                ("psbe5", "psbe4", 46),
                                                ("inv6", "inv6", 4)])
def test_product_congruences_match_unionfind(left, right, count):
    alg = direct_product(load(left), load(right))
    congs = enumerate_congruences(alg)
    assert congs == unionfind_congruences(alg)
    assert len(congs) == count
    assert all(is_compatible(alg, c) is None for c in congs)


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

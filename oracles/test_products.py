"""Differential oracles on larger direct products of the fixtures.

The partition scan cannot reach these carriers (Bell(16) is about
10^10), so `enumerate_congruences` is compared with the union-find
closure it replaced, and the counts are pinned.  The n = 36 reference
takes about a second:

    PYTHONPATH=src python -m pytest oracles
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import direct_product, load
from test_deduction import unionfind_congruences

from psbe.deduction import enumerate_congruences, is_compatible


@pytest.mark.parametrize("left, right, count", [("bc4", "bc4", 16),
                                                ("psbe5", "psbe4", 46),
                                                ("inv6", "inv6", 4)])
def test_product_congruences_match_unionfind(left, right, count):
    alg = direct_product(load(left), load(right))
    congs = enumerate_congruences(alg)
    assert congs == unionfind_congruences(alg)
    assert len(congs) == count
    assert all(is_compatible(alg, c) is None for c in congs)

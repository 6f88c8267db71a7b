"""Differential oracles on every labelled pseudo BE-algebra of size 4.

Too slow for the tier-1 suite (the brute-force list of the 388 models
scans 16.8M table pairs; it is built once), so they live outside its
`testpaths`:

    PYTHONPATH=src python -m pytest oracles

The references are the tier-1 ones: the brute-force scan for `_models`
and `search_counterexample`, the candidate cross product for
`enumerate_mop` and the Bell(n) partition scan for
`enumerate_congruences`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import brute_models, brute_search, model_algebra, search_outcome
from test_deduction import scan_congruences
from test_quantifiers import MODES, cross_product_mop, outcome

from psbe.deduction import enumerate_congruences
from psbe.laws import SearchSpec, _models, search_counterexample
from psbe.quantifiers import enumerate_mop

RANKED = brute_models(4)
MODELS = [model_algebra(4, arrow, squig, "m4") for _, arrow, squig in RANKED]
N4 = [pytest.param(alg, id=f"m4-{i}") for i, alg in enumerate(MODELS)]


def test_labelled_model_count():
    assert len(MODELS) == 388


def test_models_match_brute_scan():
    assert list(_models(4)) == RANKED


@pytest.mark.parametrize("law_id", ["P3.isotone_unconditional",
                                    "AX.psbck6_antisym",
                                    "P6.monadic_con_one_class"])
def test_search_matches_brute_force(law_id):
    spec = SearchSpec(law=law_id, min_size=4, max_size=4)
    assert (search_outcome(search_counterexample, spec)
            == search_outcome(lambda s: brute_search(s, lambda n: RANKED),
                              spec))


@pytest.mark.parametrize("alg", N4)
def test_enumerate_mop_matches_cross_product(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode


@pytest.mark.parametrize("alg", N4)
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)

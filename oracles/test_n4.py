"""Differential oracles on every labelled pseudo BE-algebra of size 4
(and, for `enumerate_mop`, on the first 300 of size 5).

Too slow for the tier-1 suite (the brute-force list of the 388 models
scans 16.8M table pairs; it is built once), so they live outside its
`testpaths`:

    PYTHONPATH=src python -m pytest oracles

The references are the tier-1 ones: the brute-force scan for `_models`
and `search_counterexample`, the candidate cross product for
`enumerate_mop`, the Bell(n) partition scan for `enumerate_congruences`
and the eager one-pass classification for `classify`.
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import brute_models, brute_search, model_algebra, search_outcome
from test_classify import assert_matches_eager
from test_deduction import scan_congruences
from test_law_pin import digest, with_least_zero
from test_quantifiers import MODES, cross_product_mop, outcome

from psbe.deduction import enumerate_congruences
from psbe.laws import SearchSpec, _models, search_counterexample, verify_suite
from psbe.quantifiers import enumerate_mop

# sha256 over verify_suite(include_probes=True) on every model with its
# monadic pairs, the least element declared as zero where there is one
VERDICT_DIGEST = "d520e371f571fc9d82ff049925f98973dc9fdd7aa3c36b1f59b610ca24171bde"

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


def test_suite_verdicts_are_pinned():
    verdicts = []
    for alg in map(with_least_zero, MODELS):
        verdicts.append([v.to_json(alg) for v in verify_suite(
            alg, enumerate_mop(alg), include_probes=True)])
    assert digest(verdicts) == VERDICT_DIGEST


@pytest.mark.parametrize("alg", N4)
def test_enumerate_mop_matches_cross_product(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode


@pytest.mark.parametrize("alg", N4)
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)


@pytest.mark.parametrize("alg", N4)
def test_classify_matches_eager(alg):
    assert_matches_eager(alg)


# the carrier size of the per-model audit: the first models in scan order
N5 = [pytest.param(model_algebra(5, arrow, squig, "m5"), id=f"m5-{rank}")
      for rank, arrow, squig in islice(_models(5), 300)]


@pytest.mark.parametrize("alg", N5)
def test_enumerate_mop_matches_cross_product_n5(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode

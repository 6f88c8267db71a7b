"""Differential oracles on every labelled pseudo BE-algebra of size 4
(and, for `enumerate_mop`, on the first 300 of size 5), and the n = 5 file
of the class library regenerated from `_models(5)`, every labelled model
psBE-checked.

Too slow for the tier-1 suite (the brute-force list of the 388 models
scans 16.8M table pairs; it is built once), so they live outside its
`testpaths`:

    PYTHONPATH=src python -m pytest oracles

The references are the tier-1 ones: the brute-force scan for `_models`
and for `search_counterexample` (every law, every labelled model
evaluated), the candidate cross product for `enumerate_mop`, the
Bell(n) partition scan for `enumerate_congruences`, the subset scan for
`enumerate_ds` and for `generated_ds` (the system
that P6.monadic_ds_generated reads off the list of systems) and the
eager one-pass classification for `classify`; `verify_suite`'s fused
scans are checked against the laws evaluated one at a time.  The duality
tests of `tests/test_duality.py` run on every model with its monadic pairs.
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import (EVERY_LAW, assert_generated_ds_matches_references, assert_library,
                      assert_pinned, brute_models, brute_search, by_law, keyed, model_algebra,
                      scan_ds, search_outcome)
from test_classify import assert_matches_eager
from test_deduction import scan_congruences
from test_duality import (assert_flags_dual, assert_laws_dual, assert_structure_dual,
                          assert_tables_dual, assert_written_once_closed, duality_orbits)
from test_kernel import one_law_at_a_time
from test_law_pin import applicability, with_least_zero
from test_quantifiers import MODES, cross_product_mop, outcome

from psbe.deduction import enumerate_congruences, enumerate_ds
from psbe.laws import SearchSpec, _models, search_counterexample, verify_suite
from psbe.quantifiers import enumerate_mop

RANKED = brute_models(4)
MODELS = [model_algebra(4, arrow, squig, "m4") for _, arrow, squig in RANKED]
N4 = [pytest.param(alg, id=f"m4-{i}") for i, alg in enumerate(MODELS)]


def test_labelled_model_count():
    assert len(MODELS) == 388


def test_models_match_brute_scan():
    assert list(_models(4)) == RANKED


@pytest.mark.parametrize("law_id", EVERY_LAW)
def test_search_matches_brute_force(law_id):
    # the search evaluates the least model of each isomorphism class, the
    # reference every labelled model: the 388 at n = 4, none skipped
    spec = SearchSpec(law=law_id, max_size=4)
    assert (search_outcome(search_counterexample, spec)
            == search_outcome(lambda s: brute_search(
                s, lambda n: RANKED if n == 4 else brute_models(n)), spec))


def test_suite_verdicts_are_pinned():
    # verify_suite(law_ids=EVERY_LAW) on every model with its monadic pairs,
    # the least element declared as zero where there is one, keyed by law id
    assert_pinned("n4_verdicts", keyed(by_law(alg, verify_suite(
        alg, enumerate_mop(alg), law_ids=EVERY_LAW)) for alg in map(with_least_zero, MODELS)))


def test_applicability_is_pinned():
    assert_pinned("n4_applicability", keyed(applicability(with_least_zero(alg)) for alg in MODELS))


@pytest.mark.parametrize("alg", N4)
def test_verify_suite_matches_one_law_at_a_time(alg, monkeypatch):
    alg = with_least_zero(alg)
    pairs = enumerate_mop(alg)
    assert (verify_suite(alg, pairs, law_ids=EVERY_LAW)
            == one_law_at_a_time(alg, pairs, monkeypatch))


@pytest.mark.parametrize("alg", N4)
def test_enumerate_mop_matches_cross_product(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode


@pytest.mark.parametrize("alg", N4)
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)


@pytest.mark.parametrize("alg", N4)
def test_enumerate_ds_matches_subset_scan(alg):
    assert enumerate_ds(alg) == scan_ds(alg)


@pytest.mark.parametrize("alg", N4)
def test_classify_matches_eager(alg):
    assert_matches_eager(alg)


@pytest.mark.parametrize("alg", N4)
def test_least_ds_is_the_generated_ds(alg):
    assert_generated_ds_matches_references(alg)


def test_duality_orbit_count():
    # 77 classes up to isomorphism fixing 1; 12 pairs of them are each
    # other's duals, the other 53 are self-dual up to isomorphism
    assert duality_orbits(4) == (77, 65)


@pytest.mark.parametrize("alg", N4)
def test_duality(alg):
    alg = with_least_zero(alg)
    pairs = enumerate_mop(alg)
    assert_laws_dual(alg, pairs)
    assert_written_once_closed(alg, pairs)
    assert_flags_dual(alg)
    assert_structure_dual(alg)
    assert_tables_dual(alg)


# the carrier size of the per-model audit: the first models in scan order
N5 = [pytest.param(model_algebra(5, arrow, squig, "m5"), id=f"m5-{rank}")
      for rank, arrow, squig in islice(_models(5), 300)]


@pytest.mark.parametrize("alg", N5)
def test_enumerate_mop_matches_cross_product_n5(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode


def test_library_n5_regenerates():
    # the 221,729 labelled models of size 5 psBE-checked, the 9,698 that
    # _is_canonical accepts written out and compared byte for byte
    assert_library(5)

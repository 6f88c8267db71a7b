"""Differential oracles on every labelled pseudo BE-algebra of size 4.

Too slow for the tier-1 suite (building the 388 models alone scans 16.8M
table pairs), so they live outside its `testpaths`:

    PYTHONPATH=src python -m pytest oracles

The references are the tier-1 ones: the candidate cross product for
`enumerate_mop` and the Bell(n) partition scan for
`enumerate_congruences`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import labelled_models
from test_deduction import scan_congruences
from test_quantifiers import MODES, cross_product_mop, outcome

from psbe.deduction import enumerate_congruences
from psbe.quantifiers import enumerate_mop

MODELS = labelled_models(4)
N4 = [pytest.param(alg, id=f"m4-{i}") for i, alg in enumerate(MODELS)]


def test_labelled_model_count():
    assert len(MODELS) == 388


@pytest.mark.parametrize("alg", N4)
def test_enumerate_mop_matches_cross_product(alg):
    for mode in MODES:
        assert (outcome(enumerate_mop, alg, mode)
                == outcome(cross_product_mop, alg, mode)), mode


@pytest.mark.parametrize("alg", N4)
def test_enumerate_congruences_matches_partition_scan(alg):
    assert enumerate_congruences(alg) == scan_congruences(alg)

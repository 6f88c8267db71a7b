"""The shipped library of small pseudo BE-algebras, `src/psbe/classes/<n>.txt`,
which `search_counterexample` reads: one line per isomorphism class, its least
labelled model's free cells as base-n digits.  n <= 4 is regenerated here from
`_models` and `_is_canonical`; n = 5 in `oracles/`, as it takes about a minute."""

import pytest

from psbe.laws import _class_lines, _classes, _is_canonical, _models, free_cells

from conftest import _psbe4_psbe5_ok, assert_library


@pytest.mark.parametrize("n", [2, 3, 4])
def test_library_regenerates(n):
    assert_library(n)


def test_class_counts():
    assert [len(_class_lines(n)) for n in (2, 3, 4, 5)] == [1, 4, 77, 9698]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lines_are_free_cell_digits_in_rank_order(n):
    lines = _class_lines(n)
    assert all(len(line) == 2 * len(free_cells(n)) == 2 * (n - 1) * (n - 2)
               and set(line) <= set("01234"[:n]) for line in lines)
    ranks = [rank for rank, _, _ in _classes(n)]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classes_are_the_canonical_models(n):
    # what the search evaluated before the library: the models of the scan
    # that _is_canonical accepts, ranks, forced cells and all
    assert list(_classes(n)) == [m for m in _models(n) if _is_canonical(n, *m[1:])]


def test_every_n5_class_is_a_least_pseudo_be_model():
    # generates nothing: the 9,698 lines decoded and checked in well under a second
    for _, arrow, squig in _classes(5):
        assert _psbe4_psbe5_ok(5, arrow, squig) and _is_canonical(5, arrow, squig), (arrow, squig)

"""The shipped library of small pseudo BE-algebras, which `search_counterexample`
reads: `src/psbe/classes/<n>.txt` has one line per isomorphism class, its least
labelled model's free cells as base-n digits, and `<n>.structures` the same
class's monadic pairs, deductive systems and congruences on the same line.
n <= 4 is regenerated here from `_models` and `_is_canonical` and from the
enumerators; n = 5 in `oracles/`, as it takes about a minute."""

import ast
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

from psbe.laws import _class_lines, _classes, _is_canonical, _models, free_cells

from conftest import CLASSES, _psbe4_psbe5_ok, assert_library, assert_structures


@pytest.mark.parametrize("n", [2, 3, 4])
def test_library_regenerates(n):
    assert_library(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structures_regenerate(n):
    assert_structures(n)


def test_structure_counts():
    # read from the files alone: the plain monadic pairs, deductive systems
    # and congruences of every class, summed per size, one line per class
    lines = {n: _class_lines(n, "structures") for n in (2, 3, 4, 5)}
    assert [len(lines[n]) for n in lines] == [len(_class_lines(n)) for n in lines]
    counts = [[sum(len(line.split(";")[field].split(",")) for line in lines[n]) for n in lines]
              for field in range(3)]
    assert counts == [[1, 8, 200, 21266], [2, 11, 222, 25743], [2, 12, 251, 29181]]


def test_every_library_file_is_package_data():
    # pyproject.toml's package-data globs, relative to src/psbe, cover each file
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    globs = ast.literal_eval(re.search(r"\[tool\.setuptools\.package-data\]\npsbe = (\[.*\])",
                                       pyproject).group(1))
    files = [f"classes/{path.name}" for path in CLASSES.iterdir()]
    assert files and all(any(fnmatch(f, glob) for glob in globs) for f in files), (files, globs)


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

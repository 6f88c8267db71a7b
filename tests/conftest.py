from itertools import product
from pathlib import Path

import pytest

import psbe
from psbe.algebra import FiniteAlgebra, load_algebra
from psbe.laws import _psbe4_psbe5_ok, _tables_from_cells, free_cells

FIXDIR = Path(psbe.__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("psbe4", "psbe5", "bc4", "inv6")


def fixture_path(name: str) -> Path:
    return FIXDIR / f"{name}.alg"


def load(name: str):
    return load_algebra(fixture_path(name))


@pytest.fixture(scope="session")
def psbe4():
    return load("psbe4")


@pytest.fixture(scope="session")
def psbe5():
    return load("psbe5")


@pytest.fixture(scope="session")
def bc4():
    return load("bc4")


@pytest.fixture(scope="session")
def inv6():
    return load("inv6")


@pytest.fixture(scope="session", params=FIXTURE_NAMES)
def any_fixture(request):
    return load(request.param)


def labelled_models(n):
    """Every pseudo BE-algebra on n labelled elements with 1 = element 0."""
    cells = free_cells(n)
    tables = [_tables_from_cells(n, cells, vals)
              for vals in product(range(n), repeat=len(cells))]
    return [FiniteAlgebra(f"m{n}", ("1",) + tuple(f"e{i}" for i in range(1, n)),
                          0, arrow, squig)
            for arrow, squig in product(tables, repeat=2)
            if _psbe4_psbe5_ok(n, arrow, squig)]


def times_c2(alg):
    """alg x C2, C2 = {1, 0}; element (x, y) has index 2x + y."""
    c2 = ((0, 1), (0, 0))
    cells = [(x, y) for x in alg.elements() for y in range(2)]

    def table(t):
        return tuple(tuple(2 * t[x][u] + c2[y][v] for u, v in cells)
                     for x, y in cells)

    return FiniteAlgebra(f"{alg.name}xC2",
                         tuple(f"{alg.element_names[x]}.{'10'[y]}" for x, y in cells),
                         2 * alg.one, table(alg.arrow), table(alg.squig))


# the differential oracles' inputs: the fixtures and every labelled
# pseudo BE-algebra of size 2 and 3
ORACLE_ALGEBRAS = [
    *(pytest.param(load(name), id=name) for name in FIXTURE_NAMES),
    *(pytest.param(alg, id=f"m{n}-{i}")
      for n in (2, 3) for i, alg in enumerate(labelled_models(n))),
]

from itertools import product
from pathlib import Path

import pytest

import psbe
from psbe.algebra import FiniteAlgebra, load_algebra
from psbe.laws import (BudgetExceeded, SearchResult, _is_canonical,
                       _law_counterexample, candidate_count, catalog,
                       free_cells)

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


# ------------------------------------------------ the brute-force search
# search_counterexample's reference: every candidate table pair is built
# and tested against psBE4/psBE5 whole.

def _tables_from_cells(n, cells, values):
    t = [[None] * n for _ in range(n)]
    for y in range(n):
        t[0][y] = y                 # 1 -> x = x
    for x in range(n):
        t[x][0] = 0                 # x -> 1 = 1
        t[x][x] = 0                 # x -> x = 1
    for (x, y), v in zip(cells, values):
        t[x][y] = v
    return tuple(tuple(r) for r in t)


def _psbe4_psbe5_ok(n, arrow, squig):
    for x in range(n):
        for y in range(n):
            if (arrow[x][y] == 0) != (squig[x][y] == 0):   # psBE5
                return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if arrow[x][squig[y][z]] != squig[y][arrow[x][z]]:  # psBE4
                    return False
    return True


def brute_pairs(n):
    """Every candidate (rank, arrow, squig) on n elements in scan order:
    arrow cell values lexicographic in `free_cells` order, then squig."""
    cells = free_cells(n)
    tables = [_tables_from_cells(n, cells, vals)
              for vals in product(range(n), repeat=len(cells))]
    for rank, (arrow, squig) in enumerate(product(tables, repeat=2), 1):
        yield rank, arrow, squig


def brute_models(n):
    """The ranked psBE table pairs among brute_pairs(n)."""
    return [(rank, arrow, squig) for rank, arrow, squig in brute_pairs(n)
            if _psbe4_psbe5_ok(n, arrow, squig)]


def model_algebra(n, arrow, squig, name=None):
    return FiniteAlgebra(name or f"search_{n}",
                         ("1",) + tuple(f"e{i}" for i in range(1, n)),
                         0, arrow, squig)


def labelled_models(n):
    """Every pseudo BE-algebra on n labelled elements with 1 = element 0."""
    return [model_algebra(n, arrow, squig, f"m{n}")
            for _, arrow, squig in brute_models(n)]


def brute_search(spec, pairs=brute_pairs):
    """search_counterexample by testing every candidate of pairs(n) in
    turn, the budget checked before each one.  `pairs` may leave out
    non-psBE candidates when no budget is set."""
    law = next(l for l in catalog() if l.id == spec.law)
    result = SearchResult(found=None)
    for n in range(spec.min_size, spec.max_size + 1):
        for rank, arrow, squig in pairs(n):
            if spec.budget is not None and result.visited + rank > spec.budget:
                result.visited_by_size[n] = rank
                raise BudgetExceeded(result)
            if not _psbe4_psbe5_ok(n, arrow, squig):
                continue
            if spec.iso_reject and not _is_canonical(n, arrow, squig):
                continue
            hit = _law_counterexample(law, model_algebra(n, arrow, squig), spec)
            if hit is not None:
                result.visited_by_size[n] = rank
                result.found = hit
                return result
        result.visited_by_size[n] = candidate_count(n) ** 2
    result.exhausted = True
    return result


def search_outcome(search, spec):
    """A search's result, its BudgetExceeded result or the exception it
    raised, as comparable data."""
    try:
        result, raised = search(spec), False
    except BudgetExceeded as exc:
        result, raised = exc.result, True
    except Exception as exc:        # e.g. a law that cannot be evaluated
        return type(exc), str(exc)
    found = result.found
    if found is not None:
        alg, pair, witness = found
        found = (alg.arrow, alg.squig, pair, witness)
    return raised, found, result.visited_by_size, result.exhausted


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

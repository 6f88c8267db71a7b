import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import psbe.laws
from psbe.algebra import PreconditionUnmet
from psbe.classify import FAILS, ClassificationReport, InvariantViolated, check_pseudo_bck
from psbe.laws import (Ctx, SearchSpec, _is_canonical,
                       _models, candidate_count, catalog, evaluate_law,
                       free_cells, search_counterexample)

from conftest import brute_models, brute_search, search_outcome

LAW_IDS = [law.id for law in catalog()]


def test_free_cell_count_closed_form():
    for n in range(2, 6):
        assert len(free_cells(n)) == (n - 1) * (n - 2)
        assert candidate_count(n) == n ** len(free_cells(n))


def test_size3_exhaustive_visit_count():
    result = search_counterexample(SearchSpec(law="AX.refl",
                                              min_size=3, max_size=3))
    assert result.found is None
    assert result.exhausted
    assert result.visited_by_size == {3: candidate_count(3) ** 2}


def test_size4_exhaustive_visit_count():
    result = search_counterexample(SearchSpec(law="AX.refl",
                                              min_size=4, max_size=4))
    assert result.found is None
    assert result.exhausted
    assert result.visited_by_size == {4: candidate_count(4) ** 2}


@pytest.mark.parametrize("n", [2, 3])
def test_models_match_brute_scan(n):
    assert list(_models(n)) == brute_models(n)


def test_model_counts():
    models = {n: list(_models(n)) for n in (2, 3, 4)}
    assert [len(models[n]) for n in (2, 3, 4)] == [1, 6, 388]
    assert [sum(_is_canonical(n, a, s) for _, a, s in models[n])
            for n in (2, 3, 4)] == [1, 4, 77]


@pytest.mark.parametrize("law_id", LAW_IDS)
def test_search_matches_brute_force(law_id):
    for spec in (SearchSpec(law=law_id, max_size=3),
                 SearchSpec(law=law_id, max_size=3, iso_reject=True)):
        assert (search_outcome(search_counterexample, spec)
                == search_outcome(brute_search, spec)), spec


@pytest.mark.parametrize("law_id", ["AX.refl", "AX.psbck6_antisym"])
def test_budget_matches_brute_force(law_id):
    with pytest.raises(PreconditionUnmet, match="budget"):
        SearchSpec(law=law_id, max_size=3, budget=-1)
    for budget in range(90):
        spec = SearchSpec(law=law_id, max_size=3, budget=budget)
        assert (search_outcome(search_counterexample, spec)
                == search_outcome(brute_search, spec)), budget


# tables on {1, a, b} that fail psBE5: a -> b = b but a ~> b = 1
NOT_PSBE = (((0, 1, 2), (0, 0, 2), (0, 0, 0)),
            ((0, 1, 2), (0, 0, 0), (0, 0, 0)))


def _fake_models(n):
    yield (1,) + NOT_PSBE


def test_non_psbe_model_raises(monkeypatch):
    monkeypatch.setattr(psbe.laws, "_models", _fake_models)
    with pytest.raises(InvariantViolated, match="not a pseudo BE-algebra"):
        search_counterexample(SearchSpec(law="AX.refl", min_size=3,
                                         max_size=3))


def test_non_psbe_model_raises_under_optimize():
    src = Path(psbe.laws.__file__).resolve().parents[1]
    script = (
        "import psbe.laws as laws\n"
        "from psbe.classify import InvariantViolated\n"
        f"laws._models = lambda n: iter([(1,) + {NOT_PSBE!r}])\n"
        "try:\n"
        "    laws.search_counterexample(laws.SearchSpec('AX.refl', 3, 3))\n"
        "except InvariantViolated:\n"
        "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "raised", out.stderr


def test_failed_reverification_raises(monkeypatch):
    real = psbe.laws._law_counterexample
    hits = []

    def hit_once(law, alg, spec):
        hit = None if hits else real(law, alg, spec)
        if hit is not None:
            hits.append(hit)
        return hit

    monkeypatch.setattr(psbe.laws, "_law_counterexample", hit_once)
    with pytest.raises(InvariantViolated, match="re-verification"):
        search_counterexample(SearchSpec(law="AX.psbck6_antisym", max_size=3))


@pytest.mark.parametrize("law_id, max_size", [
    ("AX.psbck6_antisym", 3),           # a law of the algebra
    ("P3.isotone_unconditional", 4),    # a law of a monadic pair
])
def test_counterexample_is_reclassified_for_its_recheck(law_id, max_size, monkeypatch):
    # the re-check runs on a copy of the found algebra, so its
    # classification is built a second time, never read from the report
    # the scan kept on the algebra object
    built = Counter()
    init = ClassificationReport.__init__

    def counted(self, alg):
        built[alg.arrow, alg.squig] += 1
        init(self, alg)

    monkeypatch.setattr(ClassificationReport, "__init__", counted)
    alg = search_counterexample(SearchSpec(law=law_id, max_size=max_size)).found[0]
    assert built[alg.arrow, alg.squig] == 2
    assert max(built.values()) == 2


def test_finds_non_antisymmetric_algebra():
    result = search_counterexample(SearchSpec(law="AX.psbck6_antisym",
                                              max_size=4))
    assert result.found is not None
    alg, pair, witness = result.found
    assert alg.size <= 4
    assert pair is None                 # algebra-level law
    assert check_pseudo_bck(alg).status == FAILS    # fails antisymmetry, as targeted
    # the witness re-verifies against a fresh evaluation
    law = next(l for l in catalog() if l.id == "AX.psbck6_antisym")
    assert evaluate_law(law, Ctx(alg)).status == "fails"


def test_iso_reject_still_finds():
    plain = search_counterexample(SearchSpec(law="AX.psbck6_antisym",
                                             max_size=3))
    canon = search_counterexample(SearchSpec(law="AX.psbck6_antisym",
                                             max_size=3, iso_reject=True))
    assert plain.found is not None and canon.found is not None


def test_budget_enforced():
    # the stop is returned, not raised: nothing found, not exhausted, and
    # the count stops at the budget: the candidates tested, none past it
    result = search_counterexample(SearchSpec(law="AX.refl",
                                              min_size=3, max_size=3, budget=10))
    assert result.found is None and not result.exhausted
    assert result.visited_by_size == {3: 10}


def test_unknown_law_rejected():
    with pytest.raises(PreconditionUnmet):
        search_counterexample(SearchSpec(law="NO.such_law", max_size=3))


def test_size_bounds_validated():
    with pytest.raises(ValueError):
        SearchSpec(law="AX.refl", max_size=9)
    with pytest.raises(ValueError):
        SearchSpec(law="AX.refl", min_size=4, max_size=3)


def test_require_flags_filter():
    # requiring a poset rules out the flat non-antisymmetric tables
    result = search_counterexample(SearchSpec(law="AX.psbck6_antisym",
                                              max_size=3,
                                              require=("poset",)))
    assert result.found is None and result.exhausted


def test_require_is_stored_as_a_tuple():
    spec = SearchSpec(law="AX.refl", require=["poset"])
    assert spec.require == ("poset",) and hash(spec) == hash(spec._replace())
    # a generator is read once, into the stored tuple, so the search still
    # requires the flag and finds no antisymmetry counterexample
    spec = SearchSpec(law="AX.psbck6_antisym", max_size=3,
                      require=(f for f in ["pseudo_bck"]))
    assert spec.require == ("pseudo_bck",)
    result = search_counterexample(spec)
    assert result.found is None and result.exhausted
    assert search_counterexample(spec._replace(require=())).found is not None

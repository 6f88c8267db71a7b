"""Pin every law's outcome, hypotheses bypassed, and the suite's verdicts.

`test_law_outcomes_are_pinned` runs each law of the catalog with its
hypothesis replaced by (), which always applies, on seeded random table
pairs with n <= 4 (pseudo BE-algebras and arbitrary tables) and random
E/F maps, so laws whose hypotheses (condition_A, has_pP, pseudo_hoop,
...) rarely hold still report a verdict, witness and instance count, or
raise; an exception is recorded by its type.  `test_suite_verdicts_are_pinned`
runs `verify_suite(law_ids=EVERY_LAW)` on bc4, psbe4 and psbe5 x C2
with their product pairs and on every model of size 2 and 3 with its
monadic pairs.  A changed digest means some law now reports a different
verdict, witness or instance count.  `test_applicability_is_pinned`
records whether each law's hypothesis holds and each flag's status on
the fixtures, bc4 x C2, psbe4 x C2, every model of size 2 and 3 and
seeded random tables with n <= 4, pseudo BE-algebras or not.
`test_law_metadata_is_pinned` records each law's (id, arity, uses_pair,
probe, hypothesis), which for a pointwise law are derived from its anchor.
"""

import hashlib
import json
import random

from psbe.algebra import FiniteAlgebra, UnaryMap
from psbe.classify import FLAG_NAMES, HOLDS, check_pseudo_be
from psbe.laws import Ctx, _models, catalog, evaluate_law, verify_suite
from psbe.quantifiers import MonadicPair, enumerate_mop

from conftest import EVERY_LAW, FIXTURE_NAMES, labelled_models, load, times_c2
from test_quantifiers import times_c2_pair

LAW_DIGEST = "1eee5b939e7763b9040b0a19305ad8ec3a30c26226b638a7bbb127536163b32d"
SUITE_DIGEST = "28c51aca69dd5147a826be64776cc89b59aa4f2d050e35e461fe740c1636d51a"
APPLICABILITY_DIGEST = "1728ab84184328f22980e8da7caf3b8e96cb956efac1ff0c817c49283dccf9b3"
METADATA_DIGEST = "b5a49352184f86ebab0249d4fd1be0f5bf85bf625c3f447051671b432b08b634"


def with_least_zero(alg):
    """alg declaring its least element as zero, when it has exactly one."""
    n, one = alg.size, alg.one
    least = [z for z in range(n) if all(alg.arrow[z][x] == one and alg.squig[z][x] == one
                                        for x in range(n))]
    return alg._replace(zero=least[0]) if len(least) == 1 else alg


def _random_algebra(rng, n):
    t = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    for rows in t:
        rows[0] = list(range(n))
        if rng.random() < 0.5:
            for x in range(n):
                rows[x][0] = rows[x][x] = 0
    return FiniteAlgebra("r", ("1",) + tuple(f"e{i}" for i in range(1, n)), 0,
                         *(tuple(map(tuple, rows)) for rows in t))


def _random_map(rng, alg, direction):
    """Self-map sending x above it (direction 1), below it (-1) or anywhere (0)."""
    out = []
    for x in range(alg.size):
        cands = [y for y in range(alg.size) if direction == 0 or alg.one ==
                 (alg.arrow[x][y] if direction > 0 else alg.arrow[y][x])]
        out.append(rng.choice(cands or range(alg.size)))
    return UnaryMap(tuple(out))


def _algebras(rng):
    out = []
    for n in (2, 3, 4):
        models = labelled_models(n) if n < 4 else [
            FiniteAlgebra("m4", ("1", "e1", "e2", "e3"), 0, arrow, squig)
            for _, arrow, squig in _models(4)]
        out += rng.sample(models, min(len(models), 12))
        out += [_random_algebra(rng, n) for _ in range(20)]
    return [with_least_zero(alg) for alg in out]


def _outcome(law, ctx):
    try:
        return evaluate_law(law, ctx).to_json()
    except Exception as exc:
        return type(exc).__name__


def law_outcomes():
    rng = random.Random(19111996)
    laws = [law._replace(hypothesis=()) for law in catalog()]
    out = []
    for alg in _algebras(rng):
        base = Ctx(alg)
        pairs = [MonadicPair(_random_map(rng, alg, d), _random_map(rng, alg, -d))
                 for d in (1, 1, 0)]
        if check_pseudo_be(alg).status == HOLDS:
            pairs += enumerate_mop(alg)[:2]
        ctxs = [base.with_pair(p) for p in pairs]
        out.append([alg.arrow, alg.squig, alg.zero, [p.exists.images for p in pairs],
                    [p.forall.images for p in pairs]])
        for law in laws:
            out.append([_outcome(law, c) for c in (ctxs if law.uses_pair else [base])])
    return out


def suite_outcomes():
    out = []
    for name in ("bc4", "psbe4", "psbe5"):
        factor = load(name)
        alg = with_least_zero(times_c2(factor))
        pairs = [times_c2_pair(p) for p in enumerate_mop(factor)]
        out.append([alg.name] + [v.to_json(alg) for v in
                                 verify_suite(alg, pairs, law_ids=EVERY_LAW)])
    for n in (2, 3):
        for alg in map(with_least_zero, labelled_models(n)):
            out.append([alg.arrow, alg.squig] + [
                v.to_json(alg) for v in
                verify_suite(alg, enumerate_mop(alg), law_ids=EVERY_LAW)])
    return out


def applicability(alg):
    """alg's tables and zero, whether each law's hypothesis holds on it and
    the status of each classification flag."""
    report = Ctx(alg).report
    return [alg.arrow, alg.squig, alg.zero,
            [report.unmet(law.hypothesis) is None for law in catalog()],
            [report[name].status for name in FLAG_NAMES]]


def applicability_outcomes():
    rng = random.Random(20191019)
    algs = [load(name) for name in FIXTURE_NAMES]
    algs += [times_c2(load(name)) for name in ("bc4", "psbe4")]
    algs += labelled_models(2) + labelled_models(3)
    algs += [_random_algebra(rng, n) for n in (2, 3, 4) for _ in range(150)]
    return [applicability(with_least_zero(alg)) for alg in algs]


def digest(outcomes):
    doc = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def test_law_outcomes_are_pinned():
    assert digest(law_outcomes()) == LAW_DIGEST


def test_suite_verdicts_are_pinned():
    assert digest(suite_outcomes()) == SUITE_DIGEST


def test_applicability_is_pinned():
    assert digest(applicability_outcomes()) == APPLICABILITY_DIGEST


def test_law_metadata_is_pinned():
    rows = [[l.id, l.arity, l.uses_pair, l.probe, list(l.hypothesis)] for l in catalog()]
    assert len(rows) == 86
    assert digest(rows) == METADATA_DIGEST

"""Pin the witness every exact check reports, on inputs that mostly fail.

The fixture goldens are mostly "holds", so they say little about which
tuple a failing check reports first.  This test runs the checks on
seeded random tables, random self-maps and one-cell perturbations of the
fixtures, and pins the outcomes keyed by check and input (`assert_pinned`):
a moved key names the check, and the fixture or carrier size, whose
verdict, witness or instance count changed.  The key `inputs` holds the
random tables and maps in the order they are drawn.
"""

import random
from itertools import product

from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import ClassificationReport, check_pseudo_be, check_pseudo_bck, classify
from psbe.laws import Ctx, catalog, evaluate_law, verify_suite
from psbe.quantifiers import (MonadicPair, build_from_sigma, build_from_tau,
                              check_monadic, check_mv_quantifier, enumerate_mop, is_monadic)

from conftest import (EVERY_LAW, FIXTURE_NAMES, TABLE_NAMES, assert_pinned, cups, labelled_models,
                      load, model_algebra)
from test_law_pin import _random_map

RESIDUATED = next(law for law in catalog() if law.id == "P3.residuated_T")


def _random_table(rng, n, full_units):
    """Random table with 1 = element 0: the row of 1 is the identity, and
    with full_units also the column of 1 and the diagonal are 1."""
    t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    t[0] = list(range(n))
    if full_units:
        for x in range(n):
            t[x][0] = t[x][x] = 0
    return tuple(tuple(r) for r in t)


def _perturbed(rng, alg):
    """alg with one random cell of one or both tables changed."""
    n = alg.size
    tables = [[list(r) for r in alg.arrow], [list(r) for r in alg.squig]]
    for t in rng.sample(tables, rng.choice((1, 2))):
        x, y = rng.randrange(n), rng.randrange(n)
        t[x][y] = (t[x][y] + rng.randrange(1, n)) % n
    return FiniteAlgebra(alg.name, alg.element_names, alg.one,
                         *(tuple(tuple(r) for r in t) for t in tables))


def _nudged(rng, alg, m):
    images = list(m.images)
    x = rng.randrange(alg.size)
    images[x] = (images[x] + rng.randrange(1, alg.size)) % alg.size
    return UnaryMap(tuple(images))


def _random_pairs(rng, alg, count):
    """Monadic pairs with one image nudged, then random increasing/decreasing
    and unconstrained pairs."""
    pairs = []
    for p in enumerate_mop(alg):
        pairs.append(MonadicPair(_nudged(rng, alg, p.exists), p.forall))
        pairs.append(MonadicPair(p.exists, _nudged(rng, alg, p.forall)))
    for i in range(count):
        d = 0 if i % 4 == 3 else 1
        pairs.append(MonadicPair(_random_map(rng, alg, d),
                                 _random_map(rng, alg, -d)))
    return pairs


def _small_models():
    """Every pseudo BE-algebra on 2 or 3 labelled elements with 1 = element 0,
    declaring its first least element as zero when it has one."""
    return [alg._replace(zero=next((z for z, row in enumerate(alg.arrow) if set(row) == {0}), None))
            for n in (2, 3) for alg in labelled_models(n)]


def _classified(alg):
    report, _ = classify(alg)
    return [check_pseudo_be(alg).to_json(alg), check_pseudo_bck(alg).to_json(alg),
            report.to_json(alg),
            {name: getattr(report, name) for name in TABLE_NAMES} | cups(alg)]


def _nudged_mv(rng, alg, report):
    """psMV1-psMV8 on the derived structure with one cell of (+), (.) or a
    negation changed: the pseudo_mv flag of a new report of alg whose
    tables are the changed ones."""
    n = alg.size
    tables = {"oplus": [list(r) for r in report.oplus],
              "odot": [list(r) for r in report.odot],
              "neg_minus": [list(report.neg_minus)], "neg_sim": [list(report.neg_sim)]}
    key = rng.choice(sorted(tables))
    row = rng.choice(tables[key])
    y = rng.randrange(n)
    row[y] = (row[y] + rng.randrange(1, n)) % n
    nudged = ClassificationReport(alg)
    for k, v in tables.items():     # a table read on first use; set here, never computed
        setattr(nudged, k, tuple(tuple(r) for r in v) if k in ("oplus", "odot") else tuple(v[0]))
    return [key, nudged.pseudo_mv.to_json(alg)]


def _built(build, alg, m):
    try:
        pair = build(alg, m)
    except ValueError as exc:
        return ["rejected", str(exc)]
    return [pair.exists.images, pair.forall.images]


def outcomes():
    rng = random.Random(20191026)
    out = {"inputs": []}

    def add(key, row):
        out.setdefault(key, []).append(row)

    for n in range(2, 6):
        for i in range(60):
            alg = model_algebra(n, _random_table(rng, n, i % 2), _random_table(rng, n, i % 2), "r")
            add("inputs", [alg.arrow, alg.squig])
            add(f"classify random n={n}", _classified(alg))
    fixtures = {name: load(name) for name in FIXTURE_NAMES}
    for name, alg in fixtures.items():
        for _ in range(30):
            perturbed = _perturbed(rng, alg)
            add("inputs", [perturbed.arrow, perturbed.squig])
            add(f"classify perturbed {name}", _classified(perturbed))
    for name, alg in fixtures.items():
        pairs = _random_pairs(rng, alg, 24)
        add("inputs", [[p.exists.images, p.forall.images] for p in pairs])
        for pair in pairs:
            checked = []
            for mode in ("plain", "bc", "hoop"):
                try:
                    checked.append(check_monadic(alg, pair, mode).to_json(alg))
                except PreconditionUnmet as exc:
                    checked.append(str(exc))
            add(f"check_monadic {name}", checked)
            add(f"P3.residuated_T {name}", evaluate_law(RESIDUATED, Ctx(alg, pair)).to_json(alg))
        same_fixed = [p for p in pairs if all(
            (p.exists(x) == x) == (p.forall(x) == x) for x in range(alg.size))]
        suite_pairs = enumerate_mop(alg) + same_fixed[:6]
        try:
            add(f"verify_suite {name}", [v.to_json(alg) for v in
                                         verify_suite(alg, suite_pairs, law_ids=EVERY_LAW)])
        except PreconditionUnmet as exc:    # some pair is not monadic
            add(f"verify_suite {name}", str(exc))
            add(f"verify_suite {name}", [v.to_json(alg) for v in verify_suite(
                alg, [p for p in suite_pairs if is_monadic(alg, p)], law_ids=EVERY_LAW)])
    models = _small_models()
    for alg in [fixtures["bc4"]] + models:
        report, _ = classify(alg)
        if not (report.holds("bounded") and report.holds("commutative")):
            continue
        add(f"check_mv_quantifier {alg.name}", [
            check_mv_quantifier(alg, m, kind).to_json(alg)
            for m in map(UnaryMap, product(range(alg.size), repeat=alg.size))
            for kind in ("universal", "existential")])
        add(f"pseudo_mv nudged {alg.name}", [_nudged_mv(rng, alg, report) for _ in range(20)]
            if report.oplus is not None and report.odot is not None else [])
    for name in ("bc4", "inv6"):
        alg = fixtures[name]
        downs = product(*([y for y in range(alg.size) if alg.arrow[y][x] == alg.one]
                          for x in range(alg.size)))
        ups = product(*([y for y in range(alg.size) if alg.arrow[x][y] == alg.one]
                        for x in range(alg.size)))
        anywhere = [pair.exists.images for pair in _random_pairs(rng, alg, 32)]
        add("inputs", anywhere)
        for images in list(downs) + anywhere:
            add(f"build_from_tau {name}", _built(build_from_tau, alg, UnaryMap(images)))
        for images in list(ups) + anywhere:
            add(f"build_from_sigma {name}", _built(build_from_sigma, alg, UnaryMap(images)))
    for alg in models:
        add(f"verify_suite {alg.name}", [alg.arrow, alg.squig] + [
            v.to_json(alg) for v in verify_suite(alg, enumerate_mop(alg), law_ids=EVERY_LAW)])
    return out


def test_witnesses_are_pinned():
    assert_pinned("witnesses", outcomes())

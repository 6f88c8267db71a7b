"""Pin the witness every exact check reports, on inputs that mostly fail.

The fixture goldens are mostly "holds", so they say little about which
tuple a failing check reports first.  This test runs the checks on
seeded random tables, random self-maps and one-cell perturbations of the
fixtures, and compares one sha256 over all outcomes with the digest
below.  A changed digest means some check now reports a different
verdict, witness or instance count.
"""

import hashlib
import json
import random
from itertools import product

from psbe.algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from psbe.classify import (HOLDS, ClassificationReport, check_pseudo_be, check_pseudo_bck,
                           classify)
from psbe.laws import Ctx, catalog, evaluate_law, verify_suite
from psbe.quantifiers import (MonadicPair, build_from_sigma, build_from_tau,
                              check_monadic, check_mv_quantifier, enumerate_mop, is_monadic)

from conftest import FIXTURE_NAMES, TABLE_NAMES, load

DIGEST = "22cb5240388928f1daaae976c55b48d0f89eab2219239dc8b3c3f8d1ecc8c0cf"
RESIDUATED = next(law for law in catalog() if law.id == "P3.residuated_T")


def _algebra(name, arrow, squig, zero=None):
    n = len(arrow)
    return FiniteAlgebra(name, ("1",) + tuple(f"e{i}" for i in range(1, n)),
                         0, arrow, squig, zero)


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


def _random_map(rng, alg, direction):
    """Self-map sending x above it (direction 1), below it (-1) or anywhere (0)."""
    n, one = alg.size, alg.one
    out = []
    for x in range(n):
        if direction == 0:
            out.append(rng.randrange(n))
            continue
        cands = [y for y in range(n)
                 if (alg.arrow[x][y] if direction > 0 else alg.arrow[y][x]) == one]
        out.append(rng.choice(cands))
    return UnaryMap(tuple(out))


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
    declaring its least element as zero when it has one."""
    out = []
    for n in (2, 3):
        cells = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
        tables = []
        for vals in product(range(n), repeat=len(cells)):
            t = [[0] * n for _ in range(n)]
            t[0] = list(range(n))
            for (x, y), v in zip(cells, vals):
                t[x][y] = v
            tables.append(tuple(tuple(r) for r in t))
        for arrow, squig in product(tables, repeat=2):
            alg = _algebra(f"m{n}", arrow, squig)
            if check_pseudo_be(alg).status == HOLDS:
                least = [z for z in range(n) if all(arrow[z][x] == 0 for x in range(n))]
                out.append(_algebra(f"m{n}", arrow, squig,
                                    least[0] if least else None))
    return out


def _classified(alg):
    report, _ = classify(alg)
    return [alg.arrow, alg.squig, check_pseudo_be(alg).to_json(alg),
            check_pseudo_bck(alg).to_json(alg), report.to_json(alg),
            {name: getattr(report, name) for name in TABLE_NAMES}]


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
    out = []
    for n in range(2, 6):
        for i in range(60):
            alg = _algebra("r", _random_table(rng, n, i % 2),
                           _random_table(rng, n, i % 2))
            out.append(_classified(alg))
    fixtures = {name: load(name) for name in FIXTURE_NAMES}
    for alg in fixtures.values():
        for _ in range(30):
            out.append(_classified(_perturbed(rng, alg)))
    for alg in fixtures.values():
        pairs = _random_pairs(rng, alg, 24)
        for pair in pairs:
            for mode in ("plain", "bc", "hoop"):
                try:
                    out.append(check_monadic(alg, pair, mode).to_json(alg))
                except PreconditionUnmet as exc:
                    out.append(str(exc))
            out.append(evaluate_law(RESIDUATED, Ctx(alg, pair)).to_json(alg))
        same_fixed = [p for p in pairs if all(
            (p.exists(x) == x) == (p.forall(x) == x) for x in range(alg.size))]
        suite_pairs = enumerate_mop(alg) + same_fixed[:6]
        try:
            out.append([v.to_json(alg) for v in
                        verify_suite(alg, suite_pairs, include_probes=True)])
        except PreconditionUnmet as exc:    # some pair is not monadic
            out.append(str(exc))
            out.append([v.to_json(alg) for v in verify_suite(
                alg, [p for p in suite_pairs if is_monadic(alg, p)], include_probes=True)])
    models = _small_models()
    for alg in [fixtures["bc4"]] + models:
        report, _ = classify(alg)
        if not (report.holds("bounded") and report.holds("commutative")):
            continue
        for m in map(UnaryMap, product(range(alg.size), repeat=alg.size)):
            for kind in ("universal", "existential"):
                out.append(check_mv_quantifier(alg, m, kind).to_json(alg))
        if report.oplus is not None and report.odot is not None:
            for _ in range(20):
                out.append(_nudged_mv(rng, alg, report))
    for name in ("bc4", "inv6"):
        alg = fixtures[name]
        downs = product(*([y for y in range(alg.size) if alg.arrow[y][x] == alg.one]
                          for x in range(alg.size)))
        ups = product(*([y for y in range(alg.size) if alg.arrow[x][y] == alg.one]
                        for x in range(alg.size)))
        anywhere = [pair.exists.images for pair in _random_pairs(rng, alg, 32)]
        for images in list(downs) + anywhere:
            out.append(_built(build_from_tau, alg, UnaryMap(images)))
        for images in list(ups) + anywhere:
            out.append(_built(build_from_sigma, alg, UnaryMap(images)))
    for alg in models:
        out.append([alg.arrow, alg.squig] +
                   [v.to_json(alg) for v in
                    verify_suite(alg, enumerate_mop(alg), include_probes=True)])
    return out


def digest():
    doc = json.dumps(outcomes(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def test_witnesses_are_pinned():
    assert digest() == DIGEST

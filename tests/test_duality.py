"""Duality: swapping -> and ~> (`algebra.dual`) gives the dual algebra
A^op, again a pseudo BE-algebra with the same order, and a formula read on
A^op is its dual (`classify.opposite`) read on A.

On the fixtures and every model with n <= 3 (`oracles/` does n = 4), each
with its monadic pairs and its least element declared as zero, and on
seeded random tables that keep a model's order but are mostly not pseudo
BE-algebras, each with random pairs of maps (`one_order_tables`):

- each law's dual, with distributive_i and distributive_ii swapped in its
  hypothesis, has on (A, pair) the verdict that the law has on
  (A^op, pair): status, witness and instances; a law that is a formula
  (pointwise, over congruences, which A and A^op share, with its body
  dualized, or with closed parts, each dualized) does so with its hypothesis
  dropped too, where reading a missing table raises;
- the laws whose check is written once with its dual ("(both arrows)")
  give the same verdict on A and on A^op, with their hypotheses dropped;
- every flag has the same status on A and A^op, except that
  distributive_i and distributive_ii swap;
- A and A^op have the same deductive systems, congruences and monadic
  pairs, in every mode;
- the report of A^op has the swapped negations, odot and oplus
  transposed, and the same leq, meet and join.

On random tables under every name a formula reads, with no algebra behind
them, the dual of every formula of the package (catalog anchors and axiom
groups alike) reads what the formula reads on the opposite tables: arrow
and squig swapped, neg_minus and neg_sim swapped, odot and oplus
transposed; a formula stated for both arrows reads the same on both, and
a hand-edited second half of one does not.  Dualizing twice gives back
the formula.
"""

import random
from itertools import permutations
from types import SimpleNamespace

import pytest

from psbe.algebra import dual as dual_algebra
from psbe.classify import (_PSBCK, _PSBE, _PSH, _PSMV, FLAG_NAMES, ClassificationReport,
                           classify, expression, first_failure, formula, opposite)
from psbe.deduction import enumerate_congruences, enumerate_ds
from psbe.laws import Ctx, _closed_parts, _is_canonical, _models, _over_classes, catalog
from psbe.quantifiers import _E, _M1_M5, _M6, _M7, _MV, _U, MonadicPair, enumerate_mop

from conftest import FIXTURE_NAMES, labelled_models, load, model_algebra, scanned_parts
from test_law_pin import _outcome, _random_map, with_least_zero
from test_quantifiers import MODES, outcome

SWAP = {"distributive_i": "distributive_ii", "distributive_ii": "distributive_i"}

# the checks written once, as X and dual(X) (or "not leq[x][y] or (...)" of it)
WRITTEN_ONCE = (
    "A.antitone_first", "BCK.antitone", "BCK.cup_ge", "BCK.inner_monotone", "BCK.monotone",
    "BE.const_upper", "BE.const_upper_mixed", "BE.cup_upper", "BND.double_neg_ge",
    "BND.neg_antitone", "BND.triple_neg", "M.monotone_second", "P3.arrow_forall",
    "P3.exists_le_stable", "P3.forall_arrow", "P3.forall_arrow_exists", "P3.forall_forall",
    "P3.stable_exists", "P3b.exists_exists_neg", "P3b.forall_forall_neg",
    "P3b.forall_neg_stable", "P3b.neg_exchange", "P5.exists_stable", "P5.forall_arrow_compat",
    "P5.forall_image_stable", "P5.forall_to_exists", "P5.hoop_meet", "PP.curry",
    "PP.monotone", "PP.residual_le",
)

INPUTS = ([pytest.param(load(name), id=name) for name in FIXTURE_NAMES]
          + [pytest.param(with_least_zero(alg), id=f"m{n}-{i}")
             for n in (2, 3) for i, alg in enumerate(labelled_models(n))])


def one_order_tables(rng, alg):
    """alg with about half the cells of arrow and squig that are not 1
    redrawn among the elements other than 1: -> and ~> are still 1 at the
    same cells, so alg and its dual keep one order and the same least
    elements, and the dual's derived tables are still the renamed ones."""
    others = [v for v in alg.elements() if v != alg.one]
    redraw = lambda table: tuple(tuple(
        v if v == alg.one or rng.random() < 0.5 else rng.choice(others) for v in row)
        for row in table)
    return alg._replace(arrow=redraw(alg.arrow), squig=redraw(alg.squig))


def _one_order_inputs():
    rng = random.Random(20191026)
    algs = [load(name) for name in FIXTURE_NAMES] + [
        with_least_zero(alg) for n in (2, 3) for alg in labelled_models(n)]
    out = []
    for i, alg in enumerate(algs * 3):
        alg = one_order_tables(rng, alg)
        pairs = [MonadicPair(_random_map(rng, alg, d), _random_map(rng, alg, -d))
                 for d in (1, 1, 0)]
        out.append(pytest.param(alg, pairs, id=f"{alg.name}-{i}"))
    return out


ONE_ORDER = _one_order_inputs()


def dual_check(text):
    """The kernel expression of the dual of formula text."""
    return expression(opposite(formula(text)[0]))


def over_congruences(law):
    """Whether law is a formula over congruences: a global law with a compiled anchor."""
    return law.anchor.startswith("for every")


def closed(law):
    """Whether law is a formula with closed parts: a global law with a compiled anchor."""
    return law.anchor.endswith("(all x,y)")


def dual_law(law):
    """law read on the dual: its anchor's dual (the body's, under a congruence
    quantifier; each part's, where they are closed), distributive_i and ii swapped."""
    check = dual_check(law.anchor) if law.arity else law.check
    if over_congruences(law):
        tree, arity = formula(law.anchor)[:2]
        check = _over_classes(opposite(tree), arity)
    if closed(law):
        check = _closed_parts(opposite(formula(law.anchor)[0]))
    return law._replace(check=check,
                        hypothesis=tuple(SWAP.get(name, name) for name in law.hypothesis))


def contexts(alg, pairs):
    """(law, context on A, context on A^op), each law with None or each pair."""
    base, base_op = Ctx(alg), Ctx(dual_algebra(alg))
    for law in catalog():
        for pair in pairs if law.uses_pair else [None]:
            yield law, base.with_pair(pair), base_op.with_pair(pair)


def assert_laws_dual(alg, pairs):
    for law, ctx, ctx_op in contexts(alg, pairs):
        assert _outcome(dual_law(law), ctx) == _outcome(law, ctx_op), law.id
        if law.arity or over_congruences(law) or closed(law):   # the other global laws are not formulas
            bare = law._replace(hypothesis=())
            assert _outcome(dual_law(bare), ctx) == _outcome(bare, ctx_op), (law.id, "bare")


def assert_written_once_closed(alg, pairs):
    closed = set(WRITTEN_ONCE) | {law.id for law in catalog()
                                  if law.arity and dual_check(law.anchor) == law.check}
    for law, ctx, ctx_op in contexts(alg, pairs):
        if law.id in closed:
            bare = law._replace(hypothesis=())
            assert _outcome(bare, ctx) == _outcome(bare, ctx_op), law.id


def assert_flags_dual(alg):
    report, report_op = classify(alg)[0], classify(dual_algebra(alg))[0]
    assert ({SWAP.get(name, name): report[name].status for name in FLAG_NAMES}
            == {name: report_op[name].status for name in FLAG_NAMES})


def assert_structure_dual(alg):
    op = dual_algebra(alg)
    assert enumerate_ds(op) == enumerate_ds(alg)
    assert enumerate_congruences(op) == enumerate_congruences(alg)
    for mode in MODES:
        assert outcome(enumerate_mop, op, mode) == outcome(enumerate_mop, alg, mode), mode


def assert_tables_dual(alg):
    report, report_op = classify(alg)[0], classify(dual_algebra(alg))[0]
    transpose = lambda table: table and tuple(zip(*table))
    assert (report_op.neg_minus, report_op.neg_sim) == (report.neg_sim, report.neg_minus)
    assert report_op.odot == transpose(report.odot)
    assert report_op.oplus == transpose(report.oplus)
    for name in ("leq", "meet", "join"):
        assert getattr(report_op, name) == getattr(report, name), name


@pytest.mark.parametrize("alg", INPUTS)
def test_each_law_on_the_dual_is_its_dual_law(alg):
    assert_laws_dual(alg, enumerate_mop(alg))


@pytest.mark.parametrize("alg", INPUTS)
def test_checks_written_once_are_closed_under_duality(alg):
    assert_written_once_closed(alg, enumerate_mop(alg))


@pytest.mark.parametrize("alg", INPUTS)
def test_flags_on_the_dual(alg):
    assert_flags_dual(alg)


@pytest.mark.parametrize("alg", INPUTS)
def test_structure_on_the_dual(alg):
    assert_structure_dual(alg)


@pytest.mark.parametrize("alg", INPUTS)
def test_report_tables_on_the_dual(alg):
    assert_tables_dual(alg)


@pytest.mark.parametrize("alg, pairs", ONE_ORDER)
def test_duality_on_tables_with_one_order(alg, pairs):
    assert_laws_dual(alg, pairs)
    assert_written_once_closed(alg, pairs)
    assert_flags_dual(alg)
    assert_tables_dual(alg)


def test_the_closed_laws_hold_and_fail_on_tables_with_one_order():
    # so the P4 laws' dual verdicts above compare failures too
    statuses = {_outcome(law, ctx)["status"] for param in ONE_ORDER
                for law, ctx, _ in contexts(*param.values) if closed(law)}
    assert statuses == {"holds", "fails", "not_applicable"}


def package_formulas():
    """Every formula of the package: the anchors of the pointwise laws, the
    laws over congruences and the laws with closed parts, the formula flags and
    every axiom group's formulas."""
    texts = [law.anchor for law in catalog()
             if law.arity or over_congruences(law) or closed(law)]
    texts += [text for flag in vars(ClassificationReport).values()
              for text in getattr(flag, "formulas", ())]
    groups = (_PSBE + _PSBCK + _PSH + _PSMV + _M1_M5 + (_M6, _M7) + _U + _E
              + _MV["universal"] + _MV["existential"])
    texts += [text for group in groups if type(group[0]) is not int for _, text in group]
    return texts


FORMULAS = list(dict.fromkeys(package_formulas()))     # a text some share once


def test_the_formulas_cover_the_catalog_flags_and_axioms():
    # 66 anchors, 3 with closed parts, 8 flags and poset's 2, 57 axioms (not psBCK6),
    # 4 over congruences
    assert len(package_formulas()) == 66 + 3 + 10 + 57 + 4


def test_dual_is_an_involution():
    for text in FORMULAS:
        tree = formula(text)[0]
        assert opposite(opposite(tree)) == tree, text
    alg = load("psbe5")
    op = dual_algebra(alg)
    assert (op.arrow, op.squig) == (alg.squig, alg.arrow)
    assert (op.name, op.element_names, op.one, op.zero, op.unary) == (
        alg.name, alg.element_names, alg.one, alg.zero, alg.unary)
    assert dual_algebra(op) == alg


def random_tables(rng, n):
    """Random tables on n elements under every name a formula reads, a
    congruence's classes cls and the class of 1 (0), one_cls, among them."""
    table = lambda: tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
    unary = lambda: tuple(rng.randrange(n) for _ in range(n))
    t = SimpleNamespace(one=0, zero=n - 1, arrow=table(), squig=table(), odot=table(),
                        oplus=table(), meet=table(), join=table(), neg_minus=unary(),
                        neg_sim=unary(), E=unary(), F=unary(),
                        leq=tuple(tuple(rng.random() < 0.8 for _ in range(n))
                                  for _ in range(n)), cls=unary())
    t.one_cls = frozenset(x for x in range(n) if t.cls[x] == t.cls[0])
    return t


def opposite_tables(t):
    """t as the dual reads it: arrow and squig swapped, neg_minus and
    neg_sim swapped, odot and oplus transposed."""
    return SimpleNamespace(**{**vars(t), "arrow": t.squig, "squig": t.arrow,
                              "neg_minus": t.neg_sim, "neg_sim": t.neg_minus,
                              "odot": tuple(zip(*t.odot)), "oplus": tuple(zip(*t.oplus))})


TABLES = [(n, t, opposite_tables(t)) for seed in range(40) for n in [2 + seed % 3]
          for t in [random_tables(random.Random(seed), n)]]


def scan(n, arity, expr, tables):
    return first_failure(n, arity, (("", expr),), tables)


def reads_the_same_on_both(arity, expr):
    """Whether expr reads the same on every random t and its opposite."""
    return all(scan(n, arity, expr, t) == scan(n, arity, expr, t_op) for n, t, t_op in TABLES)


@pytest.mark.parametrize("seed", range(40))
def test_checks_read_on_renamed_tables(seed):
    # each formula's dual (each closed part's) reads on t what the formula
    # reads on the opposite tables; a formula stated for both arrows, and a
    # law written once with its dual, reads the same on both
    n, t, t_op = TABLES[seed]
    for text in FORMULAS:
        tree, arity = formula(text)[:2]
        for part, dual in zip(scanned_parts(tree), scanned_parts(opposite(tree))):
            expr = expression(part)
            assert scan(n, arity, expression(dual), t) == scan(n, arity, expr, t_op), text
            if text.endswith("(both arrows)"):
                assert scan(n, arity, expr, t) == scan(n, arity, expr, t_op), text
    for law in catalog():
        if law.id in WRITTEN_ONCE:
            assert scan(n, law.arity, law.check, t) == scan(n, law.arity, law.check, t_op), law.id


def test_the_dual_swaps_arrows_negations_and_the_operands_of_products():
    assert dual_check("x -> (y ~> z) = y ~> (x -> z)") == (
        "squig[x][arrow[y][z]] == arrow[y][squig[x][z]]")
    assert dual_check("(x -> y)*x <= x-") == "leq[odot[x][squig[x][y]]][neg_sim[x]]"
    assert dual_check("x (+) y~ = E(x*y)") == "oplus[neg_minus[y]][x] == E[odot[y][x]]"
    assert dual_check("(x ^ y) v 1- <= F0") == "leq[join[meet[x][y]][neg_sim[one]]][F[zero]]"


def test_a_hand_edited_half_of_a_both_arrows_formula_is_caught():
    # the ~> half of PP.residual_le with its arrows swapped but the
    # product's operands kept: x*(x ~> y) is what the dual reads
    law = next(law for law in catalog() if law.id == "PP.residual_le")
    _, arrow_half, squig_half = formula(law.anchor)[0]
    edited = formula("(x ~> y)*x <= x and (x ~> y)*x <= y")[0]
    assert squig_half != edited
    assert reads_the_same_on_both(law.arity, law.check)
    assert not reads_the_same_on_both(law.arity, expression(("and", arrow_half, edited)))


def relabellings(n, arrow, squig):
    """The table pair under every relabelling of the carrier fixing 0 (the 1)."""
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        inv = sorted(range(n), key=p.__getitem__)
        yield tuple(tuple(tuple(p[t[inv[u]][inv[v]]] for v in range(n)) for u in range(n))
                    for t in (arrow, squig))


def duality_orbits(n):
    """(classes up to isomorphism fixing 1, orbits of those under duality)."""
    classes = [(arrow, squig) for _, arrow, squig in _models(n) if _is_canonical(n, arrow, squig)]
    orbits = set()
    for arrow, squig in classes:
        op = dual_algebra(model_algebra(n, arrow, squig))
        twin = next(c for c in relabellings(n, op.arrow, op.squig) if _is_canonical(n, *c))
        orbits.add(frozenset({(arrow, squig), twin}))
    return len(classes), len(orbits)


@pytest.mark.parametrize("n, counts", [(2, (1, 1)), (3, (4, 4))])
def test_duality_orbit_counts(n, counts):
    assert duality_orbits(n) == counts

"""Duality: swapping -> and ~> (`algebra.dual`) gives the dual algebra
A^op, again a pseudo BE-algebra with the same order, and a check read on
A^op is its dual (`classify.dual`) read on A.

On the fixtures and every model with n <= 3 (`oracles/` does n = 4), each
with its monadic pairs and its least element declared as zero, and on
seeded random tables that keep a model's order but are mostly not pseudo
BE-algebras, each with random pairs of maps (`one_order_tables`):

- each law's dual, with distributive_i and distributive_ii swapped in its
  hypothesis, has on (A, pair) the verdict that the law has on
  (A^op, pair): status, witness and instances; a pointwise law's does so
  with its hypothesis dropped too, where reading a missing table raises;
- the laws whose check is written once with its dual (`both`) give the
  same verdict on A and on A^op, with their hypotheses dropped;
- every flag has the same status on A and A^op, except that
  distributive_i and distributive_ii swap;
- A and A^op have the same deductive systems, congruences and monadic
  pairs, in every mode;
- the report of A^op has the swapped negations and cups, odot and oplus
  transposed, and the same leq, meet and join.

On random tables under every name a check reads, with no algebra behind
them, a law's dual reads what the law reads on the tables with each dual
pair of names swapped, and a check written once with its dual reads the
same on both.  A generated half dropped from any law fails these tests.
"""

import random
from itertools import permutations
from types import SimpleNamespace

import pytest

from psbe.algebra import dual as dual_algebra
from psbe.classify import _PSBE, _PSMV, FLAG_NAMES, classify, dual, first_failure
from psbe.deduction import enumerate_congruences, enumerate_ds
from psbe.laws import Ctx, _is_canonical, _models, catalog
from psbe.quantifiers import _M1_M5, _MV, MonadicPair, enumerate_mop

from conftest import FIXTURE_NAMES, labelled_models, load, model_algebra
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


def dual_law(law):
    """law read on the dual: its check's dual, distributive_i and ii swapped."""
    return law._replace(check=dual(law.check) if law.arity else law.check,
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
        if law.arity:       # a global law's check is not a text that dual() reads
            bare = law._replace(hypothesis=())
            assert _outcome(dual_law(bare), ctx) == _outcome(bare, ctx_op), (law.id, "bare")


def assert_written_once_closed(alg, pairs):
    closed = set(WRITTEN_ONCE) | {law.id for law in catalog()
                                  if law.arity and dual(law.check) == law.check}
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
    assert (report_op.cup1, report_op.cup2) == (report.cup2, report.cup1)
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


def test_dual_is_an_involution():
    for law in catalog():
        if law.arity:
            assert dual(dual(law.check)) == law.check, law.id
    alg = load("psbe5")
    op = dual_algebra(alg)
    assert (op.arrow, op.squig) == (alg.squig, alg.arrow)
    assert (op.name, op.element_names, op.one, op.zero, op.unary) == (
        alg.name, alg.element_names, alg.one, alg.zero, alg.unary)
    assert dual_algebra(op) == alg


def test_dual_renames_tables_only():
    assert dual("a[x][s[y][z]] == s[y][a[x][z]]") == "s[x][a[y][z]] == a[y][s[x][z]]"
    assert (dual("leq[od[x][nm[y]]][op_t[E[x]][one]] and cup1[x][y] == zero")
            == "leq[od_t[x][ns[y]]][op[E[x]][one]] and cup2[x][y] == zero")
    assert dual("arrow[x][x] == one and len({neg_sim[x]}) == 1") == (
        "squig[x][x] == one and len({neg_minus[x]}) == 1")


# the table names that duality swaps, pairwise; od_t and op_t are od and op transposed
DUAL_NAMES = (("a", "s"), ("arrow", "squig"), ("nm", "ns"), ("neg_minus", "neg_sim"),
              ("od", "od_t"), ("op", "op_t"))


def random_tables(rng, n):
    """Random tables on n elements under every name a check reads."""
    table = lambda: tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
    unary = lambda: tuple(rng.randrange(n) for _ in range(n))
    t = SimpleNamespace(one=0, zero=n - 1, meet=table(), join=table(), od=table(), op=table(),
                        leq=tuple(tuple(rng.random() < 0.8 for _ in range(n)) for _ in range(n)),
                        E=unary(), F=unary(), f=unary())
    t.od_t, t.op_t = tuple(zip(*t.od)), tuple(zip(*t.op))
    for name, twin in DUAL_NAMES[:4]:
        setattr(t, name, table() if name in ("a", "arrow") else unary())
        setattr(t, twin, table() if name in ("a", "arrow") else unary())
    return t


def renamed(t):
    """t's tables, each pair of DUAL_NAMES swapped: what the dual reads."""
    return SimpleNamespace(**{**vars(t), **{name: getattr(t, twin) for pair in DUAL_NAMES
                                            for name, twin in (pair, pair[::-1])}})


# outside the catalog, the (arity, check) written as both(X)
BOTH = ([(arity, expr) for arity, checks in _PSBE + _PSMV for name, expr in checks
         if name in ("psBE1", "psBE2", "psBE3", "psMV4")]
        + [(1, _MV[kind][2][1][0][1]) for kind in ("universal", "existential")])


@pytest.mark.parametrize("seed", range(40))
def test_checks_read_on_renamed_tables(seed):
    # a pointwise law's dual reads on t what the law reads on the renamed
    # tables; a check written once with its dual reads the same on both
    n = 2 + seed % 3
    t = random_tables(random.Random(seed), n)
    t_op = renamed(t)
    scan = lambda arity, expr, tables: first_failure(n, arity, (("", expr),), tables)
    for law in catalog():
        if law.arity:
            assert scan(law.arity, dual(law.check), t) == scan(law.arity, law.check, t_op), law.id
            if law.id in WRITTEN_ONCE:
                assert scan(law.arity, law.check, t) == scan(law.arity, law.check, t_op), law.id
    for arity, expr in BOTH:
        assert scan(arity, expr, t) == scan(arity, expr, t_op), expr
    for arity, ((name, arrow), (_, squig)) in _M1_M5[:4]:      # M1-M4: squig is arrow's dual
        assert scan(arity, squig, t) == scan(arity, arrow, t_op), name


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

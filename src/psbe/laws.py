"""Executable law catalog, suite runner and bounded counterexample search.

Every law carries an anchor (the identity it encodes, in plain
notation), a hypothesis (the flags and tables its algebra's report must
meet, `ClassificationReport.unmet`) and a check.  `psbe laws` shows the
anchor; the check runs.  A pointwise law's check is an expression over
the `Ctx` tables and x, y, z, such as "a[x][s[y][z]] == s[y][a[x][z]]"
for x -> (y ~> z) = y ~> (x -> z), compiled by `classify.first_failure`;
x <= y is leq[x][y], and a check for both arrows is written once, as
both(X): X and dual(X).  Nothing yet checks a check against its anchor.
A global law's check is a function of the context.  `verify_suite`
evaluates the catalog against an algebra and a set of monadic pairs;
`search_counterexample` enumerates small algebras for a failure of one law.

Notation in anchors: -> and ~> are the two implications, x- and x~ the
two negations, * the pseudo-product, (+) its dual, ^ meet, v join,
E/F the existential/universal operators.
"""

from __future__ import annotations

import copy
from functools import cache, cached_property
from itertools import permutations, product
from math import inf
from types import SimpleNamespace
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet
from .classify import (FAILS, FLAG_ALIASES, FLAG_NAMES, HOLDS, NOT_APPLICABLE, Verdict, both, dual,
                       InvariantViolated, backtrack, classify, first_failure, first_failures)
from .quantifiers import MonadicPair, enumerate_mop, fixed_set
from . import deduction as _ded


# per algebra (`Ctx.once`); read through the module, where perfbench traces them
_all_ds = lambda ctx: _ded.enumerate_ds(ctx.alg)
_all_congruences = lambda ctx: _ded.enumerate_congruences(ctx.alg)
_ds_by_members = lambda ctx: {d.members: d for d in ctx.ds}
_decisions = lambda ctx: {}     # law hypothesis -> whether the report meets it


class Ctx:
    """Evaluation context: one algebra, its classification and
    (optionally) one monadic pair, with the tables a law expression names:
    a, s (-> and ~>), leq, E, F, nm, ns, od, op, od_t, op_t (od and op
    transposed), meet, join, one and zero.  `report` is the algebra's one
    ClassificationReport (`classify`); tables are read from it on first use.
    `zero` is the declared zero, not `report.zero`, until ROADMAP item 2.
    `ds`, `congruences`, the congruences' tables and each law hypothesis
    read no pair, so each is computed once per algebra object (`once`)
    and shared by every context on it, `with_pair` copies included.
    `failures` holds the first failures `verify_suite` found here, by expression."""

    def __init__(self, alg: FiniteAlgebra, pair: MonadicPair | None = None):
        self.alg = alg
        self.report, _ = classify(alg)
        self.n, self.one, self.zero, self.a, self.s = (alg.size, alg.one, alg.zero,
                                                       alg.arrow, alg.squig)
        self.decided = self.once(_decisions)
        self._bind(pair)

    def once(self, fn):
        """fn(self), kept on the algebra object (`FiniteAlgebra.kept`): computed
        once for it, whatever context or copy asks; fn must not read the pair."""
        return self.alg.kept(fn, lambda alg: fn(self))

    def applies(self, hypothesis) -> bool:
        """Whether the report meets hypothesis, decided once per algebra (`once`)."""
        met = self.decided.get(hypothesis)
        if met is None:
            met = self.decided[hypothesis] = self.report.unmet(hypothesis) is None
        return met

    ds = property(lambda self: self.once(_all_ds))
    congruences = property(lambda self: self.once(_all_congruences))

    nm = cached_property(lambda self: self.report.neg_minus)
    ns = cached_property(lambda self: self.report.neg_sim)
    od = cached_property(lambda self: self.report.odot)
    op = cached_property(lambda self: self.report.oplus)
    meet = cached_property(lambda self: self.report.meet)
    join = cached_property(lambda self: self.report.join)
    leq = cached_property(lambda self: self.report.leq)
    od_t = cached_property(lambda self: self.od and tuple(zip(*self.od)))
    op_t = cached_property(lambda self: self.op and tuple(zip(*self.op)))

    def _bind(self, pair):
        self.pair = pair
        self.E, self.F = (pair.exists.images, pair.forall.images) if pair else (None, None)
        self.pair_name = ",".join(map(str, self.F)) if pair else None
        self.failures = {}

    def with_pair(self, pair):
        ctx = copy.copy(self)
        ctx._bind(pair)
        return ctx


_BE = ("pseudo_be",)
_BCK = ("pseudo_bck",)
_BND = ("pseudo_be", "bounded")


class Law(NamedTuple):
    """A catalog entry.  `hypothesis` names the flags that must hold and
    the derived tables that must exist (`ClassificationReport.unmet`),
    leaving out a table that a listed flag decides: odot exists iff
    has_pP holds, meet iff meet_semilattice, join iff join_semilattice."""

    id: str
    anchor: str
    arity: int                    # 0 means a global (whole-structure) law
    hypothesis: tuple             # names the report decides; () always applies
    check: object                 # arity >= 1: an expression over Ctx tables
                                  # (a, s, E, ...) and x, y, z, which must hold
                                  # at every tuple (`first_failure`); arity 0:
                                  # Ctx -> (ok, witness, instances)
    uses_pair: bool = True
    probe: bool = False           # excluded from verify_suite by default;
                                  # exists so search can adjudicate it


# ---------------------------------------------------------------- catalog

def _congruence_tables(ctx):
    """Per congruence, in order, the tables its laws read: a, s, cls (its
    classes), one_cls (the class of 1) and links, each x paired with the
    first element of its block where the two differ."""
    return [SimpleNamespace(a=ctx.a, s=ctx.s, cls=c.classes, one_cls=c.one_class(ctx.alg),
                            links=_ded._links(c.classes))
            for c in ctx.congruences]


def _over_congruences(body):
    """Wrap body(ctx, tables of a congruence) -> witness or None into a
    global check.  Its instance count is n^2 per congruence visited, up
    to and including a failing one: a fixed measure, not the tuples the
    body scanned (which may be none)."""
    def check(ctx):
        congs = ctx.once(_congruence_tables)
        for count, c in enumerate(congs, 1):
            bad = body(ctx, c)
            if bad is not None:
                return False, bad, count * ctx.n * ctx.n
        return True, None, len(congs) * ctx.n * ctx.n
    return check


def _first_pair(ctx, expr, source):    # the first (x, y) failing expr, or None
    hit = first_failure(ctx.n, 2, ((None, expr),), source)
    return hit and hit[1]


def _each_congruence(expr):
    """Global law: expr at every (x, y) over each congruence's tables."""
    return _over_congruences(lambda ctx, c: _first_pair(ctx, expr, c))


def _monadic(ctx, c):    # x ~ y implies Fx ~ Fy: the leader test over the kept links
    return _ded._disagreement(c.cls, c.links, maps=(ctx.F,)) is None


def _p6_cong_exists(ctx, c):
    if _monadic(ctx, c):
        return _first_pair(ctx, "cls[x] != cls[y] or cls[E[x]] == cls[E[y]]",
                           SimpleNamespace(E=ctx.E, cls=c.cls))


def _p6_cong_one_class_mds(ctx, c):    # None when [1] is a monadic DS
    if _monadic(ctx, c):
        d = ctx.once(_ds_by_members).get(c.one_cls)
        if d is None or not _ded.is_monadic_ds(d, ctx.pair):
            return tuple(sorted(c.one_cls))


def _p6_ds_upward(ctx):
    count = 0
    for ds in ctx.ds:
        for x in ds.members:
            ax = ctx.a[x]
            for y in range(ctx.n):
                count += 1
                if ax[y] == ctx.one and y not in ds.members:
                    return False, (x, y), count
    return True, None, count


def _p6_distributive_normal(ctx):
    bad = next((d for d in ctx.ds if not d.normal), None)
    return bad is None, bad and tuple(sorted(bad.members)), len(ctx.ds)


def _p6_monadic_ds_generated(ctx):
    fixed, _, _ = fixed_set(ctx.alg, ctx.pair)
    for count, ds in enumerate(ctx.ds, 1):
        generated = _ded.generated_ds(ctx.alg, ds.members & fixed)
        if _ded.is_monadic_ds(ds, ctx.pair) != (generated == ds):
            return False, tuple(sorted(ds.members)), count
    return True, None, len(ctx.ds)


def _fixed_subalgebra(ctx):
    fixed = frozenset(x for x in range(ctx.n) if ctx.E[x] == x)
    if ctx.one not in fixed:
        return False, (ctx.one,), 1
    for count, (x, y) in enumerate(product(fixed, repeat=2), 1):
        if ctx.a[x][y] not in fixed or ctx.s[x][y] not in fixed:
            return False, (x, y), count
    return True, None, count    # fixed holds one, so count = len(fixed) ** 2


def _fixed_images(ctx):
    fixed = frozenset(x for x in range(ctx.n) if ctx.E[x] == x)
    ok = fixed == frozenset(ctx.F) == frozenset(ctx.E)
    return ok, (None if ok else tuple(sorted(fixed))), ctx.n


def _fixed_full_iff_id(ctx):
    fixed_all = all(ctx.E[x] == x for x in range(ctx.n))
    is_id = (ctx.pair.exists.is_identity() and ctx.pair.forall.is_identity())
    return fixed_all == is_id, (None if fixed_all == is_id else ()), ctx.n


def _kernel_trivial(ctx):
    ker = [x for x in range(ctx.n) if ctx.F[x] == ctx.one]
    ok = ker == [ctx.one]
    return ok, (None if ok else tuple(ker)), ctx.n


def _surjective_id(ctx):
    ok = len(set(ctx.F)) < ctx.n or ctx.pair.forall.is_identity()
    return ok, (None if ok else ()), ctx.n


def _iff_pointwise(lhs, rhs):
    """Global law: (for all x,y: lhs) iff (for all x,y: rhs), each side an
    expression over Ctx tables and x, y as a law's check is."""
    def check(ctx):
        l, r = (first_failure(ctx.n, 2, ((None, side),), ctx) is None for side in (lhs, rhs))
        return l == r, (None if l == r else ()), 2 * ctx.n * ctx.n
    return check


@cache
def catalog() -> tuple[Law, ...]:
    """Every law, sorted by id: one immutable tuple, built on the first call."""
    L = []
    add = L.append

    # -------- structural laws of the two implications
    exchange = "a[x][s[y][z]] == s[y][a[x][z]]"
    add(Law("BE.exchange_dual", "x ~> (y -> z) = y -> (x ~> z)", 3, _BE, dual(exchange),
            uses_pair=False))
    add(Law("BE.exchange", "x -> (y ~> z) = y ~> (x -> z)", 3, _BE, exchange, uses_pair=False))
    add(Law("BE.transitive_T", "under (T): x <= y and y <= z imply x <= z", 3,
            ("pseudo_be", "condition_T"), "not (leq[x][y] and leq[y][z]) or leq[x][z]",
            uses_pair=False))
    add(Law("BE.const_upper_mixed", "x -> (y ~> x) = 1 and x ~> (y -> x) = 1", 2, _BE,
            both("a[x][s[y][x]] == one"), uses_pair=False))
    add(Law("BE.const_upper", "x -> (y -> x) = 1 and x ~> (y ~> x) = 1", 2, _BE,
            both("a[x][a[y][x]] == one"), uses_pair=False))
    add(Law("BE.cup_upper", "x -> ((x -> y) ~> y) = 1 and x ~> ((x ~> y) -> y) = 1", 2, _BE,
            both("a[x][s[a[x][y]][y]] == one"), uses_pair=False))
    antitone = f"not leq[x][y] or ({both('leq[a[y][z]][a[x][z]]')})"
    monotone = f"not leq[x][y] or ({both('leq[a[z][x]][a[z][y]]')})"
    add(Law("A.antitone_first",
            "under (A): x <= y implies y -> z <= x -> z and y ~> z <= x ~> z",
            3, ("pseudo_be", "condition_A"), antitone, uses_pair=False))
    add(Law("M.monotone_second",
            "under (M): x <= y implies z -> x <= z -> y and z ~> x <= z ~> y",
            3, ("pseudo_be", "condition_M"), monotone, uses_pair=False))
    add(Law("BE.distributive_i", "x -> (y ~> z) = (x -> y) ~> (x -> z)",
            3, ("pseudo_be", "distributive_i"),
            "a[x][s[y][z]] == s[a[x][y]][a[x][z]]", uses_pair=False))
    add(Law("BCK.antitone", "x <= y implies y -> z <= x -> z and y ~> z <= x ~> z",
            3, _BCK, antitone, uses_pair=False))
    add(Law("BCK.monotone", "x <= y implies z -> x <= z -> y and z ~> x <= z ~> y",
            3, _BCK, monotone, uses_pair=False))
    add(Law("BCK.inner_monotone",
            "x -> y <= (z -> x) -> (z -> y) and x ~> y <= (z ~> x) ~> (z ~> y)", 3, _BCK,
            both("leq[a[x][y]][a[a[z][x]][a[z][y]]]"), uses_pair=False))
    add(Law("BCK.cup_ge", "x <= (x -> y) ~> y and x <= (x ~> y) -> y", 2, _BCK,
            both("leq[x][s[a[x][y]][y]]"), uses_pair=False))

    # -------- bounded negation laws
    add(Law("BND.neg_constants", "1- = 1~ = 0 and 0- = 0~ = 1", 0, _BND,
            lambda c: (c.nm[c.one] == c.ns[c.one] == c.zero
                       and c.nm[c.zero] == c.ns[c.zero] == c.one,
                       None, 4), uses_pair=False))
    _BBCK = ("pseudo_bck", "bounded")
    add(Law("BND.double_neg_ge", "x <= x-~ and x <= x~-", 1, _BBCK,
            both("leq[x][ns[nm[x]]]"), uses_pair=False))
    add(Law("BND.neg_antitone", "x <= y implies y- <= x- and y~ <= x~", 2, _BBCK,
            f"not leq[x][y] or ({both('leq[nm[y]][nm[x]]')})", uses_pair=False))
    add(Law("BND.triple_neg", "x-~- = x- and x~-~ = x~", 1, _BBCK,
            both("nm[ns[nm[x]]] == nm[x]"), uses_pair=False))

    # -------- pseudo-product laws
    _PP = ("pseudo_bck", "has_pP")
    add(Law("PP.le_both", "x*y <= x and x*y <= y", 2, _PP,
            "leq[od[x][y]][x] and leq[od[x][y]][y]", uses_pair=False))
    add(Law("PP.residual_le", "(x -> y)*x <= x,y and x*(x ~> y) <= x,y", 2, _PP,
            both("leq[od[a[x][y]][x]][x] and leq[od[a[x][y]][x]][y]"), uses_pair=False))
    add(Law("PP.monotone", "x <= y implies x*z <= y*z and z*x <= z*y", 3, _PP,
            f"not leq[x][y] or ({both('leq[od[x][z]][od[y][z]]')})", uses_pair=False))
    add(Law("PP.curry", "x -> (y -> z) = x*y -> z and x ~> (y ~> z) = y*x ~> z", 3, _PP,
            both("a[x][a[y][z]] == a[od[x][y]][z]"), uses_pair=False))

    # -------- monadic pair laws (any monadic pseudo BE-algebra)
    add(Law("P3.exists_one", "E1 = 1", 0, _BE, lambda c: (c.E[c.one] == c.one, None, 1)))
    add(Law("P3.forall_one_const", "F1 = 1", 0, _BE,
            lambda c: (c.F[c.one] == c.one, None, 1)))
    add(Law("P3.increasing_decreasing", "x <= Ex and Fx <= x", 1, _BE,
            "leq[x][E[x]] and leq[F[x]][x]"))
    add(Law("P3.forall_exists", "FEx = Ex", 1, _BE, "F[E[x]] == E[x]"))
    add(Law("P3.fixed_iff", "Fx = x iff Ex = x", 1, _BE, "(F[x] == x) == (E[x] == x)"))
    add(Law("P3.exists_idem", "EEx = Ex", 1, _BE, "E[E[x]] == E[x]"))
    add(Law("P3.forall_idem", "FFx = Fx", 1, _BE, "F[F[x]] == F[x]"))
    add(Law("P3.stable_exists", "F(Ex -> Ey) = Ex -> Ey (both arrows)", 2, _BE,
            both("F[a[E[x]][E[y]]] == a[E[x]][E[y]]")))
    add(Law("P3.leq_exists_iff", "x <= Ey iff Ex <= Ey", 2, _BE, "leq[x][E[y]] == leq[E[x]][E[y]]"))
    add(Law("P3.forall_leq_iff", "Fx <= y iff Fx <= Fy", 2, _BE, "leq[F[x]][y] == leq[F[x]][F[y]]"))
    add(Law("P3.forall_arrow", "F(Fx -> y) = Fx -> Fy (both arrows)", 2, _BE,
            both("F[a[F[x]][y]] == a[F[x]][F[y]]")))
    add(Law("P3.forall_arrow_exists", "F(Fx -> Ey) = Fx -> Ey (both arrows)", 2, _BE,
            both("F[a[F[x]][E[y]]] == a[F[x]][E[y]]")))
    add(Law("P3.arrow_forall", "F(x -> Fy) = Ex -> Fy (both arrows)", 2, _BE,
            both("F[a[x][F[y]]] == a[E[x]][F[y]]")))
    add(Law("P3.forall_forall", "F(Fx -> Fy) = Fx -> Fy (both arrows)", 2, _BE,
            both("F[a[F[x]][F[y]]] == a[F[x]][F[y]]")))
    add(Law("P3.exists_le_stable", "E(Ex -> Ey) <= Ex -> Ey (both arrows)", 2, _BE,
            both("leq[E[a[E[x]][E[y]]]][a[E[x]][E[y]]]")))
    add(Law("P3.forall_one", "Fx = 1 iff x = 1", 1, _BE, "(F[x] == one) == (x == one)"))
    isotone = "not leq[x][y] or (leq[E[x]][E[y]] and leq[F[x]][F[y]])"
    add(Law("P3.isotone_T", "under (T): x <= y implies Ex <= Ey and Fx <= Fy",
            2, ("pseudo_be", "condition_T"), isotone))
    add(Law("P3.isotone_unconditional",
            "x <= y implies Ex <= Ey and Fx <= Fy (no (T) hypothesis; probe)",
            2, _BE, isotone, probe=True))
    add(Law("P3.residuated_T", "under (T): Ex <= y iff x <= Fy", 2,
            ("pseudo_be", "condition_T"), "leq[E[x]][y] == leq[x][F[y]]"))

    # -------- fixed-set laws
    add(Law("P3f.subalgebra", "the fixed set contains 1 and is closed under -> and ~>",
            0, _BE, _fixed_subalgebra))
    add(Law("P3f.images", "fixed set = Im(F) = Im(E)", 0, _BE, _fixed_images))
    add(Law("P3f.full_iff_id", "fixed set = A iff E = F = Id", 0, _BE, _fixed_full_iff_id))
    add(Law("P3f.kernel", "Ker(F) = {1}", 0, _BE, _kernel_trivial))
    add(Law("P3f.surjective_id", "F surjective implies F = Id", 0, _BE, _surjective_id))

    # -------- bounded monadic laws
    add(Law("P3b.zero_fixed", "E0 = 0 and F0 = 0", 0, _BND,
            lambda c: (c.E[c.zero] == c.zero and c.F[c.zero] == c.zero, None, 2)))
    add(Law("P3b.neg_exchange", "(Ex)- = F(x-) and (Ex)~ = F(x~)", 1, _BND,
            both("nm[E[x]] == F[nm[x]]")))
    add(Law("P3b.forall_neg_stable", "F((Ex)-) = (Ex)- and F((Ex)~) = (Ex)~", 1, _BND,
            both("F[nm[E[x]]] == nm[E[x]]")))
    add(Law("P3b.forall_forall_neg", "F((Fx)-) = (Fx)- and F((Fx)~) = (Fx)~", 1, _BND,
            both("F[nm[F[x]]] == nm[F[x]]")))
    add(Law("P3b.exists_exists_neg", "E((Ex)-) = (Ex)- and E((Ex)~) = (Ex)~", 1, _BND,
            both("E[nm[E[x]]] == nm[E[x]]")))
    add(Law("P3b.exists_zero_iff", "Ex = 0 iff x = 0", 1, _BND, "(E[x] == zero) == (x == zero)"))

    # -------- involutive duality
    add(Law("INV.dual_formulas", "Ex = (F(x-))~ = (F(x~))- and Fx = (E(x-))~ = (E(x~))-",
            1, ("pseudo_be", "involutive"),
            "E[x] == ns[F[nm[x]]] == nm[F[ns[x]]] and F[x] == ns[E[nm[x]]] == nm[E[ns[x]]]"))

    # -------- bounded commutative exchange laws
    _BC = ("pseudo_be", "bounded", "commutative", "has_pP", "lattice", "oplus")
    add(Law("L4.oplus_demorgan", "x (+) y = (y- * x-)~ = (y~ * x~)-", 2, _BC,
            "op[x][y] == ns[od[nm[y]][nm[x]]] == nm[od[ns[y]][ns[x]]]", uses_pair=False))
    add(Law("P4.meet_join_equiv",
            "F(x^y) = Fx^Fy (all x,y) iff E(xvy) = Ex v Ey (all x,y)", 0, _BC,
            _iff_pointwise("F[meet[x][y]] == meet[F[x]][F[y]]",
                           "E[join[x][y]] == join[E[x]][E[y]]")))
    add(Law("P4.odot_oplus_equiv",
            "F(x*y) = Fx*Fy (all x,y) iff E(x(+)y) = Ex(+)Ey (all x,y)", 0, _BC,
            _iff_pointwise("F[od[x][y]] == od[F[x]][F[y]]", "E[op[x][y]] == op[E[x]][E[y]]")))
    add(Law("P4.oplus_odot_equiv",
            "F(x(+)y) = Fx(+)Fy (all x,y) iff E(x*y) = Ex*Ey (all x,y)", 0, _BC,
            _iff_pointwise("F[op[x][y]] == op[F[x]][F[y]]", "E[od[x][y]] == od[E[x]][E[y]]")))

    # -------- monadic pseudo BCK laws
    add(Law("P5.forall_arrow_compat",
            "F(x -> y) ~> (Fx -> Fy) = 1 and F(x ~> y) -> (Fx ~> Fy) = 1", 2, _BCK,
            both("s[F[a[x][y]]][a[F[x]][F[y]]] == one")))
    add(Law("P5.forall_to_exists",
            "F(x -> y) ~> (Ex -> Ey) = 1 and F(x ~> y) -> (Ex ~> Ey) = 1", 2, _BCK,
            both("s[F[a[x][y]]][a[E[x]][E[y]]] == one")))
    add(Law("P5.exists_stable", "E(Ex -> Ey) = Ex -> Ey (both arrows)", 2, _BCK,
            both("E[a[E[x]][E[y]]] == a[E[x]][E[y]]")))
    add(Law("P5.forall_image_stable",
            "E(Fx -> Fy) = Fx -> Fy and F(Fx -> Fy) = Fx -> Fy (both arrows)", 2, _BCK,
            both("E[a[F[x]][F[y]]] == a[F[x]][F[y]] and F[a[F[x]][F[y]]] == a[F[x]][F[y]]")))

    # -------- semilattice laws
    _MEET = ("pseudo_bck", "meet_semilattice")
    _JOIN = ("pseudo_bck", "join_semilattice")
    add(Law("P5.meet_forall", "F(x^y) = Fx ^ Fy", 2, _MEET, "F[meet[x][y]] == meet[F[x]][F[y]]"))
    add(Law("P5.meet_exists_le", "E(x^y) <= Ex ^ Ey", 2, _MEET,
            "leq[E[meet[x][y]]][meet[E[x]][E[y]]]"))
    add(Law("P5.meet_mixed_le", "F(x^y) <= Ex ^ Ey", 2, _MEET,
            "leq[F[meet[x][y]]][meet[E[x]][E[y]]]"))
    add(Law("P5.meet_stable", "E(Ex^Ey) = Ex^Ey and F(Ex^Ey) = Ex^Ey", 2, _MEET,
            "E[meet[E[x]][E[y]]] == meet[E[x]][E[y]] and F[meet[E[x]][E[y]]] == meet[E[x]][E[y]]"))
    add(Law("P5.join_exists", "E(xvy) = Ex v Ey", 2, _JOIN, "E[join[x][y]] == join[E[x]][E[y]]"))
    add(Law("P5.join_stable", "F(ExvEy) = ExvEy and E(ExvEy) = ExvEy", 2, _JOIN,
            "F[join[E[x]][E[y]]] == join[E[x]][E[y]] and E[join[E[x]][E[y]]] == join[E[x]][E[y]]"))
    add(Law("P5.join_mixed_le", "Fx v Ey <= F(x v Ey)", 2, _JOIN,
            "leq[join[F[x]][E[y]]][F[join[x][E[y]]]]"))

    # -------- monadic pseudo-product laws
    add(Law("P5.pp_exists_stable", "E(Ex*Ey) = Ex*Ey", 2, _PP,
            "E[od[E[x]][E[y]]] == od[E[x]][E[y]]"))
    add(Law("P5.pp_exists_le", "E(x*y) <= Ex*Ey", 2, _PP, "leq[E[od[x][y]]][od[E[x]][E[y]]]"))
    add(Law("P5.pp_forall_stable", "F(Fx*Fy) = Fx*Fy", 2, _PP,
            "F[od[F[x]][F[y]]] == od[F[x]][F[y]]"))
    add(Law("P5.pp_forall_le", "Fx*Fy <= F(x*y) and Fx*Fy <= E(x*y)", 2, _PP,
            "leq[od[F[x]][F[y]]][F[od[x][y]]] and leq[od[F[x]][F[y]]][E[od[x][y]]]"))
    add(Law("P5.pp_transfer", "E(Ex*y) = Ex*Ey = E(x*Ey)", 2, _PP,
            "E[od[E[x]][y]] == od[E[x]][E[y]] == E[od[x][E[y]]]"))
    add(Law("P5.pp_mixed", "E(x*Fy) = Ex*Fy and E(Fx*y) = Fx*Ey", 2, _PP,
            "E[od[x][F[y]]] == od[E[x]][F[y]] and E[od[F[x]][y]] == od[F[x]][E[y]]"))

    # -------- bounded commutative BCK oplus laws
    _BCBCK = ("pseudo_bck", "bounded", "commutative", "oplus")
    add(Law("P5.oplus_stable", "F(Fx(+)Fy) = Fx(+)Fy", 2, _BCBCK,
            "F[op[F[x]][F[y]]] == op[F[x]][F[y]]"))
    add(Law("P5.oplus_le", "Fx(+)Fy <= F(x(+)y)", 2, _BCBCK, "leq[op[F[x]][F[y]]][F[op[x][y]]]"))

    # -------- monadic pseudo-hoop law
    add(Law("P5.hoop_meet", "F(x -> y)*x <= Ex ^ Ey and x*F(x ~> y) <= Ex ^ Ey", 2,
            ("pseudo_hoop", "meet_semilattice"),
            both("leq[od[F[a[x][y]]][x]][meet[E[x]][E[y]]]")))

    # -------- congruence / deductive-system laws
    add(Law("L6.arrow_iff_squig_one_class",
            "for every congruence: x -> y in [1] iff x ~> y in [1]", 0, _BE,
            _each_congruence("(a[x][y] in one_cls) == (s[x][y] in one_cls)"), uses_pair=False))
    add(Law("L6.class_implications",
            "(x,y) related implies x -> y, y -> x, x ~> y, y ~> x in [1]", 0, _BE,
            _each_congruence("cls[x] != cls[y] or {a[x][y], a[y][x], s[x][y], s[y][x]}"
                             " <= one_cls"), uses_pair=False))
    add(Law("L6.commutative_converse",
            "commutative: x -> y, y -> x in [1] implies (x,y) related", 0,
            ("pseudo_be", "commutative"),
            _each_congruence("not (a[x][y] in one_cls and a[y][x] in one_cls)"
                             " or cls[x] == cls[y]"), uses_pair=False))
    add(Law("P6.ds_upward", "D a deductive system, x in D, x <= y imply y in D",
            0, _BE, _p6_ds_upward, uses_pair=False))
    add(Law("P6.distributive_normal", "distributive: every deductive system is normal",
            0, ("pseudo_be", "distributive_i"), _p6_distributive_normal, uses_pair=False))
    add(Law("P6.monadic_ds_generated",
            "under (M): D monadic iff D is generated by its fixed part", 0,
            ("pseudo_be", "condition_M"), _p6_monadic_ds_generated))
    add(Law("P6.monadic_con_one_class",
            "monadic congruence: [1] is a monadic deductive system", 0, _BE,
            _over_congruences(_p6_cong_one_class_mds)))
    add(Law("P6.commutative_exists_cong",
            "commutative: monadic congruence relates Ex and Ey when it relates x,y",
            0, ("pseudo_be", "commutative"), _over_congruences(_p6_cong_exists)))

    # -------- axiom probes for the search module
    add(Law("AX.refl", "x <= x", 1, _BE, "leq[x][x]", uses_pair=False))
    add(Law("AX.psbck6_antisym", "x <= y and y <= x imply x = y (probe)", 2, _BE,
            "not (leq[x][y] and leq[y][x]) or x == y", uses_pair=False, probe=True))

    if len({law.id for law in L}) != len(L):
        raise InvariantViolated("law ids must be unique")
    return tuple(sorted(L, key=lambda law: law.id))


@cache
def _law_by_id() -> dict[str, Law]:
    return {law.id: law for law in catalog()}


def catalog_json() -> list[dict]:
    return [{"id": l.id, "anchor": l.anchor, "arity": l.arity,
             "uses_pair": l.uses_pair, "probe": l.probe} for l in catalog()]


# ------------------------------------------------------------- suite runner

def evaluate_law(law: Law, ctx: Ctx) -> Verdict:
    """The law's verdict on ctx, with its instance count and, for a law
    that reads the pair, the pair's name: not applicable without a pair
    or when the hypothesis does not hold.  A pointwise law's first failure
    is read from `ctx.failures`, else found by scanning the law alone."""
    pair = ctx.pair_name if law.uses_pair else None
    if (law.uses_pair and ctx.pair is None) or not ctx.applies(law.hypothesis):
        return Verdict(law.id, NOT_APPLICABLE, None, 0, pair)
    if law.arity == 0:
        ok, witness, instances = law.check(ctx)
        return Verdict(law.id, HOLDS if ok else FAILS, witness, instances, pair)
    hit = (ctx.failures[law.check] if law.check in ctx.failures
           else first_failure(ctx.n, law.arity, ((law.id, law.check),), ctx))
    if hit is None:
        return Verdict(law.id, HOLDS, None, ctx.n ** law.arity, pair)
    return Verdict(law.id, FAILS, hit[1], hit[2], pair)


def _names(value, what: str, known, unknown: str) -> tuple:
    """value read once into a tuple of names; PreconditionUnmet unless it is
    an iterable, not a string, of strings all in known (else listed, sorted)."""
    if isinstance(value, str):
        raise PreconditionUnmet(f"{what}, not the string {value!r}")
    try:
        names = tuple(value)
    except TypeError:           # not iterable
        names = (None,)
    if not all(isinstance(name, str) for name in names):
        raise PreconditionUnmet(f"{what}, got {value!r}")
    bad = sorted({name for name in names if name not in known})
    if bad:
        raise PreconditionUnmet(f"{unknown}: {bad}")
    return names


def verify_suite(alg: FiniteAlgebra, pairs, law_ids=None,
                 include_probes: bool = False) -> list[Verdict]:
    """Evaluate the catalog over the algebra and the given monadic pairs.

    Pair-independent laws are evaluated once; pair laws once per pair.
    Probe laws (documented open questions) are skipped unless requested.
    Hypotheses read the algebra's one classification (`classify`), and
    each distinct hypothesis is decided once (`Ctx.applies`).  law_ids, when
    given, is an iterable of law ids, read once (`_names`).  Each pair must
    be two self-maps of the carrier; each context is scanned once per arity
    (`first_failures`).
    """
    base = Ctx(alg)
    laws = [l for l in catalog() if include_probes or not l.probe]
    if law_ids is not None:
        wanted = _names(law_ids, "law_ids must list law ids", _law_by_id(), "unknown law ids")
        laws = [l for l in laws if l.id in wanted]
    pair_ctxs = [base.with_pair(pair) for pair in pairs]
    for ctx in pair_ctxs:
        if ctx.pair is None or not all(len(m) == ctx.n and set(m.images).issubset(range(ctx.n))
                                       for m in ctx.pair):
            raise PreconditionUnmet(f"verify_suite needs self-maps of the carrier, got {ctx.pair}")
    groups = {}     # (uses_pair, arity) -> the applicable pointwise laws' expressions
    for l in [l for l in laws if l.arity and base.applies(l.hypothesis)]:
        groups.setdefault((l.uses_pair, l.arity), []).append(l.check)
    for ctx in [base, *pair_ctxs]:
        for (uses_pair, arity), group in groups.items():
            if uses_pair == (ctx.pair is not None):
                ctx.failures.update(first_failures(ctx.n, arity, group, ctx))
    return [evaluate_law(law, ctx) for law in laws
            for ctx in (pair_ctxs if law.uses_pair else [base])]


# ------------------------------------------------------------------ search

class _SearchFields(NamedTuple):
    law: str
    max_size: int = 4
    min_size: int = 2
    require: tuple = ()            # classification flags the algebra must hold
    iso_reject: bool = False
    budget: int | None = None


class SearchSpec(_SearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not (2 <= spec.min_size <= spec.max_size <= 5):
            raise PreconditionUnmet("search sizes must satisfy 2 <= min <= max <= 5")
        if spec.budget is not None and spec.budget < 0:
            raise PreconditionUnmet(f"search budget must be >= 0, got {spec.budget}")
        require = _names(spec.require, "require must list flag names",
                         {*FLAG_NAMES, *FLAG_ALIASES}, "unknown classification flags in require")
        return super().__new__(cls, **{**spec._asdict(), "require": require})

    @classmethod
    def _make(cls, iterable) -> "SearchSpec":      # so that _replace validates
        return cls(*iterable)


class SearchResult(SimpleNamespace):
    """Filled in while the search runs: found is (FiniteAlgebra,
    MonadicPair|None, witness) or None.  Equal by fields, unhashable."""

    def __init__(self, found: tuple | None, visited_by_size: dict | None = None,
                 exhausted: bool = False):
        super().__init__(found=found, visited_by_size=visited_by_size or {}, exhausted=exhausted)

    @property
    def visited(self) -> int:
        return sum(self.visited_by_size.values())


def free_cells(n: int) -> list:
    """Table cells not forced by the unit axioms: the row of 1 is the
    identity, the column of 1 and the diagonal are constantly 1."""
    return [(x, y) for x in range(1, n) for y in range(1, n) if x != y]


def candidate_count(n: int) -> int:
    """Closed-form number of one-table candidates consistent with the
    forced rows/columns: n choices for each of the (n-1)(n-2) free cells."""
    return n ** ((n - 1) * (n - 2))


def _models(n):
    """Every pseudo BE table pair on n elements (1 = element 0), as
    (rank, arrow, squig), in the order of the scan over all candidate
    pairs: arrow cell values lexicographic in `free_cells` order, then
    squig values the same way.  `rank` is the pair's 1-based position
    in that scan, so candidates in pruned subtrees are counted."""
    cells = free_cells(n)
    k = len(cells)
    weight = [n ** (k - 1 - i) for i in range(k)]
    pos = [[k] * n for _ in range(n)]        # depth at which a cell is set
    for d, (x, y) in enumerate(cells):
        pos[x][y] = d
    col_before = [[p for p, q in cells[:d] if q == x]
                  for d, (x, _) in enumerate(cells)]
    a = [[y if x == 0 else 0 for y in range(n)] for x in range(n)]

    # psBE4 at z = y reads x -> (y ~> y) = y ~> (x -> y), i.e.
    # y ~> (x -> y) = x -> 1 = 1, and psBE5 turns that into
    # y -> (x -> y) = 1: an arrow table breaking it has no squig partner.
    def arrow_ok(d):
        x, y = cells[d]
        v = a[x][y]
        if v == 0:
            return True
        if v != y and pos[y][v] < d and a[y][v]:   # the law at (x, y)
            return False
        # the law at an earlier (p, x) with p -> x = y needs x -> y = 1
        return all(a[p][x] != y for p in col_before[d])

    for _ in backtrack([(a[x], y) for x, y in cells], [range(n)] * k, arrow_ok):
        arrow = tuple(map(tuple, a))
        base = sum(a[x][y] * w for (x, y), w in zip(cells, weight)) * n ** k
        # psBE5: a squig cell is 1 exactly where the arrow cell is
        s = [list(row) if x == 0 else [0] * n for x, row in enumerate(arrow)]
        open_cells = [c for c in cells if arrow[c[0]][c[1]]]
        depth = [[-1] * n for _ in range(n)]
        for d, (x, y) in enumerate(open_cells):
            depth[x][y] = d
        # psBE4 instance (x, y, z) reads squig cells (y, z) and (y, x -> z):
        # test it once both are set, or now if neither is open.  It holds
        # by the unit rows and columns when 1 is among x, y, z, and when
        # z = y both sides are 1 (psBE5 and the arrow pruning).
        checks = [[] for _ in open_cells]
        fixed = []
        for x, y, z in product(range(1, n), repeat=3):
            if z != y:
                w = arrow[x][z]
                d = max(depth[y][z], depth[y][w])
                (checks[d] if d >= 0 else fixed).append((arrow[x], s[y], z, w))
        if not all(ar[sr[z]] == sr[w] for ar, sr, z, w in fixed):
            continue

        def squig_ok(d):
            return all(ar[sr[z]] == sr[w] for ar, sr, z, w in checks[d])

        for _ in backtrack([(s[x], y) for x, y in open_cells],
                           [range(1, n)] * len(open_cells), squig_ok):
            yield (base + sum(s[x][y] * w for (x, y), w in zip(cells, weight))
                   + 1, arrow, tuple(map(tuple, s)))


def _is_canonical(n, arrow, squig):
    # lexicographically minimal table pair under carrier permutations
    # fixing element 0 (the constant 1)
    key = (arrow, squig)
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        ra = tuple(tuple(inv[arrow[p[x]][p[y]]] for y in range(n)) for x in range(n))
        rs = tuple(tuple(inv[squig[p[x]][p[y]]] for y in range(n)) for x in range(n))
        if (ra, rs) < key:
            return False
    return True


def _law_counterexample(law: Law, alg: FiniteAlgebra, spec: SearchSpec):
    ctx = Ctx(alg)
    report = ctx.report
    if not report.holds("pseudo_be"):
        raise InvariantViolated(
            f"search model {alg.arrow}, {alg.squig} is not a pseudo "
            f"BE-algebra: {report['pseudo_be']}")
    if report.unmet(spec.require) is not None or not ctx.applies(law.hypothesis):
        return None     # filtered out, or every verdict would be not applicable
    for pair in enumerate_mop(alg) if law.uses_pair else [None]:
        v = evaluate_law(law, ctx.with_pair(pair) if pair else ctx)
        if v.status == FAILS:
            return (alg, pair, v.witness)
    return None


def search_counterexample(spec: SearchSpec) -> SearchResult:
    """Exhaustive search of small algebras for a failure of one law.

    The candidates are all (arrow, squig) table pairs consistent with
    the forced unit rows/columns, in a fixed scan order (see `_models`).
    They are not built one by one: a backtracking search assigns one
    cell at a time and tests psBE4/psBE5 as soon as the cells they read
    are set, so a failing prefix prunes every candidate that extends it.
    Arrow tables are also pruned on y -> (x -> y) = 1, a consequence of
    psBE4 and psBE5.  Each pseudo BE-algebra found is then filtered by
    the required classification flags (and by `_is_canonical` under
    `iso_reject`), and the target law is evaluated on every monadic pair.

    `visited_by_size[n]` counts the candidates covered in scan order,
    pruned subtrees included: the rank of the counterexample, or
    candidate_count(n)**2 when size n is exhausted, so exhaustiveness is
    checkable against `candidate_count`.  The budget bounds the same
    count: when it runs out first, the result comes back with found None
    and exhausted False.  Any returned counterexample has been re-checked
    from scratch before being returned.
    """
    law = _law_by_id().get(spec.law)
    if law is None:
        raise PreconditionUnmet(f"unknown law id {spec.law!r}")
    result = SearchResult(found=None)
    for n in range(spec.min_size, spec.max_size + 1):
        remaining = (inf if spec.budget is None
                     else max(spec.budget - result.visited, 0))
        total = candidate_count(n) ** 2
        for rank, arrow, squig in _models(n):
            if rank > remaining:
                break
            if spec.iso_reject and not _is_canonical(n, arrow, squig):
                continue
            alg = FiniteAlgebra(
                name=f"search_{n}",
                element_names=("1",) + tuple(f"e{i}" for i in range(1, n)),
                one=0, arrow=arrow, squig=squig)
            hit = _law_counterexample(law, alg, spec)
            if hit is not None:
                result.visited_by_size[n] = rank
                # soundness: re-verify the witness on a fresh copy, whose
                # classification is computed again, not read from hit[0]
                if _law_counterexample(law, hit[0]._replace(), spec) is None:
                    raise InvariantViolated(
                        f"counterexample to {law.id} failed re-verification")
                result.found = hit
                return result
        if total > remaining:
            result.visited_by_size[n] = remaining
            return result
        result.visited_by_size[n] = total
    result.exhausted = True
    return result

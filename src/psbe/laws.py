"""Executable law catalog, suite runner and bounded counterexample search.

Every law carries an anchor (the statement `psbe laws` shows), a
hypothesis (the flags and tables its algebra's report must meet,
`ClassificationReport.unmet`) and a check.  A pointwise law is written
once, as its anchor, a formula (notation in `classify`) that
`pointwise_law` compiles into its check, the expression over the `Ctx`
tables that `classify.first_failure` scans; a leading "under (X):" adds
condition (X) to its hypothesis.  A global law's check is a function of
the context: compiled from its anchor too when "for every [monadic]
congruence C:" leads it or "(all x,y)" closes its parts, else by hand.
`verify_suite` evaluates the catalog against an algebra and monadic pairs;
`search_counterexample` enumerates small algebras for a failure of one law.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import permutations, product
from math import inf
from operator import and_, attrgetter, itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet, _indices, _listed
from .classify import (FAILS, FLAG_ALIASES, FLAG_NAMES, HOLDS, NOT_APPLICABLE, Verdict,
                       InvariantViolated, backtrack, classify, expression, first_failing_bit,
                       first_failure, first_failures, formula)
from . import deduction as _ded, quantifiers as _q


class Ctx:
    """Evaluation context: one algebra, its classification and
    (optionally) one monadic pair, with the tables a compiled formula names,
    under the names the algebra and its report carry: arrow, squig, leq,
    neg_minus, neg_sim, odot, oplus, meet, join, one and zero, and the
    pair's E and F; a congruence law's failure mask reads ALL, EQ and ONE
    (`_congruence_masks`) and MON, bit c standing for the c-th congruence.
    `report` is the algebra's one ClassificationReport (`classify`), whose
    tables are read off it on each use.
    `zero` is the declared zero, not `report.zero`, until ROADMAP item 2.
    `ds`, `congruences`, `hypotheses` (the decided ones), the masks and
    `once` are kept on the algebra object; `failures` (`verify_suite`'s first
    failures, by expression), `monadic_members` (its monadic DS's members)
    and MON (its monadic congruences) per pair."""

    def __init__(self, alg: FiniteAlgebra, pair: _q.MonadicPair | None = None):
        self.alg = alg
        self.report, _ = classify(alg)
        self.hypotheses = alg.kept("hypotheses", lambda alg: {})
        self.n, self.one, self.zero, self.arrow, self.squig = (alg.size, alg.one, alg.zero,
                                                               alg.arrow, alg.squig)
        self._bind(pair)

    def once(self, fn):
        """fn(self), once per algebra object (`FiniteAlgebra.kept`); fn reads no pair."""
        return self.alg.kept(fn, lambda alg: fn(self))

    def applies(self, hypothesis) -> bool:
        """Whether the report meets hypothesis, decided on a miss (`unmet`)."""
        met = self.hypotheses.get(hypothesis)
        if met is None:
            met = self.hypotheses[hypothesis] = self.report.unmet(hypothesis) is None
        return met

    # read through the module, where perfbench traces them
    ds = property(lambda self: _ded.enumerate_ds(self.alg))
    congruences = property(lambda self: _ded.enumerate_congruences(self.alg))

    leq, neg_minus, neg_sim, odot, oplus, meet, join = (property(attrgetter("report." + t))
        for t in ("leq", "neg_minus", "neg_sim", "odot", "oplus", "meet", "join"))
    ALL, EQ, ONE = (property(lambda self, i=i: self.once(_congruence_masks)[i]) for i in range(3))

    @property
    def monadic_members(self) -> set:
        if self._mds is None:
            self._mds = {d.members for d in self.ds if _ded._maps_into(d.members, self.F)}
        return self._mds

    @property
    def MON(self) -> int:
        if self._mon is None:
            self._mon = _monadic_mask(self)
        return self._mon

    def _bind(self, pair):
        self.pair = pair
        self.E, self.F = (pair.exists.images, pair.forall.images) if pair else (None, None)
        self.pair_name = ",".join(map(str, self.F)) if pair else None
        self.failures, self._mds, self._mon = {}, None, None

    def with_pair(self, pair):
        ctx = object.__new__(Ctx)
        ctx.__dict__.update(self.__dict__)
        ctx._bind(pair)
        return ctx


_BE, _BCK, _BND = ("pseudo_be",), ("pseudo_bck",), ("pseudo_be", "bounded")


class Law(NamedTuple):
    """A catalog entry.  `hypothesis` names the flags that must hold and
    the derived tables that must exist (`ClassificationReport.unmet`),
    leaving out a table that a listed flag decides: odot exists iff
    has_pP holds, meet iff meet_semilattice, join iff join_semilattice.
    A pointwise law's check, arity and uses_pair are derived from its
    anchor, a formula (`pointwise_law`); a global law's check (arity 0) is
    a function Ctx -> (ok, witness, instances)."""

    id: str
    anchor: str
    arity: int                    # 0 means a global (whole-structure) law
    hypothesis: tuple             # names the report decides; () always applies
    check: object                 # pointwise: an expression that must hold at every tuple
    uses_pair: bool = True
    probe: bool = False           # run by verify_suite only when named;
                                  # exists so search can adjudicate it


# ---------------------------------------------------------------- catalog

def _congruence_masks(ctx):
    """(ALL, EQ, ONE), bit c of each mask standing for the c-th congruence:
    ALL has a bit per congruence, EQ[x][y] those relating x and y, and ONE[x]
    = EQ[x][one] those putting x in the class of 1.  Read off label[x][k],
    the congruences with x in block k, in O(|Con| n + n^3) mask operations."""
    congs, label = ctx.congruences, [[0] * ctx.n for _ in range(ctx.n)]
    for c, cong in enumerate(congs):
        for x, k in enumerate(cong.classes):
            label[x][k] |= 1 << c
    eq = [[sum(map(and_, lx, ly)) for ly in label] for lx in label]    # x's labels are disjoint
    return (1 << len(congs)) - 1, eq, [row[ctx.one] for row in eq]


def _monadic_mask(ctx):
    """The monadic congruences of ctx's pair, a mask: x ~ y implies Fx ~ Fy,
    tested at every x < y for every congruence at once, in n^2/2 mask operations."""
    eq, f, bad = ctx.EQ, ctx.F, 0
    for x, fx in enumerate(f):
        row, images = eq[x], eq[fx]
        for y in range(x + 1, ctx.n):
            if f[y] != fx:
                bad |= row[y] & ~images[f[y]]
    return ctx.ALL & ~bad


def _first_congruence(ctx, hit):
    """(ok, witness, instances) of a law over the congruences that first
    fails at hit = (c, witness), or holds at hit None.  Its instance count
    is n^2 per congruence up to and including c (all of them when it
    holds): a fixed measure, not the tuples scanned (which may be none)."""
    if hit is None:
        return True, None, ctx.ALL.bit_length() * ctx.n * ctx.n
    return False, hit[1], (hit[0] + 1) * ctx.n * ctx.n


@cache
def _over_classes(tree, arity: int):
    """The check of a "for every [monadic] congruence C:" formula's tree: one scan
    of its failure mask over every congruence at once (`first_failing_bit`)."""
    expr = expression(tree, masks=True)
    return lambda ctx: _first_congruence(ctx, first_failing_bit(ctx.n, arity, expr, ctx))


@cache
def _closed_parts(tree):
    """The check of "X (all x,y) iff Y (all x,y)": X, then Y, scanned alone (n^2 each)."""
    scans = [((None, expression(part)),) for _, part in tree[1:]]

    def check(ctx):
        left, right = (first_failure(ctx.n, 2, checks, ctx) is None for checks in scans)
        return left == right, (None if left == right else ()), 2 * ctx.n * ctx.n
    return check


def _one_classes(ctx):
    """{members of a DS: the congruences whose class of 1 it is, a mask}."""
    masks = {}
    for d in ctx.ds:
        mask = ctx.ALL
        for x, one_x in enumerate(ctx.ONE):
            mask &= one_x if x in d.members else ~one_x
        masks[d.members] = mask
    return masks


def _p6_cong_one_class_mds(ctx):    # a monadic congruence whose [1] is no monadic DS
    ones, ok = ctx.once(_one_classes), 0
    for members in ctx.monadic_members:
        ok |= ones[members]
    bad = ctx.MON & ~ok
    if not bad:
        return _first_congruence(ctx, None)
    c = (bad & -bad).bit_length() - 1
    return _first_congruence(ctx, (c, tuple(x for x, m in enumerate(ctx.ONE) if m >> c & 1)))


def _p6_ds_upward(ctx):
    count = 0
    for ds in ctx.ds:
        for x in ds.members:
            ax = ctx.arrow[x]
            for y in range(ctx.n):
                count += 1
                if ax[y] == ctx.one and y not in ds.members:
                    return False, (x, y), count
    return True, None, count


def _p6_distributive_normal(ctx):
    bad = next((d for d in ctx.ds if not d.normal), None)
    return bad is None, bad and tuple(sorted(bad.members)), len(ctx.ds)


def _p6_monadic_ds_generated(ctx):
    fixed, _, _ = _q.fixed_set(ctx.alg, ctx.pair)
    for count, ds in enumerate(ctx.ds, 1):
        generated = _ded.generated_ds(ctx.alg, ds.members & fixed)
        if (ds.members in ctx.monadic_members) != (generated == ds):
            return False, tuple(sorted(ds.members)), count
    return True, None, len(ctx.ds)


def _fixed_subalgebra(ctx):
    fixed = frozenset(x for x in range(ctx.n) if ctx.E[x] == x)
    if ctx.one not in fixed:
        return False, (ctx.one,), 1
    for count, (x, y) in enumerate(product(fixed, repeat=2), 1):
        if ctx.arrow[x][y] not in fixed or ctx.squig[x][y] not in fixed:
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


def pointwise_law(law_id: str, anchor: str, hypothesis=(), probe: bool = False) -> Law:
    """The law that anchor states (`classify.formula`): it uses the pair when the
    formula reads it, "under (X):" appends condition_X to its hypothesis and a congruence
    quantifier or closed parts make it global (`_over_classes`, `_closed_parts`).
    InvariantViolated, naming the law, on a malformed anchor or one naming none of x, y, z."""
    tree, arity, uses_pair, under = formula(anchor, law_id)
    if arity < 1:
        raise InvariantViolated(f"{law_id}: {anchor!r} names none of x, y, z")
    hypothesis = (*hypothesis, f"condition_{under}") if under else hypothesis
    if tree[0].startswith("for every"):
        return Law(law_id, anchor, 0, hypothesis, _over_classes(tree, arity), uses_pair, probe)
    if tree[1][0] == "(all x,y)":
        return Law(law_id, anchor, 0, hypothesis, _closed_parts(tree), uses_pair, probe)
    return Law(law_id, anchor, arity, hypothesis, expression(tree), uses_pair, probe)


@cache
def catalog() -> tuple[Law, ...]:
    """Every law, sorted by id: one immutable tuple, built on the first call."""
    L = []
    add, law = L.append, lambda *spec: L.append(pointwise_law(*spec))

    # -------- structural laws of the two implications
    law("BE.exchange_dual", "x ~> (y -> z) = y -> (x ~> z)", _BE)
    law("BE.exchange", "x -> (y ~> z) = y ~> (x -> z)", _BE)
    law("BE.transitive_T", "under (T): x <= y and y <= z imply x <= z", _BE)
    law("BE.const_upper_mixed", "x -> (y ~> x) = 1 and x ~> (y -> x) = 1", _BE)
    law("BE.const_upper", "x -> (y -> x) = 1 and x ~> (y ~> x) = 1", _BE)
    law("BE.cup_upper", "x -> ((x -> y) ~> y) = 1 and x ~> ((x ~> y) -> y) = 1", _BE)
    law("A.antitone_first", "under (A): x <= y implies y -> z <= x -> z and y ~> z <= x ~> z", _BE)
    law("M.monotone_second", "under (M): x <= y implies z -> x <= z -> y and z ~> x <= z ~> y", _BE)
    law("BE.distributive_i", "x -> (y ~> z) = (x -> y) ~> (x -> z)",
        ("pseudo_be", "distributive_i"))
    law("BCK.antitone", "x <= y implies y -> z <= x -> z and y ~> z <= x ~> z", _BCK)
    law("BCK.monotone", "x <= y implies z -> x <= z -> y and z ~> x <= z ~> y", _BCK)
    law("BCK.inner_monotone",
        "x -> y <= (z -> x) -> (z -> y) and x ~> y <= (z ~> x) ~> (z ~> y)", _BCK)
    law("BCK.cup_ge", "x <= (x -> y) ~> y and x <= (x ~> y) -> y", _BCK)

    # -------- bounded negation laws
    add(Law("BND.neg_constants", "1- = 1~ = 0 and 0- = 0~ = 1", 0, _BND, lambda c: (
        c.neg_minus[c.one] == c.neg_sim[c.one] == c.zero
        and c.neg_minus[c.zero] == c.neg_sim[c.zero] == c.one, None, 4), uses_pair=False))
    _BBCK = ("pseudo_bck", "bounded")
    law("BND.double_neg_ge", "x <= x-~ and x <= x~-", _BBCK)
    law("BND.neg_antitone", "x <= y implies y- <= x- and y~ <= x~", _BBCK)
    law("BND.triple_neg", "x-~- = x- and x~-~ = x~", _BBCK)

    # -------- pseudo-product laws
    _PP = ("pseudo_bck", "has_pP")
    law("PP.le_both", "x*y <= x and x*y <= y", _PP)
    law("PP.residual_le", "(x -> y)*x <= x and (x -> y)*x <= y (both arrows)", _PP)
    law("PP.monotone", "x <= y implies x*z <= y*z and z*x <= z*y", _PP)
    law("PP.curry", "x -> (y -> z) = x*y -> z and x ~> (y ~> z) = y*x ~> z", _PP)

    # -------- monadic pair laws (any monadic pseudo BE-algebra)
    add(Law("P3.exists_one", "E1 = 1", 0, _BE, lambda c: (c.E[c.one] == c.one, None, 1)))
    add(Law("P3.forall_one_const", "F1 = 1", 0, _BE, lambda c: (c.F[c.one] == c.one, None, 1)))
    law("P3.increasing_decreasing", "x <= Ex and Fx <= x", _BE)
    law("P3.forall_exists", "FEx = Ex", _BE)
    law("P3.fixed_iff", "Fx = x iff Ex = x", _BE)
    law("P3.exists_idem", "EEx = Ex", _BE)
    law("P3.forall_idem", "FFx = Fx", _BE)
    law("P3.stable_exists", "F(Ex -> Ey) = Ex -> Ey (both arrows)", _BE)
    law("P3.leq_exists_iff", "x <= Ey iff Ex <= Ey", _BE)
    law("P3.forall_leq_iff", "Fx <= y iff Fx <= Fy", _BE)
    law("P3.forall_arrow", "F(Fx -> y) = Fx -> Fy (both arrows)", _BE)
    law("P3.forall_arrow_exists", "F(Fx -> Ey) = Fx -> Ey (both arrows)", _BE)
    law("P3.arrow_forall", "F(x -> Fy) = Ex -> Fy (both arrows)", _BE)
    law("P3.forall_forall", "F(Fx -> Fy) = Fx -> Fy (both arrows)", _BE)
    law("P3.exists_le_stable", "E(Ex -> Ey) <= Ex -> Ey (both arrows)", _BE)
    law("P3.forall_one", "Fx = 1 iff x = 1", _BE)
    law("P3.isotone_T", "under (T): x <= y implies Ex <= Ey and Fx <= Fy", _BE)
    law("P3.isotone_unconditional", "x <= y implies Ex <= Ey and Fx <= Fy", _BE, True)
    law("P3.residuated_T", "under (T): Ex <= y iff x <= Fy", _BE)

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
    law("P3b.neg_exchange", "(Ex)- = F(x-) and (Ex)~ = F(x~)", _BND)
    law("P3b.forall_neg_stable", "F((Ex)-) = (Ex)- and F((Ex)~) = (Ex)~", _BND)
    law("P3b.forall_forall_neg", "F((Fx)-) = (Fx)- and F((Fx)~) = (Fx)~", _BND)
    law("P3b.exists_exists_neg", "E((Ex)-) = (Ex)- and E((Ex)~) = (Ex)~", _BND)
    law("P3b.exists_zero_iff", "Ex = 0 iff x = 0", _BND)

    # -------- involutive duality
    law("INV.dual_formulas", "Ex = (F(x-))~ = (F(x~))- and Fx = (E(x-))~ = (E(x~))-",
        ("pseudo_be", "involutive"))

    # -------- bounded commutative exchange laws
    _BC = ("pseudo_be", "bounded", "commutative", "has_pP", "lattice", "oplus")
    law("L4.oplus_demorgan", "x (+) y = (y- * x-)~ = (y~ * x~)-", _BC)
    law("P4.meet_join_equiv", "F(x^y) = Fx^Fy (all x,y) iff E(xvy) = Ex v Ey (all x,y)", _BC)
    law("P4.odot_oplus_equiv", "F(x*y) = Fx*Fy (all x,y) iff E(x(+)y) = Ex(+)Ey (all x,y)", _BC)
    law("P4.oplus_odot_equiv", "F(x(+)y) = Fx(+)Fy (all x,y) iff E(x*y) = Ex*Ey (all x,y)", _BC)

    # -------- monadic pseudo BCK laws
    law("P5.forall_arrow_compat",
        "F(x -> y) ~> (Fx -> Fy) = 1 and F(x ~> y) -> (Fx ~> Fy) = 1", _BCK)
    law("P5.forall_to_exists", "F(x -> y) ~> (Ex -> Ey) = 1 and F(x ~> y) -> (Ex ~> Ey) = 1", _BCK)
    law("P5.exists_stable", "E(Ex -> Ey) = Ex -> Ey (both arrows)", _BCK)
    law("P5.forall_image_stable",
        "E(Fx -> Fy) = Fx -> Fy and F(Fx -> Fy) = Fx -> Fy (both arrows)", _BCK)

    # -------- semilattice laws
    _MEET = ("pseudo_bck", "meet_semilattice")
    _JOIN = ("pseudo_bck", "join_semilattice")
    law("P5.meet_forall", "F(x^y) = Fx ^ Fy", _MEET)
    law("P5.meet_exists_le", "E(x^y) <= Ex ^ Ey", _MEET)
    law("P5.meet_mixed_le", "F(x^y) <= Ex ^ Ey", _MEET)
    law("P5.meet_stable", "E(Ex^Ey) = Ex^Ey and F(Ex^Ey) = Ex^Ey", _MEET)
    law("P5.join_exists", "E(xvy) = Ex v Ey", _JOIN)
    law("P5.join_stable", "F(ExvEy) = ExvEy and E(ExvEy) = ExvEy", _JOIN)
    law("P5.join_mixed_le", "Fx v Ey <= F(x v Ey)", _JOIN)

    # -------- monadic pseudo-product laws
    law("P5.pp_exists_stable", "E(Ex*Ey) = Ex*Ey", _PP)
    law("P5.pp_exists_le", "E(x*y) <= Ex*Ey", _PP)
    law("P5.pp_forall_stable", "F(Fx*Fy) = Fx*Fy", _PP)
    law("P5.pp_forall_le", "Fx*Fy <= F(x*y) and Fx*Fy <= E(x*y)", _PP)
    law("P5.pp_transfer", "E(Ex*y) = Ex*Ey = E(x*Ey)", _PP)
    law("P5.pp_mixed", "E(x*Fy) = Ex*Fy and E(Fx*y) = Fx*Ey", _PP)

    # -------- bounded commutative BCK oplus laws
    _BCBCK = ("pseudo_bck", "bounded", "commutative", "oplus")
    law("P5.oplus_stable", "F(Fx(+)Fy) = Fx(+)Fy", _BCBCK)
    law("P5.oplus_le", "Fx(+)Fy <= F(x(+)y)", _BCBCK)

    # -------- monadic pseudo-hoop law
    law("P5.hoop_meet", "F(x -> y)*x <= Ex ^ Ey and x*F(x ~> y) <= Ex ^ Ey",
        ("pseudo_hoop", "meet_semilattice"))

    # -------- congruence / deductive-system laws
    _BCOM = ("pseudo_be", "commutative")
    law("L6.arrow_iff_squig_one_class",
        "for every congruence C: x -> y in [1]_C iff x ~> y in [1]_C", _BE)
    law("L6.class_implications", "for every congruence C: x ~C y implies x -> y in [1]_C"
        " and y -> x in [1]_C and x ~> y in [1]_C and y ~> x in [1]_C", _BE)
    law("L6.commutative_converse",
        "for every congruence C: x -> y in [1]_C and y -> x in [1]_C implies x ~C y", _BCOM)
    add(Law("P6.ds_upward", "D a deductive system, x in D, x <= y imply y in D",
            0, _BE, _p6_ds_upward, uses_pair=False))
    add(Law("P6.distributive_normal", "distributive: every deductive system is normal",
            0, ("pseudo_be", "distributive_i"), _p6_distributive_normal, uses_pair=False))
    add(Law("P6.monadic_ds_generated",
            "under (M): D monadic iff D is generated by its fixed part", 0,
            ("pseudo_be", "condition_M"), _p6_monadic_ds_generated))
    add(Law("P6.monadic_con_one_class",
            "monadic congruence: [1] is a monadic deductive system", 0, _BE,
            _p6_cong_one_class_mds))
    law("P6.commutative_exists_cong",
        "for every monadic congruence C: x ~C y implies Ex ~C Ey", _BCOM)

    # -------- axiom probes for the search module
    law("AX.refl", "x <= x", _BE)
    law("AX.psbck6_antisym", "x <= y and y <= x imply x = y", _BE, True)

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
    that reads the pair, the pair's name: not applicable without a pair,
    else unless `ctx.applies` its hypothesis.  A pointwise law's first
    failure is read from `ctx.failures`, else found by scanning it alone."""
    pair = ctx.pair_name if law.uses_pair else None
    if (law.uses_pair and ctx.pair is None) or not ctx.applies(law.hypothesis):
        return Verdict(law.id, NOT_APPLICABLE, None, 0, pair)
    if law.arity == 0:
        ok, witness, instances = law.check(ctx)
        return Verdict(law.id, HOLDS if ok else FAILS, witness, instances, pair)
    hit = ctx.failures.get(law.check, False)      # False: not scanned here
    if hit is False:
        hit = first_failure(ctx.n, law.arity, ((law.id, law.check),), ctx)
    if hit is None:
        return Verdict(law.id, HOLDS, None, ctx.n ** law.arity, pair)
    return Verdict(law.id, FAILS, hit[1], hit[2], pair)


def _names(value, what: str, known, unknown: str) -> tuple:
    """value read once into a tuple of names; PreconditionUnmet unless it is
    an iterable, not a string, of strings all in known (else listed, sorted)."""
    if isinstance(value, str):
        raise PreconditionUnmet(f"{what}, not the string {value!r}")
    names = _listed(value, what)
    if not all(isinstance(name, str) for name in names):
        raise PreconditionUnmet(f"{what}, got {value!r}")
    bad = sorted({name for name in names if name not in known})
    if bad:
        raise PreconditionUnmet(f"{unknown}: {bad}")
    return names


def verify_suite(alg: FiniteAlgebra, pairs, law_ids=None) -> list[Verdict]:
    """Evaluate the catalog over the algebra and the given monadic pairs.

    Pair-independent laws are evaluated once; pair laws once per pair.
    law_ids, when given, is an iterable of law ids, read once (`_names`),
    and exactly those laws run, probes included; without it every law but
    the probes (documented open questions) runs.  Each hypothesis is
    decided once per algebra object and then read (`Ctx.applies`), each
    pair's monadic deductive systems are listed once (`monadic_members`).
    Each pair passes the pair gate (`require_monadic`), in order, before
    any law is scanned; each context is scanned once per arity (`first_failures`).
    """
    pairs, base = _listed(pairs, "verify_suite needs an iterable of monadic pairs"), Ctx(alg)
    wanted = None if law_ids is None else _names(
        law_ids, "law_ids must list law ids", _law_by_id(), "unknown law ids")
    laws = [l for l in catalog() if (not l.probe if wanted is None else l.id in wanted)]
    pair_ctxs = [base.with_pair(_q.require_monadic(alg, pair, "verify_suite")) for pair in pairs]
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
    budget: int | None = None


class SearchSpec(_SearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not isinstance(spec.law, str):
            raise PreconditionUnmet(f"search law must be a law id, got {spec.law!r}")
        if not (_indices((spec.min_size, spec.max_size), 6) and 2 <= spec.min_size <= spec.max_size):
            raise PreconditionUnmet("search sizes must satisfy 2 <= min <= max <= 5")
        if spec.budget is not None and type(spec.budget) is not int:
            raise PreconditionUnmet(f"search budget must be an int or None, got {spec.budget!r}")
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
    in that scan, so candidates in pruned subtrees are counted.  With
    `_is_canonical` it builds the class library that `_classes` reads."""
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


@cache
def _relabellings(n):
    """Each relabelling p of range(n) that fixes 0 but the identity, as (the
    source of each row of arrow + squig, p's column picker, p's inverse)."""
    perms = [(0, *p) for p in permutations(range(1, n))][1:]     # the identity comes first
    return [((*p, *(n + v for v in p)), itemgetter(*p),
             sorted(range(n), key=p.__getitem__).__getitem__) for p in perms]


def _is_canonical(n, arrow, squig) -> bool:
    """Whether (arrow, squig) is the least of its relabellings that fix
    element 0 (the constant 1), compared row by row: arrow's, then squig's."""
    rows = arrow + squig
    for sources, pick, relabel in _relabellings(n):
        for row, source in zip(rows, sources):
            image = tuple(map(relabel, pick(rows[source])))
            if image != row:
                if image < row:
                    return False
                break
    return True


@cache
def _class_lines(n) -> list[str]:
    """The library file of size n (`classes/<n>.txt`), read on the first search that reaches n."""
    with open(f"{os.path.dirname(__file__)}/classes/{n}.txt", encoding="ascii") as fh:
        return fh.read().splitlines()


def _classes(n):
    """The least model of each isomorphism class on n elements (`_is_canonical`), as
    `_models` yields it, from the library: a line holds the base-n digits of the
    arrow's free cells, then the squig's (`free_cells`), so its rank is int(line, n) + 1."""
    cells = free_cells(n)
    for line in _class_lines(n):
        t = [[[y if x == 0 else 0 for y in range(n)] for x in range(n)] for _ in range(2)]
        for i, digit in enumerate(line):        # the arrow's cells, then the squig's
            x, y = cells[i % len(cells)]
            t[i // len(cells)][x][y] = int(digit)
        yield (int(line or "0", n) + 1, *(tuple(map(tuple, table)) for table in t))


def _psbe_checked(alg: FiniteAlgebra) -> FiniteAlgebra:
    """alg, once its report shows the pseudo BE-algebra a search model is."""
    if (verdict := classify(alg)[0]["pseudo_be"]).status != HOLDS:
        raise InvariantViolated(f"search model {alg.arrow}, {alg.squig} is not a pseudo "
                                f"BE-algebra: {verdict}")
    return alg


def _law_counterexample(law: Law, alg: FiniteAlgebra, spec: SearchSpec):
    ctx = Ctx(_psbe_checked(alg))
    if not ctx.applies((*spec.require, *law.hypothesis)):
        return None     # filtered out, or every verdict would be not applicable
    for pair in _q.enumerate_mop(alg) if law.uses_pair else [None]:
        v = evaluate_law(law, ctx.with_pair(pair) if pair else ctx)
        if v.status == FAILS:
            return (alg, pair, v.witness)
    return None


def search_counterexample(spec: SearchSpec) -> SearchResult:
    """Exhaustive search of small algebras for a failure of one law.

    The candidates are all (arrow, squig) table pairs consistent with
    the forced unit rows/columns, in a fixed scan order (see `_models`).
    The law is evaluated on the least model of each isomorphism class
    (`_is_canonical`) only, in that order, read off the shipped library
    (`_classes`) that `_models` and `_is_canonical` build.  Each model is
    checked for psBE, filtered by the required classification flags and
    has the law evaluated on every monadic pair.  The rank order is the
    lexicographic order of the full tables, as the row of 1 and the
    forced cells are the same under every relabelling that fixes 1, and
    such a relabelling keeps psBE, the `require` flags and a law's
    status.  So the first failing model is the least of its class: ranks,
    `visited`, budget stops and the counterexample are those of the scan
    that evaluates every labelled model.

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
        total, names = candidate_count(n) ** 2, ("1", *(f"e{i}" for i in range(1, n)))
        for rank, arrow, squig in _classes(n):
            if rank > remaining:
                break
            alg = FiniteAlgebra(f"search_{n}", names, 0, arrow, squig)
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

"""Monadic operator pairs (exists, forall) on a finite two-implication algebra.

A pair is monadic when M1-M5 hold; the bounded-commutative mode adds
M6/M7 and the hoop mode adds M6 only.  `enumerate_mop` lists every
monadic pair of a pseudo BE-algebra in a canonical order; the tau/sigma
builders construct a pair from a single interior-like or closure-like map.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap, is_self_map, shipped
from .classify import (HOLDS, InvariantViolated, Verdict, axioms, backtrack, classify,
                       closed_sets, first_failure_of, require_pseudo_be, theorem_fails)

PLAIN = "plain"
BOUNDED_COMMUTATIVE = "bc"
HOOP = "hoop"


# perfbench/workloads.py catches this name, and perfbench changes only on its own
ModeUnavailable = PreconditionUnmet
_NEEDS = {"odot": "the pseudo-product table", "oplus": "the oplus table"}   # in messages


class MonadicPair(NamedTuple):
    exists: UnaryMap
    forall: UnaryMap

    def sort_key(self):
        return (self.forall.images, self.exists.images)


def _mode_tables(alg: FiniteAlgebra, mode: str):
    """(the groups of axioms the mode adds to M1-M5, M6 and M7 in bc mode
    and M6 in hoop mode, {name: table} of the tables they read); raises
    PreconditionUnmet for an unknown mode or when the mode needs a table
    the algebra lacks."""
    if mode not in (PLAIN, BOUNDED_COMMUTATIVE, HOOP):
        raise PreconditionUnmet(f"unknown mode {mode!r}")
    if mode == PLAIN:
        return (), {}
    report, _ = classify(alg)
    names = ("odot", "oplus") if mode == BOUNDED_COMMUTATIVE else ("odot",)
    missing = report.unmet(names)
    if missing is not None:
        who = "bounded-commutative mode" if missing == "oplus" else f"mode {mode!r}"
        raise PreconditionUnmet(f"{who} needs {_NEEDS[missing]}")
    return (_M6, _M7)[:len(names)], {name: getattr(report, name) for name in names}


# M1-M4 for -> and then, read on the dual algebra, for ~>
_M1_M5 = tuple(((f"{m}(arrow)", text), (f"{m}(squig)", f"{text} (dual)")) for m, text in (
    ("M1", "x -> Ex = 1"), ("M2", "Fx -> x = 1"),
    ("M3", "F(x -> Ey) = Ex -> Ey"), ("M4", "F(Ex -> y) = Ex -> Fy"),
)) + ((("M5", "EFx = Fx"),),)
_M6, _M7 = (("M6", "F(x * x) = Fx * Fx"),), (("M7", "F(x (+) x) = Fx (+) Fx"),)


def require_self_maps(alg: FiniteAlgebra, value, what: str, pair: bool = True):
    """value, when a MonadicPair (a UnaryMap, pair false) of self-maps of the
    carrier, shape only; else PreconditionUnmet saying what needs them."""
    maps = (value if isinstance(value, MonadicPair) else (None,)) if pair else (value,)
    if not all(is_self_map(m, alg.size) for m in maps):
        raise PreconditionUnmet(f"{what} needs self-maps of the carrier, got {value!r}")
    return value


def check_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN) -> Verdict:
    """The pair gate (`require_self_maps`, then the mode's tables), then M1-M5
    (plus M6/M7 per mode) axiom after axiom over all elements or element pairs:
    the first failing instance, such as M3(squig) with its witness, or Verdict("monadic", HOLDS)."""
    require_self_maps(alg, pair, "check_monadic")
    groups, tables = _mode_tables(alg, mode)
    tables = SimpleNamespace(arrow=alg.arrow, squig=alg.squig, one=alg.one,
                             E=pair.exists.images, F=pair.forall.images, **tables)
    return Verdict.of(first_failure_of(alg.size, axioms(_M1_M5 + groups), tables), "monadic")


def is_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN) -> bool:
    return check_monadic(alg, pair, mode).status == HOLDS


def require_monadic(alg: FiniteAlgebra, pair: MonadicPair, what: str) -> MonadicPair:
    """pair, when it is monadic (`check_monadic`); else PreconditionUnmet
    saying what `what` needs: self-maps, or a pair that passes M1-M5."""
    verdict = check_monadic(alg, require_self_maps(alg, pair, what))
    if verdict.status != HOLDS:
        raise PreconditionUnmet(
            f"{what} needs a monadic pair: {verdict.failed_at(alg)}", verdict.witness)
    return pair


def enumerate_mop(alg: FiniteAlgebra, mode: str = PLAIN) -> list[MonadicPair]:
    """All monadic pairs of a pseudo BE-algebra, sorted by (forall images,
    exists images); elsewhere PreconditionUnmet names the first failing
    psBE axiom, once the mode's own checks pass.

    M1 and M3 at x = 1 and M5 give E 1 = 1, F E = E and E F = F, so both
    maps are the identity on one image S that holds 1 and is closed under
    -> and ~>; the closed sets are listed as closures from {1} up.  E is
    onto S, so M3 and M4 need only e in S, hold at the points of S, and M5
    holds by construction.  For each S a search assigns F alone outside S,
    valued in S below x (M2), and tests M4, F(e t y) = e t F y for e in S
    and t -> or ~>, once both cells are set.  Each E x is then read off F:
    any v in S above x (M1) with v t e = F(x t e) for all such e and t
    (M3); the pairs are the product of those choices.  A bc (hoop) pair
    is a plain pair that satisfies M6 and M7 (M6), so the mode's list is
    the plain list, which is in sort order, filtered by a scan of M6 (and
    M7) per pair once the mode's tables are read (PreconditionUnmet before
    anything is listed, where one is missing).  On a model that search
    builds from the class library the plain list is decoded from its
    shipped line (`algebra.shipped`): each pair's F digits, then its E
    digits, written by this search.  Kept per algebra object and mode;
    each call gets a new list.
    """
    if mode not in (PLAIN, BOUNDED_COMMUTATIVE, HOOP):
        _mode_tables(alg, mode)     # raises PreconditionUnmet before the mode is hashed in a key
    return list(alg.kept(("mop", mode), lambda alg: _enumerate_mop(alg, mode)))


def _enumerate_mop(alg: FiniteAlgebra, mode: str) -> list[MonadicPair]:
    groups, tables = _mode_tables(alg, mode)
    require_pseudo_be(alg, "enumerate_mop")
    if groups:
        return [p for p in enumerate_mop(alg) if first_failure_of(
            alg.size, axioms(groups), SimpleNamespace(**tables, F=p.forall.images)) is None]
    items = shipped(alg, "mop")
    if items is not None:
        n = alg.size
        return [MonadicPair(UnaryMap(tuple(map(int, p[n:]))), UnaryMap(tuple(map(int, p[:n]))))
                for p in items]
    one, arr, sq, rng = alg.one, alg.arrow, alg.squig, range(alg.size)
    up = [{y for y in rng if arr[x][y] == one and sq[x][y] == one} for x in rng]     # M1
    down = [{y for y in rng if arr[y][x] == one and sq[y][x] == one} for x in rng]   # M2
    cols = [tuple(zip(*t)) for t in (arr, sq)]

    def pairs(S):
        free = [x for x in rng if x not in S]
        cands = [[v for v in S if v in down[x]] for x in free]
        if not all(cands):
            return
        depth = {x: d for d, x in enumerate(free)}
        checks = [[] for _ in free]     # M4 at (e, y), tested at the later of y, e t y
        for row, y in product((t[e] for t in (arr, sq) for e in S), free):
            checks[max(depth[y], depth.get(row[y], -1))].append((row, y))
        F = list(rng)
        for _ in backtrack([(F, x) for x in free], cands,
                           lambda d: all(F[row[y]] == row[F[y]] for row, y in checks[d])):
            exists = [[x] if x in S else [v for v in S if v in up[x] and all(
                t[v][e] == F[t[x][e]] for t in (arr, sq) for e in S)] for x in rng]
            forall = UnaryMap(tuple(F))
            yield from (MonadicPair(UnaryMap(E), forall) for E in product(*exists))

    def close(S, new):      # the least closed set holding S and new
        while new:
            S = S | new
            new = {row[y] for z in new for row in (arr[z], sq[z], cols[0][z], cols[1][z])
                   for y in S} - S
        return S

    # S holds E x and F x for all x (M1, M2), so any singleton up[x] or down[x]
    seeds = {one}.union(*(c for c in up + down if len(c) == 1))
    shapes = closed_sets(close(frozenset(), seeds), rng, lambda S, x: close(S, {x} - S))
    return sorted((p for S in shapes for p in pairs(S)), key=MonadicPair.sort_key)


def fixed_set(alg: FiniteAlgebra, pair: MonadicPair):
    """(fixed elements, image of forall, kernel of forall) as frozensets."""
    E, F = require_self_maps(alg, pair, "fixed_set")
    fixed_e, fixed_f = (frozenset(x for x, v in enumerate(m.images) if v == x) for m in (E, F))
    if fixed_e != fixed_f:
        raise PreconditionUnmet("fixed sets of exists and forall disagree; pair is not monadic")
    kernel = frozenset(x for x, v in enumerate(F.images) if v == alg.one)
    return fixed_e, frozenset(F.images), kernel


def build_from_tau(alg: FiniteAlgebra, tau: UnaryMap) -> MonadicPair:
    """Pair with forall = tau, exists x = (tau x-)~, after verifying U1-U6."""
    return _build(alg, tau, from_forall=True)


def build_from_sigma(alg: FiniteAlgebra, sigma: UnaryMap) -> MonadicPair:
    """Pair with exists = sigma, forall x = (sigma x-)~, after verifying E1-E6."""
    return _build(alg, sigma, from_forall=False)


def _numbered(tag: str, *texts) -> tuple:     # one group per axiom: tag1, tag2, ...
    return tuple(((f"{tag}{i}", text),) for i, text in enumerate(texts, 1))


# _build's conditions on tau (F) and on sigma (E)
_U = _numbered(
    "U", "Fx -> x = 1", "(F(x-))~ = (F(x~))-",
    "F(x (+) (Fy)-) = Fx (+) (Fy)- and F((Fx)~ (+) y) = (Fx)~ (+) Fy",
    "F(x (+) Fy) = F(Fx (+) y) = Fx (+) Fy", "F((x- (+) x-)~) = ((Fx)- (+) (Fx)-)~ (both arrows)",
    "F(x (+) x) = Fx (+) Fx")
_E = _numbered(
    "E", "x -> Ex = 1", "(E(x-))~ = (E(x~))-",
    "E(x * (Ey)~) = Ex * (Ey)~ and E((Ex)- * y) = (Ex)- * Ey",
    "E(x * Ey) = E(Ex * y) = Ex * Ey", "E((x- * x-)~) = ((Ex)- * (Ex)-)~ (both arrows)",
    "E(x * x) = Ex * Ex")


def _build(alg, m, from_forall: bool) -> MonadicPair:
    # the other map of the pair is (m x-)~ = (m x~)- either way
    what = "build_from_tau" if from_forall else "build_from_sigma"
    require_self_maps(alg, m, what, pair=False)
    report, _ = classify(alg)
    table = "oplus" if from_forall else "odot"
    missing = report.unmet(("bounded", "good", table))
    if missing is not None:
        raise PreconditionUnmet(f"{what} needs " + _NEEDS.get(missing, f"a {missing} algebra"))
    n, f, nm, ns = alg.size, m.images, report.neg_minus, report.neg_sim
    tables = SimpleNamespace(arrow=alg.arrow, one=alg.one, neg_minus=nm, neg_sim=ns,
                             **{table: getattr(report, table), "F" if from_forall else "E": f})
    # U6 is exactly M7 (E6 mirrors it), which belongs to the commutative
    # theory; on a non-commutative (e.g. merely involutive) algebra it can
    # fail even for maps the construction is meant for, so it is only
    # enforced when the algebra is commutative.
    groups = (_U if from_forall else _E)[:6 if report.holds("commutative") else 5]
    hit = first_failure_of(n, axioms(groups), tables)
    if hit is not None:
        raise PreconditionUnmet(f"condition {hit[0]} fails at {hit[1]}", hit[1])

    other = tuple(ns[f[nm[x]]] for x in range(n))
    if other != tuple(nm[f[ns[x]]] for x in range(n)):
        raise InvariantViolated("the two defining formulas for " + (
            "exists disagree despite U2" if from_forall else "forall disagree despite E2"))
    pair = (MonadicPair(UnaryMap(other), m) if from_forall
            else MonadicPair(m, UnaryMap(other)))
    # the construction theorems promise a monadic pair; verify, never
    # assume.  M7 is checked only on commutative algebras, matching the
    # U6/E6 gating above.
    mode = (BOUNDED_COMMUTATIVE if report.unmet(("commutative", "oplus", "odot")) is None
            else HOOP if report.holds("odot") else PLAIN)
    verdict = check_monadic(alg, pair, mode)
    if verdict.status != HOLDS:
        theorem_fails(alg, "the construction needs",
                      f"{what} built a non-monadic pair, {verdict.failed_at(alg)}")
    return pair


class CompositionResult(NamedTuple):
    pair: MonadicPair | None       # validated composition, when it commutes
    commute: bool
    # pointwise comparisons; None when <= is not a partial order, where
    # the comparison is not meaningful
    forall_le: bool | None         # forall1 <= forall2 pointwise
    exists_le: bool | None         # exists1 <= exists2 pointwise


def compose_pairs(alg: FiniteAlgebra, p1: MonadicPair, p2: MonadicPair) -> CompositionResult:
    """Compose two monadic pairs.

    Returns the validated pair (exists1 exists2, forall1 forall2) iff
    the compositions commute; also reports the pointwise ordering and
    checks its composition characterizations (InvariantViolated if one
    fails).  The theorems are stated for pseudo BCK-algebras, but their
    arguments only use transitivity of the induced order, and the source
    example applies them to a non-BCK transitive algebra -- so that is
    the precondition enforced.
    """
    report, _ = classify(alg)
    if not report.holds("condition_T"):
        raise PreconditionUnmet("compose_pairs needs a transitive induced order")
    p1, p2 = (require_monadic(alg, p, "compose_pairs") for p in (p1, p2))
    e12 = p1.exists.compose(p2.exists)
    e21 = p2.exists.compose(p1.exists)
    f12 = p1.forall.compose(p2.forall)
    f21 = p2.forall.compose(p1.forall)
    commute = e12 == e21 and f12 == f21

    le = lambda a, b: all(alg.arrow[a(x)][b(x)] == alg.one for x in alg.elements())
    # forall1 forall2 = forall1 forces forall1 <= forall2 even on a mere
    # preorder (forall1 x = forall1(forall2 x) <= forall2 x by M2)
    if f12 == p1.forall and not le(p1.forall, p2.forall):
        raise InvariantViolated("forall ordering characterization (forward)")
    if e12 == p1.exists and not le(p2.exists, p1.exists):
        raise InvariantViolated("exists ordering characterization (forward)")
    if report.holds("poset"):
        forall_le = le(p1.forall, p2.forall)
        exists_le = le(p1.exists, p2.exists)
        # full equivalences need antisymmetry of <=
        if forall_le != (f12 == p1.forall):
            raise InvariantViolated("forall ordering characterization")
        if le(p2.exists, p1.exists) != (e12 == p1.exists):
            raise InvariantViolated("exists ordering characterization")
    else:
        forall_le = exists_le = None

    pair = None
    if commute:
        pair = MonadicPair(e12, f12)
        if check_monadic(alg, pair).status != HOLDS:
            raise InvariantViolated("commuting composition failed monadic validation")
    return CompositionResult(pair, commute, forall_le, exists_le)


_MV = {"universal": _numbered(
    "MVU", "Fx -> x = 1", "F(x ^ y) = Fx ^ Fy", "F((Fx)-) = (Fx)- (both arrows)",
    "F(Fx * Fy) = Fx * Fy", "F(x * x) = Fx * Fx", "F(x (+) x) = Fx (+) Fx"),
       "existential": _numbered(
    "MVE", "x -> Ex = 1", "E(x v y) = Ex v Ey", "E((Ex)-) = (Ex)- (both arrows)",
    "E(Ex * Ey) = Ex * Ey", "E(x * x) = Ex * Ex", "E(x (+) x) = Ex (+) Ex")}


def check_mv_quantifier(alg: FiniteAlgebra, m: UnaryMap, kind: str) -> Verdict:
    """MVU1-MVU6 (kind='universal') or MVE1-MVE6 (kind='existential')
    on the multi-valued structure of a bounded commutative algebra."""
    require_self_maps(alg, m, "check_mv_quantifier", pair=False)
    report, _ = classify(alg)
    if kind not in ("universal", "existential"):
        raise PreconditionUnmet("kind must be 'universal' or 'existential'")
    lattice, quantifier = ("meet", "F") if kind == "universal" else ("join", "E")
    missing = report.unmet(("bounded", "commutative", "odot", "oplus", lattice))
    if missing is not None:
        raise PreconditionUnmet("MV quantifier axioms need a bounded commutative algebra with "
                                f"its odot, oplus and {lattice} tables: {missing} is not met")
    tables = SimpleNamespace(**{t: getattr(report, t) for t in (
        "arrow", "one", "neg_minus", "neg_sim", "odot", "oplus", lattice)},
        **{quantifier: m.images})
    return Verdict.of(first_failure_of(alg.size, axioms(_MV[kind]), tables), f"mv_{kind}")


def declared_pairs(alg: FiniteAlgebra) -> list[tuple[str, MonadicPair]]:
    """(label, pair) for every quantifier pair the file declares, in file order.

    A pair is a unary block `exists<k>` with its twin `forall<k>`, or
    `<p>_exists` with `<p>_forall`; the label (k or p, possibly empty) is
    what `pair_from_unary_blocks` and the CLI's `--pair` accept.
    """
    out = []
    for key in alg.unary:
        if key.startswith("exists"):
            label = key[len("exists"):]
            twin = "forall" + label
        elif key.endswith("_exists"):
            label = key[:-len("_exists")]
            twin = label + "_forall"
        else:
            continue
        if twin in alg.unary:
            out.append((label, MonadicPair(alg.unary[key], alg.unary[twin])))
    return out


def pair_from_unary_blocks(alg: FiniteAlgebra, prefix: str) -> MonadicPair:
    """The first declared pair labelled `prefix` (see `declared_pairs`);
    the bare blocks `exists` / `forall` when prefix is empty."""
    for label, pair in declared_pairs(alg):
        if label == prefix:
            return pair
    raise PreconditionUnmet(f"no unary blocks {prefix}_exists/{prefix}_forall or "
                            f"exists{prefix}/forall{prefix} in {alg.name}")

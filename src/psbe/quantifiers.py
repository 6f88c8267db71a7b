"""Monadic operator pairs (exists, forall) on a finite two-implication algebra.

A pair is monadic when M1-M5 hold; the bounded-commutative mode adds
M6/M7 and the hoop mode adds M6 only.  `enumerate_mop` lists every
monadic pair in a canonical order; the tau/sigma builders construct a
pair from a single interior-like or closure-like map.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from .classify import (InvariantViolated, Verdict, backtrack, classify,
                       closed_sets, first_failure_of)

PLAIN = "plain"
BOUNDED_COMMUTATIVE = "bc"
HOOP = "hoop"


# perfbench/workloads.py catches this name, and perfbench changes only on its own
ModeUnavailable = PreconditionUnmet


class MonadicPair(NamedTuple):
    exists: UnaryMap
    forall: UnaryMap

    def sort_key(self):
        return (self.forall.images, self.exists.images)


def _mode_tables(alg: FiniteAlgebra, mode: str):
    """(odot, oplus) for M6/M7, None where the mode does not check them;
    raises PreconditionUnmet for an unknown mode or when the mode needs a
    table the algebra lacks."""
    if mode not in (PLAIN, BOUNDED_COMMUTATIVE, HOOP):
        raise PreconditionUnmet(f"unknown mode {mode!r}")
    if mode == PLAIN:
        return None, None
    report, _ = classify(alg)
    if report.odot is None:
        raise PreconditionUnmet(f"mode {mode!r} needs the pseudo-product table")
    if mode == BOUNDED_COMMUTATIVE and report.oplus is None:
        raise PreconditionUnmet("bounded-commutative mode needs the oplus table")
    return report.odot, report.oplus if mode == BOUNDED_COMMUTATIVE else None


def check_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN) -> Verdict:
    """M1-M5 (plus M6/M7 per mode), axiom after axiom over all elements
    or element pairs: the first failing instance, such as M3(squig) with
    its witness, or Verdict("monadic", HOLDS)."""
    od, op = _mode_tables(alg, mode)
    one, arr, sq = alg.one, alg.arrow, alg.squig
    E, F = pair.exists.images, pair.forall.images
    checks = [
        (1, [("M1(arrow)", lambda x: arr[x][E[x]] == one),
             ("M1(squig)", lambda x: sq[x][E[x]] == one)]),
        (1, [("M2(arrow)", lambda x: arr[F[x]][x] == one),
             ("M2(squig)", lambda x: sq[F[x]][x] == one)]),
        (2, [("M3(arrow)", lambda x, y: F[arr[x][E[y]]] == arr[E[x]][E[y]]),
             ("M3(squig)", lambda x, y: F[sq[x][E[y]]] == sq[E[x]][E[y]])]),
        (2, [("M4(arrow)", lambda x, y: F[arr[E[x]][y]] == arr[E[x]][F[y]]),
             ("M4(squig)", lambda x, y: F[sq[E[x]][y]] == sq[E[x]][F[y]])]),
        (1, [("M5", lambda x: E[F[x]] == F[x])]),
    ]
    if od is not None:
        checks.append((1, [("M6", lambda x: F[od[x][x]] == od[F[x]][F[x]])]))
    if op is not None:
        checks.append((1, [("M7", lambda x: F[op[x][x]] == op[F[x]][F[x]])]))
    return Verdict.of(first_failure_of(alg.size, checks), "monadic")


def is_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN) -> bool:
    return bool(check_monadic(alg, pair, mode))


def require_monadic(alg: FiniteAlgebra, pair: MonadicPair, what: str) -> MonadicPair:
    """pair, when it is monadic; else PreconditionUnmet saying that `what`
    needs a monadic pair and naming the first axiom it fails."""
    verdict = check_monadic(alg, pair)
    if not verdict:
        raise PreconditionUnmet(
            f"{what} needs a monadic pair: {verdict.name} fails at "
            f"({', '.join(alg.element_names[x] for x in verdict.witness)})", verdict.witness)
    return pair


def enumerate_mop(alg: FiniteAlgebra, mode: str = PLAIN) -> list[MonadicPair]:
    """All monadic pairs, sorted by (forall images, exists images).

    The maps are built on their image, cell by cell, by a search that
    decides each pair: M1 and M2 bound each cell's candidates, and M3,
    M4 (at every e in the image), M6 and M7 are tested once both cells
    they read are set.  Where 1 -> y = y for all y, as on a pseudo
    BE-algebra, M1 and M3 at x = 1 and M5 make both maps the identity
    on one image S, closed under ->, ~> and the mode's squares, so M3-M7
    hold on S; M1 and M2 there read x -> x = x ~> x = 1, on which S is
    filtered.  Elsewhere E need not be idempotent (on constant tables it
    may swap two elements): each image is tried, E onto it and M5 checked.
    Kept per algebra object and mode; each call gets a new list.
    """
    return list(alg.kept(("mop", mode), lambda alg: _enumerate_mop(alg, mode)))


def _enumerate_mop(alg: FiniteAlgebra, mode: str) -> list[MonadicPair]:
    n, one, arr, sq, rng = alg.size, alg.one, alg.arrow, alg.squig, range(alg.size)
    # M6 and M7 read F at x and at x (.) x, x (+) x; PreconditionUnmet here
    squares = [tuple(t[x][x] for x in rng) for t in _mode_tables(alg, mode) if t]
    up = [{y for y in rng if arr[x][y] == one and sq[x][y] == one} for x in rng]     # M1
    down = [{y for y in rng if arr[y][x] == one and sq[y][x] == one} for x in rng]   # M2
    cols = [tuple(zip(*t)) for t in (arr, sq)]

    def pairs(image, fixed):
        # E x then F x for x outside fixed, valued in image (M1, M2, M5).
        # M3 at E z = e (F(y t e) = E y t e), M4 at E x = e (F(e t y) =
        # e t F y), M6 and M7 are F(r y) = r(m y), m = E or F, each tested
        # once both cells are set; a non-empty fixed is closed under all r.
        E, F = list(rng), list(rng)
        free = [x for x in rng if x not in fixed]
        cells = [(m, x) for x in free for m in (E, F)]
        cands = [[v for v in image if v in (up if m is E else down)[x]] for m, x in cells]
        if not all(cands):
            return
        de = [-1 if x in fixed else 2 * free.index(x) for x in rng]
        df = [d + (d >= 0) for d in de]
        checks = [[] for _ in cells]
        for r, m, dm in ([(c[e], E, de) for c in cols for e in image]
                         + [(t[e], F, df) for t in (arr, sq) for e in image]
                         + [(r, F, df) for r in squares]):
            for y in free:
                checks[max(dm[y], df[r[y]])].append((r, m, y))
        for _ in backtrack(cells, cands, lambda d: all(
                F[r[y]] == r[m[y]] for r, m, y in checks[d])):
            if fixed or (len(set(E)) == len(image) and all(E[v] == v for v in F)):
                yield MonadicPair(UnaryMap(tuple(E)), UnaryMap(tuple(F)))

    if all(arr[one][y] == y for y in rng):
        # S holds E x and F x for all x (M1, M2), so any singleton up[x] or
        # down[x], and r x for x in S
        def close(S, new):      # the least closed set holding S and new
            while new:
                S = S | new
                new = ({row[y] for z in new for row in (arr[z], sq[z], cols[0][z], cols[1][z])
                        for y in S} | {r[z] for r in squares for z in new}) - S
            return S

        seeds = {one}.union(*(c for c in up + down if len(c) == 1))
        shapes = closed_sets(close(frozenset(), seeds), rng, lambda S, x: close(S, {x} - S))
        candidates = (p for S in shapes if all(x in up[x] for x in S) for p in pairs(S, S))
    else:
        candidates = (p for k in range(1, n + 1) for image in combinations(rng, k)
                      for p in pairs(set(image), ()))
    return sorted(candidates, key=MonadicPair.sort_key)


def fixed_set(alg: FiniteAlgebra, pair: MonadicPair):
    """(fixed elements, image of forall, kernel of forall) as frozensets."""
    n = alg.size
    fixed_e = frozenset(x for x in range(n) if pair.exists(x) == x)
    fixed_f = frozenset(x for x in range(n) if pair.forall(x) == x)
    if fixed_e != fixed_f:
        raise PreconditionUnmet("fixed sets of exists and forall disagree; pair is not monadic")
    image = frozenset(pair.forall(x) for x in range(n))
    kernel = frozenset(x for x in range(n) if pair.forall(x) == alg.one)
    return fixed_e, image, kernel


def build_from_tau(alg: FiniteAlgebra, tau: UnaryMap) -> MonadicPair:
    """Pair with forall = tau, exists x = (tau x-)~, after verifying U1-U6."""
    return _build(alg, tau, from_forall=True)


def build_from_sigma(alg: FiniteAlgebra, sigma: UnaryMap) -> MonadicPair:
    """Pair with exists = sigma, forall x = (sigma x-)~, after verifying E1-E6."""
    return _build(alg, sigma, from_forall=False)


def _build(alg, m, from_forall: bool) -> MonadicPair:
    # U1-U6 (tau, over the oplus table) and E1-E6 (sigma, over the
    # pseudo-product) differ in condition 1 (tau decreasing, sigma
    # increasing) and in the negation each side of condition 3 reads;
    # the other map of the pair is (m x-)~ = (m x~)- either way.
    what = "build_from_tau" if from_forall else "build_from_sigma"
    report, _ = classify(alg)
    for flag in ("bounded", "good"):
        if not report.holds(flag):
            raise PreconditionUnmet(f"{what} needs a {flag} algebra")
    t = report.oplus if from_forall else report.odot
    if t is None:
        raise PreconditionUnmet(f"{what} needs the "
                                + ("oplus table" if from_forall else "pseudo-product table"))
    n, one, arr = alg.size, alg.one, alg.arrow
    f, nm, ns = m.images, report.neg_minus, report.neg_sim
    p, q = (nm, ns) if from_forall else (ns, nm)

    checks = [
        (1, [(1, lambda x: (arr[f[x]][x] if from_forall else arr[x][f[x]]) == one)]),
        (1, [(2, lambda x: ns[f[nm[x]]] == nm[f[ns[x]]])]),
        (2, [(3, lambda x, y: f[t[x][p[f[y]]]] == t[f[x]][p[f[y]]]),
             (3, lambda x, y: f[t[q[f[x]]][y]] == t[q[f[x]]][f[y]])]),
        (2, [(4, lambda x, y: f[t[x][f[y]]] == f[t[f[x]][y]] == t[f[x]][f[y]])]),
        (1, [(5, lambda x: f[ns[t[nm[x]][nm[x]]]] == ns[t[nm[f[x]]][nm[f[x]]]]),
             (5, lambda x: f[nm[t[ns[x]][ns[x]]]] == nm[t[ns[f[x]]][ns[f[x]]]])]),
    ]
    # U6 is exactly M7 (E6 mirrors it), which belongs to the commutative
    # theory; on a non-commutative (e.g. merely involutive) algebra it can
    # fail even for maps the construction is meant for, so it is only
    # enforced when the algebra is commutative.
    if report.holds("commutative"):
        checks.append((1, [(6, lambda x: f[t[x][x]] == t[f[x]][f[x]])]))
    hit = first_failure_of(n, checks)
    if hit is not None:
        raise PreconditionUnmet(f"condition {'U' if from_forall else 'E'}{hit[0]} fails "
                                f"at {hit[1]}", hit[1])

    other = tuple(ns[f[nm[x]]] for x in range(n))
    if other != tuple(nm[f[ns[x]]] for x in range(n)):
        raise InvariantViolated("the two defining formulas for " + (
            "exists disagree despite U2" if from_forall else "forall disagree despite E2"))
    pair = (MonadicPair(UnaryMap(other), m) if from_forall
            else MonadicPair(m, UnaryMap(other)))
    # the construction theorems promise a monadic pair; verify, never
    # assume.  M7 is checked only on commutative algebras, matching the
    # U6/E6 gating above.
    if report.holds("commutative") and report.oplus is not None and report.odot is not None:
        mode = BOUNDED_COMMUTATIVE
    elif report.odot is not None:
        mode = HOOP
    else:
        mode = PLAIN
    verdict = check_monadic(alg, pair, mode)
    if not verdict:
        raise InvariantViolated(f"{what} produced a non-monadic pair: "
                                f"{verdict.name} fails at {verdict.witness}")
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
    one = alg.one
    e12 = p1.exists.compose(p2.exists)
    e21 = p2.exists.compose(p1.exists)
    f12 = p1.forall.compose(p2.forall)
    f21 = p2.forall.compose(p1.forall)
    commute = e12 == e21 and f12 == f21

    le = lambda a, b: all(alg.arrow[a(x)][b(x)] == one for x in alg.elements())
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
        if not check_monadic(alg, pair):
            raise InvariantViolated("commuting composition failed monadic validation")
    return CompositionResult(pair, commute, forall_le, exists_le)


def check_mv_quantifier(alg: FiniteAlgebra, m: UnaryMap, kind: str) -> Verdict:
    """MVU1-MVU6 (kind='universal') or MVE1-MVE6 (kind='existential')
    on the multi-valued structure of a bounded commutative algebra."""
    report, _ = classify(alg)
    if not (report.holds("bounded") and report.holds("commutative")):
        raise PreconditionUnmet("MV quantifier axioms need a bounded commutative algebra")
    f, arr, one = m.images, alg.arrow, alg.one
    nm, ns, od, op = report.neg_minus, report.neg_sim, report.odot, report.oplus
    # the two kinds differ in MV1 (f decreasing vs increasing) and MV2
    # (f preserves meets vs joins)
    if kind == "universal":
        tag, lat, mv1 = "MVU", report.meet, lambda x: arr[f[x]][x] == one
    elif kind == "existential":
        tag, lat, mv1 = "MVE", report.join, lambda x: arr[x][f[x]] == one
    else:
        raise PreconditionUnmet("kind must be 'universal' or 'existential'")
    checks = [
        (1, [(tag + "1", mv1)]),
        (2, [(tag + "2", lambda x, y: f[lat[x][y]] == lat[f[x]][f[y]])]),
        (1, [(tag + "3", lambda x: f[nm[f[x]]] == nm[f[x]] and f[ns[f[x]]] == ns[f[x]])]),
        (2, [(tag + "4", lambda x, y: f[od[f[x]][f[y]]] == od[f[x]][f[y]])]),
        (1, [(tag + "5", lambda x: f[od[x][x]] == od[f[x]][f[x]])]),
        (1, [(tag + "6", lambda x: f[op[x][x]] == op[f[x]][f[x]])]),
    ]
    return Verdict.of(first_failure_of(alg.size, checks), f"mv_{kind}")


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

"""Monadic operator pairs (exists, forall) on a finite two-implication algebra.

A pair is monadic when M1-M5 hold; the bounded-commutative mode adds
M6/M7 and the hoop mode adds M6 only.  `enumerate_mop` lists every
monadic pair in a canonical order; the tau/sigma builders construct a
pair from a single interior-like or closure-like map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import FiniteAlgebra, UnaryMap
from .classify import (ClassificationReport, DerivedOps, Verdict, classify,
                       first_failure, first_failure_of, HOLDS)

PLAIN = "plain"
BOUNDED_COMMUTATIVE = "bc"
HOOP = "hoop"

_MODE_ALIASES = {
    "plain": PLAIN,
    "bc": BOUNDED_COMMUTATIVE,
    "bounded_commutative": BOUNDED_COMMUTATIVE,
    "hoop": HOOP,
}


class ModeUnavailable(ValueError):
    """Requested check mode needs derived operations the algebra lacks."""


class NotBCK(ValueError):
    pass


class NotBoundedCommutative(ValueError):
    pass


class PreconditionUnmet(ValueError):
    pass


class UConditionFailed(ValueError):
    def __init__(self, k: int, witness: tuple[int, ...]):
        super().__init__(f"condition U{k} fails at {witness}")
        self.k = k
        self.witness = witness


class EConditionFailed(ValueError):
    def __init__(self, k: int, witness: tuple[int, ...]):
        super().__init__(f"condition E{k} fails at {witness}")
        self.k = k
        self.witness = witness


@dataclass(frozen=True)
class MonadicPair:
    exists: UnaryMap
    forall: UnaryMap

    def sort_key(self):
        return (self.forall.images, self.exists.images)

    def is_identity(self) -> bool:
        return self.exists.is_identity() and self.forall.is_identity()


@dataclass(frozen=True)
class MonadicCheckReport:
    mode: str
    axioms: dict[str, Verdict]

    @property
    def ok(self) -> bool:
        return all(v.status == HOLDS for v in self.axioms.values())

    def first_failure(self) -> Verdict | None:
        for v in self.axioms.values():
            if v.status != HOLDS:
                return v
        return None

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        return {"mode": self.mode, "ok": self.ok,
                "axioms": {k: v.to_json(alg) for k, v in self.axioms.items()}}


def _normalize_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None


def _mode_tables(alg: FiniteAlgebra, mode: str, ops: DerivedOps | None):
    """(odot, oplus) for M6/M7, None where the mode does not check them;
    raises ModeUnavailable when the mode needs a table the algebra lacks."""
    if mode == PLAIN:
        return None, None
    if ops is None:
        _, ops = classify(alg)
    if ops.odot is None:
        raise ModeUnavailable(f"mode {mode!r} needs the pseudo-product table")
    if mode == BOUNDED_COMMUTATIVE and ops.oplus is None:
        raise ModeUnavailable("bounded-commutative mode needs the oplus table")
    return ops.odot, ops.oplus if mode == BOUNDED_COMMUTATIVE else None


def check_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN,
                  ops: DerivedOps | None = None) -> MonadicCheckReport:
    """Check M1-M5 (plus M6/M7 per mode) over all element pairs."""
    mode = _normalize_mode(mode)
    od, op = _mode_tables(alg, mode, ops)
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig
    E, F = pair.exists.images, pair.forall.images
    axioms: dict[str, Verdict] = {}

    def axiom(name, arity, preds):
        axioms[name] = Verdict.of(first_failure(n, arity, preds), name)

    axiom("M1", 1, [("M1(arrow)", lambda x: arr[x][E[x]] == one),
                    ("M1(squig)", lambda x: sq[x][E[x]] == one)])
    axiom("M2", 1, [("M2(arrow)", lambda x: arr[F[x]][x] == one),
                    ("M2(squig)", lambda x: sq[F[x]][x] == one)])
    axiom("M3", 2, [("M3(arrow)", lambda x, y: F[arr[x][E[y]]] == arr[E[x]][E[y]]),
                    ("M3(squig)", lambda x, y: F[sq[x][E[y]]] == sq[E[x]][E[y]])])
    axiom("M4", 2, [("M4(arrow)", lambda x, y: F[arr[E[x]][y]] == arr[E[x]][F[y]]),
                    ("M4(squig)", lambda x, y: F[sq[E[x]][y]] == sq[E[x]][F[y]])])
    axiom("M5", 1, [("M5", lambda x: E[F[x]] == F[x])])

    if od is not None:
        axiom("M6", 1, [("M6", lambda x: F[od[x][x]] == od[F[x]][F[x]])])
    if op is not None:
        axiom("M7", 1, [("M7", lambda x: F[op[x][x]] == op[F[x]][F[x]])])

    return MonadicCheckReport(mode, axioms)


def is_monadic(alg: FiniteAlgebra, pair: MonadicPair, mode: str = PLAIN,
               ops: DerivedOps | None = None) -> bool:
    return check_monadic(alg, pair, mode, ops).ok


def enumerate_mop(alg: FiniteAlgebra, mode: str = PLAIN,
                  ops: DerivedOps | None = None,
                  unpruned: bool = False) -> list[MonadicPair]:
    """All monadic pairs, sorted by (forall images, exists images).

    Candidates are the idempotent maps fixing 1 that are increasing
    (exists, M1) or decreasing (forall, M2); idempotence and E1 = F1 = 1
    follow from M1-M5.  The candidates are joined on their shared fixed
    set (an idempotent map's image): forall candidates are grouped by
    image I, and E meets only the groups with C(E) <= I <= Fix(E), where
    C(E) = {x -> e, x ~> e : x, e in Fix(E)}.  I <= Fix(E) is M5
    (E F x = F x); C(E) <= I is M3 at x = E x (F(x -> E y) = x -> E y,
    likewise for ~>), and an E with C(E) outside Fix(E) meets no group.
    Both are instances of the axioms, so every surviving pair is decided by
    `check_monadic` and the result is exact on any input.  `unpruned`
    runs the raw scan over every pair of self-maps instead (self-check;
    feasible for small carriers only).
    """
    mode = _normalize_mode(mode)
    if mode != PLAIN and ops is None:
        _, ops = classify(alg)
    _mode_tables(alg, mode, ops)    # ModeUnavailable before any candidate
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig

    found: list[MonadicPair] = []
    if unpruned:
        # Exhaustive O(n^{2n}) scan.  M1 depends only on the exists
        # candidate and M2 only on the forall candidate, so both are
        # hoisted out of the inner loop; every remaining (exists, forall)
        # pair is still decided exactly.
        forall_maps = [UnaryMap(F) for F in product(range(n), repeat=n)
                       if all(arr[F[x]][x] == one and sq[F[x]][x] == one
                              for x in range(n))]
        for E in product(range(n), repeat=n):
            if not all(arr[x][E[x]] == one and sq[x][E[x]] == one for x in range(n)):
                continue
            em = UnaryMap(E)
            for fm in forall_maps:
                pair = MonadicPair(em, fm)
                if check_monadic(alg, pair, mode, ops).ok:
                    found.append(pair)
        found.sort(key=MonadicPair.sort_key)
        return found

    up = [[y for y in range(n) if arr[x][y] == one and sq[x][y] == one]
          for x in range(n)]
    down = [[y for y in range(n) if arr[y][x] == one and sq[y][x] == one]
            for x in range(n)]
    up[one] = [one]      # exists(1) = 1
    down[one] = [one]    # forall(1) = 1

    def idempotent(m):
        return tuple(map(m.__getitem__, m)) == m      # m m = m

    forall_by_image: dict[frozenset, list[tuple[int, ...]]] = {}
    for F in product(*down):
        if idempotent(F):
            forall_by_image.setdefault(frozenset(F), []).append(F)
    for E in product(*up):
        if not idempotent(E):
            continue
        fix = frozenset(E)
        closed = frozenset(t[x][e] for t in (arr, sq) for x in fix for e in fix)
        if not closed <= fix:
            continue
        em = UnaryMap(E)
        for image, group in forall_by_image.items():
            if closed <= image <= fix:
                for F in group:
                    pair = MonadicPair(em, UnaryMap(F))
                    if check_monadic(alg, pair, mode, ops).ok:
                        found.append(pair)
    found.sort(key=MonadicPair.sort_key)
    return found


def fixed_set(alg: FiniteAlgebra, pair: MonadicPair):
    """(fixed elements, image of forall, kernel of forall) as frozensets."""
    n = alg.size
    fixed_e = frozenset(x for x in range(n) if pair.exists(x) == x)
    fixed_f = frozenset(x for x in range(n) if pair.forall(x) == x)
    if fixed_e != fixed_f:
        raise ValueError("fixed sets of exists and forall disagree; pair is not monadic")
    image = frozenset(pair.forall(x) for x in range(n))
    kernel = frozenset(x for x in range(n) if pair.forall(x) == alg.one)
    return fixed_e, image, kernel


def residuation_check(alg: FiniteAlgebra, pair: MonadicPair,
                      report: ClassificationReport | None = None) -> Verdict:
    """exists(x) <= y iff x <= forall(y), over all pairs.  Needs (T)."""
    if report is None:
        report, _ = classify(alg)
    if not report.holds("condition_T"):
        raise PreconditionUnmet("residuation check needs a transitive order")
    arr, one = alg.arrow, alg.one
    E, F = pair.exists.images, pair.forall.images
    return Verdict.of(first_failure(alg.size, 2, [(
        "residuated_pair",
        lambda x, y: (arr[E[x]][y] == one) == (arr[x][F[y]] == one))]),
        "residuated_pair")


def _require_bounded_good(alg, report, ops, what):
    if not report.holds("bounded") or ops.neg_minus is None:
        raise PreconditionUnmet(f"{what} needs a bounded algebra")
    if not report.holds("good"):
        raise PreconditionUnmet(f"{what} needs a good algebra")


def build_from_tau(alg: FiniteAlgebra, tau: UnaryMap,
                   report: ClassificationReport | None = None,
                   ops: DerivedOps | None = None) -> MonadicPair:
    """Pair with forall = tau, exists x = (tau x-)~, after verifying U1-U6."""
    if report is None or ops is None:
        report, ops = classify(alg)
    _require_bounded_good(alg, report, ops, "build_from_tau")
    if ops.oplus is None:
        raise PreconditionUnmet("build_from_tau needs the oplus table")
    n, one = alg.size, alg.one
    t, nm, ns, op = tau.images, ops.neg_minus, ops.neg_sim, ops.oplus

    checks = [
        (1, [(1, lambda x: alg.arrow[t[x]][x] == one)]),
        (1, [(2, lambda x: ns[t[nm[x]]] == nm[t[ns[x]]])]),
        (2, [(3, lambda x, y: t[op[x][nm[t[y]]]] == op[t[x]][nm[t[y]]]),
             (3, lambda x, y: t[op[ns[t[x]]][y]] == op[ns[t[x]]][t[y]])]),
        (2, [(4, lambda x, y: t[op[x][t[y]]] == t[op[t[x]][y]] == op[t[x]][t[y]])]),
        (1, [(5, lambda x: t[ns[op[nm[x]][nm[x]]]] == ns[op[nm[t[x]]][nm[t[x]]]]),
             (5, lambda x: t[nm[op[ns[x]][ns[x]]]] == nm[op[ns[t[x]]][ns[t[x]]]])]),
    ]
    # U6 is exactly M7, which belongs to the commutative theory; on a
    # non-commutative (e.g. merely involutive) algebra it can fail even
    # for maps the construction is meant for, so it is only enforced
    # when the algebra is commutative.
    if report.holds("commutative"):
        checks.append((1, [(6, lambda x: t[op[x][x]] == op[t[x]][t[x]])]))
    hit = first_failure_of(n, checks)
    if hit is not None:
        raise UConditionFailed(hit[0], hit[1])

    exists = tuple(ns[t[nm[x]]] for x in range(n))
    other = tuple(nm[t[ns[x]]] for x in range(n))
    assert exists == other, "the two defining formulas for exists disagree despite U2"
    pair = MonadicPair(UnaryMap(exists), tau)
    _validate_built(alg, pair, report, ops, "build_from_tau")
    return pair


def build_from_sigma(alg: FiniteAlgebra, sigma: UnaryMap,
                     report: ClassificationReport | None = None,
                     ops: DerivedOps | None = None) -> MonadicPair:
    """Pair with exists = sigma, forall x = (sigma x-)~, after verifying E1-E6."""
    if report is None or ops is None:
        report, ops = classify(alg)
    _require_bounded_good(alg, report, ops, "build_from_sigma")
    if ops.odot is None:
        raise PreconditionUnmet("build_from_sigma needs the pseudo-product table")
    n, one = alg.size, alg.one
    s, nm, ns, od = sigma.images, ops.neg_minus, ops.neg_sim, ops.odot

    checks = [
        (1, [(1, lambda x: alg.arrow[x][s[x]] == one)]),
        (1, [(2, lambda x: ns[s[nm[x]]] == nm[s[ns[x]]])]),
        (2, [(3, lambda x, y: s[od[x][ns[s[y]]]] == od[s[x]][ns[s[y]]]),
             (3, lambda x, y: s[od[nm[s[x]]][y]] == od[nm[s[x]]][s[y]])]),
        (2, [(4, lambda x, y: s[od[x][s[y]]] == s[od[s[x]][y]] == od[s[x]][s[y]])]),
        (1, [(5, lambda x: s[ns[od[nm[x]][nm[x]]]] == ns[od[nm[s[x]]][nm[s[x]]]]),
             (5, lambda x: s[nm[od[ns[x]][ns[x]]]] == nm[od[ns[s[x]]][ns[s[x]]]])]),
    ]
    # E6 mirrors U6/M7: enforced only on commutative algebras (see
    # build_from_tau).
    if report.holds("commutative"):
        checks.append((1, [(6, lambda x: s[od[x][x]] == od[s[x]][s[x]])]))
    hit = first_failure_of(n, checks)
    if hit is not None:
        raise EConditionFailed(hit[0], hit[1])

    forall = tuple(ns[s[nm[x]]] for x in range(n))
    other = tuple(nm[s[ns[x]]] for x in range(n))
    assert forall == other, "the two defining formulas for forall disagree despite E2"
    pair = MonadicPair(sigma, UnaryMap(forall))
    _validate_built(alg, pair, report, ops, "build_from_sigma")
    return pair


def _validate_built(alg, pair, report, ops, what):
    # the construction theorems promise a monadic pair; verify, never
    # assume.  M7 is checked only on commutative algebras, matching the
    # U6/E6 gating above.
    if report.holds("commutative") and ops.oplus is not None and ops.odot is not None:
        mode = BOUNDED_COMMUTATIVE
    elif ops.odot is not None:
        mode = HOOP
    else:
        mode = PLAIN
    chk = check_monadic(alg, pair, mode, ops)
    if not chk.ok:
        bad = chk.first_failure()
        raise AssertionError(f"{what} produced a non-monadic pair: "
                             f"{bad.name} fails at {bad.witness}")


def dual_quantifier(alg: FiniteAlgebra, direction: str, m: UnaryMap,
                    report: ClassificationReport | None = None,
                    ops: DerivedOps | None = None) -> UnaryMap:
    """exists x = (forall x-)~ (direction='exists') or the converse
    ('forall').  Needs a bounded involutive algebra; an involution."""
    if report is None or ops is None:
        report, ops = classify(alg)
    if not report.holds("involutive"):
        raise PreconditionUnmet("dual_quantifier needs a bounded involutive algebra")
    if direction not in ("exists", "forall"):
        raise ValueError("direction must be 'exists' or 'forall'")
    nm, ns = ops.neg_minus, ops.neg_sim
    return UnaryMap(tuple(ns[m(nm[x])] for x in range(alg.size)))


@dataclass(frozen=True)
class CompositionResult:
    pair: MonadicPair | None       # validated composition, when it commutes
    commute: bool
    # pointwise comparisons; None when <= is not a partial order, where
    # the comparison is not meaningful
    forall_le: bool | None         # forall1 <= forall2 pointwise
    exists_le: bool | None         # exists1 <= exists2 pointwise


def compose_pairs(alg: FiniteAlgebra, p1: MonadicPair, p2: MonadicPair,
                  report: ClassificationReport | None = None) -> CompositionResult:
    """Compose two monadic pairs.

    Returns the validated pair (exists1 exists2, forall1 forall2) iff
    the compositions commute; also reports the pointwise ordering and
    asserts its composition characterizations.  The theorems are stated
    for pseudo BCK-algebras, but their arguments only use transitivity
    of the induced order, and the source example applies them to a
    non-BCK transitive algebra -- so that is the precondition enforced.
    """
    if report is None:
        report, _ = classify(alg)
    if not report.holds("condition_T"):
        raise NotBCK("compose_pairs needs a transitive induced order")
    one = alg.one
    e12 = p1.exists.compose(p2.exists)
    e21 = p2.exists.compose(p1.exists)
    f12 = p1.forall.compose(p2.forall)
    f21 = p2.forall.compose(p1.forall)
    commute = e12 == e21 and f12 == f21

    le = lambda a, b: all(alg.arrow[a(x)][b(x)] == one for x in alg.elements())
    # forall1 forall2 = forall1 forces forall1 <= forall2 even on a mere
    # preorder (forall1 x = forall1(forall2 x) <= forall2 x by M2)
    assert not (f12 == p1.forall) or le(p1.forall, p2.forall), \
        "forall ordering characterization (forward)"
    assert not (e12 == p1.exists) or le(p2.exists, p1.exists), \
        "exists ordering characterization (forward)"
    if report.holds("poset"):
        forall_le = le(p1.forall, p2.forall)
        exists_le = le(p1.exists, p2.exists)
        # full equivalences need antisymmetry of <=
        assert forall_le == (f12 == p1.forall), "forall ordering characterization"
        assert le(p2.exists, p1.exists) == (e12 == p1.exists), "exists ordering characterization"
    else:
        forall_le = exists_le = None

    pair = None
    if commute:
        pair = MonadicPair(e12, f12)
        if not check_monadic(alg, pair).ok:
            raise AssertionError("commuting composition failed monadic validation")
    return CompositionResult(pair, commute, forall_le, exists_le)


def check_mv_quantifier(alg: FiniteAlgebra, m: UnaryMap, kind: str,
                        report: ClassificationReport | None = None,
                        ops: DerivedOps | None = None) -> Verdict:
    """MVU1-MVU6 (kind='universal') or MVE1-MVE6 (kind='existential')
    on the multi-valued structure of a bounded commutative algebra."""
    if report is None or ops is None:
        report, ops = classify(alg)
    if not (report.holds("bounded") and report.holds("commutative")):
        raise NotBoundedCommutative("MV quantifier axioms need a bounded commutative algebra")
    f, arr, one = m.images, alg.arrow, alg.one
    nm, ns, od, op = ops.neg_minus, ops.neg_sim, ops.odot, ops.oplus
    # the two kinds differ in MV1 (f decreasing vs increasing) and MV2
    # (f preserves meets vs joins)
    if kind == "universal":
        tag, lat, mv1 = "MVU", ops.meet, lambda x: arr[f[x]][x] == one
    elif kind == "existential":
        tag, lat, mv1 = "MVE", ops.join, lambda x: arr[x][f[x]] == one
    else:
        raise ValueError("kind must be 'universal' or 'existential'")
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
    raise KeyError(f"no unary blocks {prefix}_exists/{prefix}_forall or "
                   f"exists{prefix}/forall{prefix} in {alg.name}")

"""Deductive systems, congruences, quotients and their correspondences.

Deductive systems are upward-closed, modus-ponens-closed subsets
containing 1; congruences are operation-compatible partitions.  The
correspondence reports check, by exhaustive enumeration, that
Theta -> [1]_Theta and D -> Theta_D are mutually inverse bijections
between the appropriate classes.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap
from .classify import (ClassificationReport, DerivedOps, InvariantViolated,
                       Verdict, check_pseudo_be, check_pseudo_bck, classify)
from .quantifiers import MonadicPair, check_monadic, require_monadic

# perfbench/workloads.py catches this name, and perfbench changes only on its own
NotACongruence = PreconditionUnmet


def _unmet(reason: str, witness: tuple[int, ...]) -> PreconditionUnmet:
    return PreconditionUnmet(f"{reason} at {witness}", witness)


class DeductiveSystem(NamedTuple):
    members: frozenset
    normal: bool

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def sort_key(self):
        return (len(self.members), tuple(sorted(self.members)))

    def tokens(self, alg: FiniteAlgebra) -> list[str]:
        return [alg.element_names[x] for x in sorted(self.members)]

    def to_json(self, alg: FiniteAlgebra) -> dict:
        return {"members": self.tokens(alg), "normal": self.normal}


def _mp_closed(alg: FiniteAlgebra, members: frozenset, table) -> bool:
    for x in members:
        row = table[x]
        for y in range(alg.size):
            if row[y] in members and y not in members:
                return False
    return True


def _is_normal(alg: FiniteAlgebra, members: frozenset) -> bool:
    for x, y in product(range(alg.size), repeat=2):
        if (alg.arrow[x][y] in members) != (alg.squig[x][y] in members):
            return False
    return True


def _closures_disagree(alg: FiniteAlgebra, members: frozenset):
    # On a pseudo BE-algebra modus ponens for -> and for ~> close the same
    # sets: x -> ((x -> y) ~> y) = (x -> y) ~> (x -> y) = 1 (psBE4, psBE1),
    # so x ~> ((x -> y) ~> y) = 1 (psBE5), and two ~> steps take x and
    # x -> y to y; symmetrically for ~>.  So a disagreement names the
    # pseudo BE axiom that fails.
    def tokens(xs):
        return ", ".join(alg.element_names[x] for x in xs)

    where = f"arrow and squig closures disagree on {{{tokens(sorted(members))}}}"
    verdict = check_pseudo_be(alg)
    if verdict:
        raise InvariantViolated(f"{where} of a pseudo BE-algebra")
    raise PreconditionUnmet(f"deductive systems need a pseudo BE-algebra: "
                            f"{where}; {verdict.name} fails at "
                            f"({tokens(verdict.witness)})", verdict.witness)


def enumerate_ds(alg: FiniteAlgebra) -> list[DeductiveSystem]:
    """All deductive systems, ascending by size then lexicographically."""
    n, one = alg.size, alg.one
    rest = [x for x in range(n) if x != one]
    out = []
    for bits in range(1 << len(rest)):
        members = frozenset([one] + [x for i, x in enumerate(rest) if bits >> i & 1])
        arrow_closed = _mp_closed(alg, members, alg.arrow)
        squig_closed = _mp_closed(alg, members, alg.squig)
        if arrow_closed != squig_closed:
            _closures_disagree(alg, members)
        if arrow_closed:
            out.append(DeductiveSystem(members, _is_normal(alg, members)))
    out.sort(key=DeductiveSystem.sort_key)
    return out


def is_monadic_ds(ds: DeductiveSystem, pair: MonadicPair) -> bool:
    return all(pair.forall(x) in ds.members for x in ds.members)


def monadic_ds(alg: FiniteAlgebra, pair: MonadicPair,
               ds_list: list[DeductiveSystem] | None = None) -> list[DeductiveSystem]:
    if ds_list is None:
        ds_list = enumerate_ds(alg)
    return [d for d in ds_list if is_monadic_ds(d, pair)]


def _closure(alg: FiniteAlgebra, seed) -> frozenset:
    members = set(seed)
    members.add(alg.one)
    changed = True
    while changed:
        changed = False
        for x in list(members):
            for y in range(alg.size):
                if y not in members and (alg.arrow[x][y] in members
                                         or alg.squig[x][y] in members):
                    members.add(y)
                    changed = True
    return frozenset(members)


def _implication_members(alg: FiniteAlgebra, xs: frozenset, table) -> frozenset:
    # y is generated iff a1 -> (a2 -> ... (ak -> y)...) = 1 for some
    # sequence from xs; on a finite algebra depth |A| suffices since
    # every modus-ponens step adds an element.
    n, one = alg.size, alg.one
    vals = [frozenset([y]) for y in range(n)]  # reachable nested values per target
    hit = set()
    for _ in range(n):
        vals = [frozenset(table[a][v] for a in xs for v in vs) for vs in vals]
        hit.update(y for y in range(n) if one in vals[y])
    return frozenset(hit) | {one}


def generated_ds(alg: FiniteAlgebra, xs,
                 report: ClassificationReport | None = None,
                 verify: bool = True) -> DeductiveSystem:
    """Least deductive system containing xs (modus-ponens fixpoint).

    With verify=True the result is cross-checked against the
    intersection of all enumerated deductive systems containing xs,
    and -- under condition (M) -- against the nested-implication
    membership characterization.
    """
    xs = frozenset(alg.index(x) if isinstance(x, str) else x for x in xs)
    members = _closure(alg, xs)
    if verify:
        meets = [d.members for d in enumerate_ds(alg) if xs <= d.members]
        oracle = frozenset.intersection(*meets)
        if members != oracle:
            raise InvariantViolated(f"fixpoint {sorted(members)} != "
                                    f"intersection oracle {sorted(oracle)}")
        if report is None:
            report, _ = classify(alg)
        if report.holds("condition_M") and xs:
            by_arrow = _implication_members(alg, xs, alg.arrow)
            by_squig = _implication_members(alg, xs, alg.squig)
            if not members == by_arrow == by_squig:
                raise InvariantViolated(
                    "nested-implication characterization disagrees with fixpoint")
    return DeductiveSystem(members, _is_normal(alg, members))


class Congruence(NamedTuple):
    """Partition as a restricted-growth string: classes[x] is the block
    index of x, blocks numbered by first occurrence."""
    classes: tuple

    def same(self, x: int, y: int) -> bool:
        return self.classes[x] == self.classes[y]

    @property
    def n_blocks(self) -> int:
        return max(self.classes) + 1

    def blocks(self) -> list[tuple]:
        out = [[] for _ in range(self.n_blocks)]
        for x, c in enumerate(self.classes):
            out[c].append(x)
        return [tuple(b) for b in out]

    def one_class(self, alg: FiniteAlgebra) -> frozenset:
        c = self.classes[alg.one]
        return frozenset(x for x, b in enumerate(self.classes) if b == c)

    def to_json(self, alg: FiniteAlgebra) -> list[list[str]]:
        return [[alg.element_names[x] for x in b] for b in self.blocks()]


def _canonical(cls) -> Congruence:
    # renumber so block ids appear in first-occurrence order
    seen = {}
    return Congruence(tuple(seen.setdefault(c, len(seen)) for c in cls))


def _related_pairs(cong: Congruence):
    """Every (x, y, u, v) with x ~ y and u ~ v, in lexicographic order."""
    blocks = cong.blocks()
    related = [blocks[c] for c in cong.classes]      # x's block, ascending
    return ((x, y, u, v) for x, ys in enumerate(related) for y in ys
            for u, vs in enumerate(related) for v in vs)


def is_compatible(alg: FiniteAlgebra, cong: Congruence) -> tuple[int, ...] | None:
    """First 4-tuple (x,y,u,v) breaking compatibility, or None.

    Only related pairs x ~ y, u ~ v are visited, in lexicographic order,
    so the witness is the lexicographically first one over all of A^4."""
    cls, a, s = cong.classes, alg.arrow, alg.squig
    first = {}
    lead = [first.setdefault(c, x) for x, c in enumerate(cls)]

    def agrees(t):    # class of t[x][u] and of t[u][x] unchanged by x -> lead[x]
        rows = [list(map(cls.__getitem__, row)) for row in t]
        cols = list(zip(*rows))
        return all(rows[x] == rows[r] and cols[x] == cols[r] for x, r in enumerate(lead))

    # Compatible iff every element agrees with its block's leader r:
    # t[x][u] ~ t[r][u] and t[u][x] ~ t[u][r] are the instances (x, r, u, u)
    # and (u, u, x, r); conversely, for x ~ y and u ~ v with leaders r and
    # r', t[x][u] ~ t[r][u] ~ t[y][u] ~ t[y][r'] ~ t[y][v] and ~ is
    # transitive.  This O(n^2) test decides; the walk only names a failure.
    if agrees(a) and agrees(s):
        return None
    return next(((x, y, u, v) for x, y, u, v in _related_pairs(cong)
                 if cls[a[x][u]] != cls[a[y][v]] or cls[s[x][u]] != cls[s[y][v]]), None)


def is_monadic_congruence(cong: Congruence, pair: MonadicPair) -> bool:
    """x ~ y implies forall x ~ forall y, checked against the first
    element of each block."""
    cls, f = cong.classes, pair.forall.images
    first = {}
    return all(cls[f[x]] == cls[f[first.setdefault(c, x)]]
               for x, c in enumerate(cls))


def is_meet_compatible(alg: FiniteAlgebra, cong: Congruence,
                       ops: DerivedOps) -> bool:
    """Compatibility with the meet, checked only where meets exist."""
    meet, cls = ops.meet, cong.classes
    return meet is None or all(
        meet[x][u] is None or meet[y][v] is None or cls[meet[x][u]] == cls[meet[y][v]]
        for x, y, u, v in _related_pairs(cong))


def is_relative_congruence(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """A congruence is relative when its quotient is a pseudo BCK-algebra."""
    q = quotient(alg, cong)
    return bool(check_pseudo_bck(q.algebra))


def _merge(lab: list, members: list, x: int, y: int) -> None:
    """Merge the classes of x and y (distinct) by relabelling the smaller."""
    keep, gone = lab[x], lab[y]
    if len(members[keep]) < len(members[gone]):
        keep, gone = gone, keep
    for z in members[gone]:
        lab[z] = keep
    members[keep] += members[gone]
    members[gone] = None


def _principal(n: int, a: int, b: int, translates) -> tuple:
    """Cg(a, b): each merge of x and y queues the non-trivial translated
    pairs of (x, y), until the queue empties or one block is left."""
    lab = list(range(n))
    members = [[x] for x in range(n)]
    pending = [[(a, b)]]
    while pending:
        for pair in pending.pop():
            x, y = pair
            if lab[x] != lab[y]:
                _merge(lab, members, x, y)
                if len(members[lab[x]]) == n:
                    return (0,) * n
                pending.append(translates(pair))
    return _canonical(lab).classes


def _join(theta: tuple, links) -> tuple:
    """theta joined with the partition whose blocks the links (x, first
    element of x's block) span; theta itself when every link lies in it."""
    if all(theta[x] == theta[y] for x, y in links):
        return theta
    lab, members = list(theta), Congruence(theta).blocks()
    for x, y in links:
        if lab[x] != lab[y]:
            _merge(lab, members, x, y)
    return _canonical(lab).classes


def enumerate_congruences(alg: FiniteAlgebra) -> list[Congruence]:
    """All congruences, sorted by restricted-growth string.

    Every congruence is the join of the principal congruences Cg(a, b)
    of its pairs, and Con(A) is a sublattice of Eq(A): so the identity
    plus every Cg(a, b), a < b, closed under partition joins, is Con(A)
    (R. Freese, "Computing congruences efficiently", Algebra Universalis
    59, 2008).  A merge relabels the smaller class, so no find is
    needed; a merge of x and y queues the non-trivial translates
    (x op u, y op u) and (u op x, u op y), listed once per pair per
    call.  A join applies only the links (x, first element of x's
    block) of a principal.  Callers report the first congruence that
    fails a law, so the sort order is part of the contract."""
    n = alg.size
    tables = [(t, tuple(zip(*t))) for t in (alg.arrow, alg.squig)]

    @cache
    def translates(pair):
        x, y = pair
        return {(p, q) for t in tables for rows in t
                for p, q in zip(rows[x], rows[y]) if p != q}

    principals = {_principal(n, a, b, translates)
                  for a in range(n) for b in range(a + 1, n)}
    # p.index(c) is the first element of the block numbered c
    links = [[(x, p.index(c)) for x, c in enumerate(p) if p.index(c) != x]
             for p in principals]
    found = set(principals)
    queue = list(principals)
    while queue:
        theta = queue.pop()
        for p in links:
            psi = _join(theta, p)
            if psi not in found:
                found.add(psi)
                queue.append(psi)
    found.add(tuple(range(n)))
    return [Congruence(c) for c in sorted(found)]


def theta_from_ds(alg: FiniteAlgebra, ds: DeductiveSystem) -> Congruence:
    """Theta_D: x ~ y iff x->y and y->x both in D; verified to be a
    congruence with [1] = D before being returned."""
    n, d, a = alg.size, ds.members, alg.arrow
    # related[x] = {y : x ~ y}, a symmetric relation by definition
    related = [frozenset(y for y in range(n) if a[x][y] in d and a[y][x] in d)
               for x in range(n)]
    for x in range(n):
        if x not in related[x]:
            raise _unmet("relation not reflexive", (x,))
    # transitive iff x ~ y puts y's relatives among x's; the n^3 walk
    # only names a failure
    if not all(related[y] <= related[x] for x in range(n) for y in related[x]):
        raise _unmet("relation not transitive", next(
            (x, y, z) for x, y, z in product(range(n), repeat=3)
            if y in related[x] and z in related[y] and z not in related[x]))
    # an equivalence: each class is labelled by its least element
    cong = _canonical([min(r) for r in related])
    bad = is_compatible(alg, cong)
    if bad is not None:
        raise _unmet("relation not compatible with the operations", bad)
    if cong.one_class(alg) != d:
        raise InvariantViolated("[1]_Theta differs from D")
    return cong


class QuotientAlgebra(NamedTuple):
    algebra: FiniteAlgebra
    projection: tuple          # element index -> class index
    pair: MonadicPair | None   # quotient quantifiers, when supplied


def quotient(alg: FiniteAlgebra, cong: Congruence,
             pair: MonadicPair | None = None,
             name: str | None = None) -> QuotientAlgebra:
    """Quotient algebra over the congruence classes.

    Classes are ordered (and named) by their least-index
    representative.  Well-definedness of the class operations is
    verified elementwise, never assumed.  A pair that is not monadic
    raises PreconditionUnmet, naming the first axiom it fails.
    """
    if pair is not None:
        require_monadic(alg, pair, "quotient")
    n = alg.size
    blocks = sorted(cong.blocks(), key=min)
    proj = [None] * n
    for i, b in enumerate(blocks):
        for x in b:
            proj[x] = i
    m = len(blocks)
    reps = [min(b) for b in blocks]

    def build(table):
        out = [[None] * m for _ in range(m)]
        for x, y in product(range(n), repeat=2):
            v = proj[table[x][y]]
            cur = out[proj[x]][proj[y]]
            if cur is None:
                out[proj[x]][proj[y]] = v
            elif cur != v:
                # locate a concrete witness 4-tuple for the report
                for a, b in product(blocks[proj[x]], blocks[proj[y]]):
                    if proj[table[a][b]] != v:
                        raise _unmet("class operation disagrees", (x, a, y, b))
        return tuple(tuple(r) for r in out)

    q_arrow = build(alg.arrow)
    q_squig = build(alg.squig)
    q_zero = proj[alg.zero] if alg.zero is not None else None
    q = FiniteAlgebra(
        name=name or f"{alg.name}_quotient",
        element_names=tuple(alg.element_names[r] for r in reps),
        one=proj[alg.one],
        arrow=q_arrow,
        squig=q_squig,
        zero=q_zero,
    )
    q_pair = None
    if pair is not None:
        def push(um):
            images = [None] * m
            for x in range(n):
                v = proj[um(x)]
                if images[proj[x]] is None:
                    images[proj[x]] = v
                elif images[proj[x]] != v:
                    for a in blocks[proj[x]]:
                        if proj[um(a)] != images[proj[x]]:
                            raise _unmet("class operation disagrees", (x, a, x, a))
            return UnaryMap(tuple(images))

        q_pair = MonadicPair(push(pair.exists), push(pair.forall))
        chk = check_monadic(q, q_pair)
        if not chk.ok:
            bad = chk.first_failure()
            raise InvariantViolated(f"quotient pair fails {bad.name} at {bad.witness}")
    return QuotientAlgebra(q, tuple(proj), q_pair)


VARIANT_BE = "be"
VARIANT_BCK_MEET = "bck_meet"


def correspondence_report(alg: FiniteAlgebra, pair: MonadicPair,
                          variant: str = VARIANT_BE,
                          report: ClassificationReport | None = None,
                          ops: DerivedOps | None = None) -> Verdict:
    """Round-trip check of the congruence/deductive-system bijection.

    variant 'be': monadic congruences vs monadic deductive systems on a
    distributive commutative algebra.  variant 'bck_meet': monadic
    relative congruences (quotient is pseudo BCK; meet-compatible where
    meets exist) vs normal monadic deductive systems, on a pseudo
    BCK-algebra.  The stated scope is the BCK-meet-semilattice case,
    but meets need not be total here; compatibility is enforced only on
    pairs whose meets exist.
    """
    if report is None or ops is None:
        report, ops = classify(alg)
    ds_all = enumerate_ds(alg)
    cons = enumerate_congruences(alg)
    m_cons = [c for c in cons if is_monadic_congruence(c, pair)]

    if variant == VARIANT_BE:
        if not (report.holds("distributive_i") and report.holds("commutative")):
            raise PreconditionUnmet("variant 'be' needs a distributive commutative algebra")
        left = m_cons
        right = [d for d in monadic_ds(alg, pair, ds_all)]
    elif variant == VARIANT_BCK_MEET:
        if not report.holds("pseudo_bck"):
            raise PreconditionUnmet("variant 'bck_meet' needs a pseudo BCK-algebra")
        left = [c for c in m_cons
                if is_meet_compatible(alg, c, ops) and is_relative_congruence(alg, c)]
        right = [d for d in monadic_ds(alg, pair, ds_all) if d.normal]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    by_members = {d.members: d for d in right}
    theta = cache(lambda d: theta_from_ds(alg, d))   # Theta_D once per D
    if len(left) != len(right):
        return Verdict.fails(f"correspondence_{variant}_counts",
                             (len(left), len(right)))
    for cong in left:                       # Theta -> [1] -> Theta round trip
        d = by_members.get(cong.one_class(alg))
        if d is None:
            return Verdict.fails(f"correspondence_{variant}_one_class",
                                 tuple(sorted(cong.one_class(alg))))
        if theta(d) != cong:
            return Verdict.fails(f"correspondence_{variant}_theta_roundtrip",
                                 tuple(sorted(d.members)))
    for d in right:                         # D -> Theta -> [1] round trip
        cong = theta(d)
        if cong not in left:
            return Verdict.fails(f"correspondence_{variant}_theta_class",
                                 tuple(sorted(d.members)))
        if cong.one_class(alg) != d.members:
            return Verdict.fails(f"correspondence_{variant}_ds_roundtrip",
                                 tuple(sorted(d.members)))
    return Verdict.holds(f"correspondence_{variant}")

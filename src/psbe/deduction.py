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
from .classify import (ClassificationReport, InvariantViolated, Verdict,
                       check_pseudo_be, check_pseudo_bck, classify, closed_sets)
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
    """All deductive systems, ascending by size then lexicographically.

    Each one is closed under modus ponens and is the closure of its
    elements, so the systems are the sets reached from <1> by closing
    with one element at a time (`closed_sets`).  The families closed for
    -> and for ~> are listed apart; where they differ, PreconditionUnmet
    names the member of their difference that is least as a binary
    number over the elements other than 1, lower index lower bit.  Kept
    per algebra object (`FiniteAlgebra.kept`); each call gets a new list."""
    return list(alg.kept("ds", _enumerate_ds))


def _enumerate_ds(alg: FiniteAlgebra) -> list[DeductiveSystem]:
    one = alg.one

    def family(table):
        return closed_sets(_closure(alg, (), (table,)), alg.elements(),
                           lambda members, x: members if x in members
                           else _closure(alg, members | {x}, (table,)))

    by_arrow, by_squig = family(alg.arrow), family(alg.squig)
    if by_arrow != by_squig:
        _closures_disagree(alg, min(by_arrow ^ by_squig, key=lambda members: sum(
            1 << (x - (x > one)) for x in members if x != one)))
    return sorted((DeductiveSystem(m, _is_normal(alg, m)) for m in by_arrow),
                  key=DeductiveSystem.sort_key)


def is_monadic_ds(ds: DeductiveSystem, pair: MonadicPair) -> bool:
    return all(pair.forall(x) in ds.members for x in ds.members)


def monadic_ds(alg: FiniteAlgebra, pair: MonadicPair,
               ds_list: list[DeductiveSystem] | None = None) -> list[DeductiveSystem]:
    return [d for d in (enumerate_ds(alg) if ds_list is None else ds_list)
            if is_monadic_ds(d, pair)]


def _closure(alg: FiniteAlgebra, seed, tables) -> frozenset:
    """The least set holding 1 and seed in which x and t[x][y] put y,
    for each table t of tables."""
    members = {alg.one, *seed}
    grown = True
    while grown:
        grown = False
        for y in alg.elements():
            if y not in members and any(t[x][y] in members
                                        for t in tables for x in members):
                members.add(y)
                grown = True
    return frozenset(members)


def generated_ds(alg: FiniteAlgebra, xs,
                 report: ClassificationReport | None = None) -> DeductiveSystem:
    """Least deductive system containing xs: the modus-ponens closure of
    xs for -> and ~> together.  On tables whose two closures disagree it
    is the least set closed for both; `enumerate_ds` rejects such tables."""
    # report is unused; perfbench/workloads.py passes it positionally
    xs = frozenset(alg.index(x) if isinstance(x, str) else x for x in xs)
    members = _closure(alg, xs, (alg.arrow, alg.squig))
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


def is_meet_compatible(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """x ~ y and u ~ v imply x ^ u ~ y ^ v.  Checked only when every meet
    exists; true, unchecked, when some pair has no meet."""
    meet, cls = classify(alg)[0].meet, cong.classes
    return meet is None or all(cls[meet[x][u]] == cls[meet[y][v]]
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
    of its pairs, and Con(A) is a sublattice of Eq(A): so the partitions
    reached from the identity by joins with the Cg(a, b), a < b
    (`closed_sets`), are Con(A) (R. Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).  A merge relabels the
    smaller class, so no find is needed; a merge of x and y queues the
    non-trivial translates (x op u, y op u) and (u op x, u op y), listed
    once per pair per call.  A join applies only the links (x, first
    element of x's block) of a principal.  Callers report the first
    congruence that fails a law, so the sort order is part of the
    contract.  Kept per algebra object; each call gets a new list."""
    return list(alg.kept("congruences", _enumerate_congruences))


def _enumerate_congruences(alg: FiniteAlgebra) -> list[Congruence]:
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
    return [Congruence(c) for c in sorted(closed_sets(tuple(range(n)), links, _join))]


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
        verdict = check_monadic(q, q_pair)
        if not verdict:
            raise InvariantViolated(f"quotient pair fails {verdict.name} at {verdict.witness}")
    return QuotientAlgebra(q, tuple(proj), q_pair)


VARIANT_BE = "be"
VARIANT_BCK_MEET = "bck_meet"


def correspondence_report(alg: FiniteAlgebra, pair: MonadicPair,
                          variant: str = VARIANT_BE) -> Verdict:
    """Round-trip check of the congruence/deductive-system bijection.

    variant 'be': monadic congruences vs monadic deductive systems on a
    distributive commutative algebra.  variant 'bck_meet': monadic
    relative congruences (quotient is pseudo BCK; meet-compatible when
    every meet exists) vs normal monadic deductive systems, on a pseudo
    BCK-algebra.  The stated scope is the BCK-meet-semilattice case,
    but meets need not be total here: meet compatibility is checked only
    when every meet exists, and not at all otherwise.
    """
    report, _ = classify(alg)
    m_cons = [c for c in enumerate_congruences(alg) if is_monadic_congruence(c, pair)]

    if variant == VARIANT_BE:
        if not (report.holds("distributive_i") and report.holds("commutative")):
            raise PreconditionUnmet("variant 'be' needs a distributive commutative algebra")
        left = m_cons
        right = monadic_ds(alg, pair)
    elif variant == VARIANT_BCK_MEET:
        if not report.holds("pseudo_bck"):
            raise PreconditionUnmet("variant 'bck_meet' needs a pseudo BCK-algebra")
        left = [c for c in m_cons
                if is_meet_compatible(alg, c) and is_relative_congruence(alg, c)]
        right = [d for d in monadic_ds(alg, pair) if d.normal]
    else:
        raise PreconditionUnmet(f"unknown variant {variant!r}")

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

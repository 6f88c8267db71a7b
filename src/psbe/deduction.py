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
from operator import itemgetter
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet, UnaryMap, _indices, _listed, is_self_map
from .classify import (HOLDS, ClassificationReport, InvariantViolated, Verdict,
                       check_pseudo_bck, classify, closed_sets, theorem_fails)
from . import quantifiers as _q

# perfbench/workloads.py catches this name, and perfbench changes only on its own
NotACongruence = PreconditionUnmet
_braces = lambda alg, xs: "{" + ", ".join(alg.element_names[x] for x in sorted(xs)) + "}"
_maps_into = lambda members, f: {f[x] for x in members} <= members    # monadic DS: F[D] ⊆ D
# whether members is a set of element indices, as a DeductiveSystem's are
_element_set = lambda members, n: isinstance(members, (set, frozenset)) and _indices(members, n)


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
        return closed_sets(_closure(alg, (), table), alg.elements(),
                           lambda members, x: members if x in members
                           else _closure(alg, members | {x}, table))

    # On a pseudo BE-algebra modus ponens for -> and for ~> close the same
    # sets: x -> ((x -> y) ~> y) = (x -> y) ~> (x -> y) = 1 (psBE4, psBE1),
    # so x ~> ((x -> y) ~> y) = 1 (psBE5), and two ~> steps take x and
    # x -> y to y; symmetrically for ~>.
    by_arrow, by_squig = family(alg.arrow), family(alg.squig)
    if by_arrow != by_squig:
        theorem_fails(alg, "deductive systems need", "arrow and squig closures disagree on "
                      + _braces(alg, min(by_arrow ^ by_squig, key=lambda members: sum(
                          1 << (x - (x > one)) for x in members if x != one))))
    return sorted((DeductiveSystem(m, _is_normal(alg, m)) for m in by_arrow),
                  key=DeductiveSystem.sort_key)


def is_monadic_ds(ds: DeductiveSystem, pair: _q.MonadicPair) -> bool:
    f = pair.forall if isinstance(pair, _q.MonadicPair) else None
    if not is_self_map(f):
        raise PreconditionUnmet(f"is_monadic_ds needs a pair of self-maps, got {pair!r}")
    if not (isinstance(ds, DeductiveSystem) and _element_set(ds.members, len(f))):
        raise PreconditionUnmet(f"is_monadic_ds needs members in the forall map's domain, got {ds!r}")
    return _maps_into(ds.members, f.images)


def monadic_ds(alg: FiniteAlgebra, pair: _q.MonadicPair,
               ds_list: list[DeductiveSystem] | None = None) -> list[DeductiveSystem]:
    _q.require_self_maps(alg, pair, "monadic_ds")
    listed = enumerate_ds(alg) if ds_list is None else _listed(
        ds_list, "monadic_ds needs an iterable of deductive systems")
    return [d for d in listed if is_monadic_ds(d, pair)]


def _closure(alg: FiniteAlgebra, seed, table) -> frozenset:
    """The least set holding 1 and seed in which x and table[x][y] put y."""
    members = {alg.one, *seed}
    grown = True
    while grown:
        grown = False
        for y in alg.elements():
            if y not in members and any(table[x][y] in members for x in members):
                members.add(y)
                grown = True
    return frozenset(members)


def generated_ds(alg: FiniteAlgebra, xs,
                 report: ClassificationReport | None = None) -> DeductiveSystem:
    """Least deductive system containing xs (element names or indices):
    the first listed one holding xs, as the systems are closed under
    intersection and listed by size (`enumerate_ds`, whose kept list it
    reads, and whose PreconditionUnmet it raises).  An element that is
    neither a name nor an int raises PreconditionUnmet, and so does an
    index outside the carrier, with the least such as witness."""
    # report is unused; perfbench/workloads.py passes it positionally
    listed = [alg.index(x) if isinstance(x, str) else x
              for x in _listed(xs, "generated_ds needs an iterable of elements")]
    if not set(map(type, listed)) <= {int}:     # before any is hashed
        raise PreconditionUnmet(f"generated_ds needs element names or indices, got {xs!r}")
    xs = frozenset(listed)
    found = next((d for d in alg.kept("ds", _enumerate_ds) if xs <= d.members), None)
    if found is None:       # the carrier is a system, so xs leaves the carrier
        raise _unmet("element not in the carrier",
                     (min(x for x in xs if x not in alg.elements()),))
    return found


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


def _links(classes) -> list:
    """(x, r) for each x of a partition (classes[x] its block) that is not
    its block's first element r, its leader."""
    first = {}
    leaders = [first.setdefault(c, x) for x, c in enumerate(classes)]
    return [(x, r) for x, r in enumerate(leaders) if r != x]


def _disagreement(cls, links, tables=(), maps=()) -> tuple[int, int] | None:
    """The first link (x, r), under each map in turn and then the tables,
    at which x and its block's leader r disagree, or None: under a map f,
    given by its images, f(x) and f(r) lie in different blocks (cls[x] is
    x's block); under a table t some t[x][u] and t[r][u], or t[u][x] and t[u][r], do.

    None decides compatibility in O(n^2).  Compatibility implies it:
    the disagreements are its instances (x, r, u, u) and (u, u, x, r)
    for a table and (x, r) for a map.  Conversely, for x ~ y and u ~ v
    with leaders r and r', t[x][u] ~ t[r][u] ~ t[y][u] ~ t[y][r'] ~
    t[y][v] and f(x) ~ f(r) ~ f(y), as ~ is transitive."""
    for f in maps:
        for x, r in links:
            if cls[f[x]] != cls[f[r]]:
                return x, r
    if not (links and tables):      # no links also at n = 1, where itemgetter gives no tuple
        return None
    # view[x] is the blocks of x's row or column under one table
    rows = [[itemgetter(*row)(cls) for row in t] for t in tables]
    views = [view for t_rows in rows for view in (t_rows, list(zip(*t_rows)))]
    for x, r in links:
        for view in views:
            if view[x] != view[r]:
                return x, r
    return None


def _incompatibility(alg: FiniteAlgebra, cls, links) -> tuple[int, ...] | None:
    """is_compatible over the given links; the n^4 order of the related
    pairs x ~ y, u ~ v is walked only to name a failure."""
    a, s = alg.arrow, alg.squig
    if _disagreement(cls, links, (a, s)) is None:
        return None
    blocks = Congruence(cls).blocks()
    related = [blocks[c] for c in cls]      # x's block, ascending
    return next(((x, y, u, v) for x, ys in enumerate(related) for y in ys
                 for u, vs in enumerate(related) for v in vs
                 if cls[a[x][u]] != cls[a[y][v]] or cls[s[x][u]] != cls[s[y][v]]), None)


def is_compatible(alg: FiniteAlgebra, cong: Congruence) -> tuple[int, ...] | None:
    """First 4-tuple (x,y,u,v) breaking compatibility, or None.

    Decided by the leader test (`_disagreement`); only related pairs
    x ~ y, u ~ v are visited to name a failure, in lexicographic order,
    so the witness is the lexicographically first one over all of A^4."""
    return _incompatibility(alg, cong.classes, _links(cong.classes))


def is_monadic_congruence(cong: Congruence, pair: _q.MonadicPair) -> bool:
    """x ~ y implies forall x ~ forall y (the leader test)."""
    if not (isinstance(cong, Congruence) and is_self_map(UnaryMap(cong.classes))):
        raise PreconditionUnmet(f"is_monadic_congruence needs a partition, got {cong!r}")
    if not (isinstance(pair, _q.MonadicPair) and is_self_map(pair.forall, len(cong.classes))):
        raise PreconditionUnmet(f"is_monadic_congruence needs self-maps of the carrier, got {pair!r}")
    return _disagreement(cong.classes, _links(cong.classes), maps=(pair.forall.images,)) is None


def is_meet_compatible(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """x ~ y and u ~ v imply x ^ u ~ y ^ v (the leader test).  Checked only
    when every meet exists; true, unchecked, when some pair has no meet."""
    meet, cls = classify(alg)[0].meet, cong.classes
    return meet is None or _disagreement(cls, _links(cls), (meet,)) is None


def is_relative_congruence(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """A congruence is relative when its quotient is a pseudo BCK-algebra."""
    q = quotient(alg, cong)
    return check_pseudo_bck(q.algebra).status == HOLDS


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
    links = [_links(p) for p in principals]
    return [Congruence(c) for c in sorted(closed_sets(tuple(range(n)), links, _join))]


def theta_from_ds(alg: FiniteAlgebra, ds: DeductiveSystem) -> Congruence:
    """Theta_D: x ~ y iff x->y and y->x both in D; verified to be a
    congruence with [1] = D before being returned."""
    if not (isinstance(ds, DeductiveSystem) and _element_set(ds.members, alg.size)):
        raise PreconditionUnmet(f"theta_from_ds needs a set of elements of the carrier, got {ds!r}")
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
    if cong.one_class(alg) != d:      # [1]_Theta = D by psBE2 and psBE3
        theorem_fails(alg, "Theta_D needs", f"[1]_Theta differs from D = {_braces(alg, d)}")
    return cong


class QuotientAlgebra(NamedTuple):
    algebra: FiniteAlgebra
    projection: tuple             # element index -> class index
    pair: _q.MonadicPair | None   # quotient quantifiers, when supplied


def quotient(alg: FiniteAlgebra, cong: Congruence,
             pair: _q.MonadicPair | None = None,
             name: str | None = None) -> QuotientAlgebra:
    """Quotient algebra over the congruence classes.

    Classes are ordered (and named) by their least-index representative,
    their leader.  The leader test (`_disagreement`) decides, never
    assumes, that the tables respect the partition, then exists, then
    forall; each class operation is then read off the leaders.
    PreconditionUnmet names what fails: the pair's first failing axiom
    when it is not monadic, `is_compatible`'s witness for the tables, or
    the map and the first x whose image is not related to the image of
    its leader r, as (x, r).
    """
    if not (isinstance(cong, Congruence) and is_self_map(UnaryMap(cong.classes), alg.size)):
        raise PreconditionUnmet(f"quotient needs a partition of the carrier, got {cong!r}")
    if pair is not None:
        _q.require_monadic(alg, pair, "quotient")
    proj = _canonical(cong.classes).classes      # element -> class index
    links = _links(proj)
    bad = _incompatibility(alg, proj, links)
    if bad is not None:
        raise _unmet("class operation disagrees", bad)
    for label, f in zip(pair._fields, pair) if pair else ():
        bad = _disagreement(proj, links, maps=(f.images,))
        if bad is not None:
            raise _unmet(f"{label} does not respect the congruence", bad)
    reps = [proj.index(c) for c in range(max(proj) + 1)]      # the leaders

    def read(t):
        return tuple(tuple(proj[t[x][y]] for y in reps) for x in reps)

    q = FiniteAlgebra(
        name=name or f"{alg.name}_quotient",
        element_names=tuple(alg.element_names[r] for r in reps),
        one=proj[alg.one],
        arrow=read(alg.arrow),
        squig=read(alg.squig),
        zero=proj[alg.zero] if alg.zero is not None else None,
    )
    q_pair = None
    if pair is not None:
        q_pair = _q.MonadicPair(*(UnaryMap(tuple(proj[f(r)] for r in reps)) for f in pair))
        verdict = _q.check_monadic(q, q_pair)
        if verdict.status != HOLDS:
            raise InvariantViolated(f"quotient pair fails {verdict.name} at {verdict.witness}")
    return QuotientAlgebra(q, proj, q_pair)


VARIANT_BE = "be"
VARIANT_BCK_MEET = "bck_meet"


def correspondence_report(alg: FiniteAlgebra, pair: _q.MonadicPair,
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
    _q.require_self_maps(alg, pair, "correspondence_report")
    report, _ = classify(alg)
    m_cons = [c for c in enumerate_congruences(alg) if is_monadic_congruence(c, pair)]

    if variant == VARIANT_BE:
        if report.unmet(("distributive_i", "commutative")) is not None:
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
    for d in right:                         # D -> Theta (theta_from_ds checks [1] = D)
        cong = theta(d)
        if cong not in left:
            return Verdict.fails(f"correspondence_{variant}_theta_class",
                                 tuple(sorted(d.members)))
    return Verdict.holds(f"correspondence_{variant}")

"""Deductive systems, congruences, quotients and their correspondences.

Deductive systems are upward-closed, modus-ponens-closed subsets
containing 1; congruences are operation-compatible partitions.  The
correspondence reports check, by exhaustive enumeration, that
Theta -> [1]_Theta and D -> Theta_D are mutually inverse bijections
between the appropriate classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .algebra import FiniteAlgebra
from .classify import (ClassificationReport, DerivedOps, InvariantViolated,
                       Verdict, check_pseudo_be, check_pseudo_bck, classify)
from .quantifiers import MonadicPair, PreconditionUnmet, check_monadic


class NotACongruence(ValueError):
    def __init__(self, reason: str, witness: tuple[int, ...]):
        super().__init__(f"{reason} at {witness}")
        self.reason = reason
        self.witness = witness


class IllDefined(ValueError):
    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"class operation disagrees at {witness}")
        self.witness = witness


@dataclass(frozen=True)
class DeductiveSystem:
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
                            f"({tokens(verdict.witness)})")


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
        assert members == oracle, \
            f"fixpoint {sorted(members)} != intersection oracle {sorted(oracle)}"
        if report is None:
            report, _ = classify(alg)
        if report.holds("condition_M") and xs:
            by_arrow = _implication_members(alg, xs, alg.arrow)
            by_squig = _implication_members(alg, xs, alg.squig)
            assert members == by_arrow == by_squig, \
                "nested-implication characterization disagrees with fixpoint"
    return DeductiveSystem(members, _is_normal(alg, members))


@dataclass(frozen=True)
class Congruence:
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

    def block_of(self, x: int) -> tuple:
        c = self.classes[x]
        return tuple(i for i, b in enumerate(self.classes) if b == c)

    def one_class(self, alg: FiniteAlgebra) -> frozenset:
        return frozenset(self.block_of(alg.one))

    @staticmethod
    def identity(n: int) -> "Congruence":
        return Congruence(tuple(range(n)))

    @staticmethod
    def from_blocks(n: int, blocks) -> "Congruence":
        cls = [None] * n
        for i, b in enumerate(blocks):
            for x in b:
                cls[x] = i
        assert None not in cls, "blocks do not cover the carrier"
        return _canonical(cls)

    def to_json(self, alg: FiniteAlgebra) -> list[list[str]]:
        return [[alg.element_names[x] for x in b] for b in self.blocks()]


def _canonical(cls) -> Congruence:
    # renumber so block ids appear in first-occurrence order
    seen = {}
    out = []
    for c in cls:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return Congruence(tuple(out))


def _related(cong: Congruence) -> list[tuple]:
    # related[x] is x's block, ascending
    blocks = cong.blocks()
    return [blocks[c] for c in cong.classes]


def is_compatible(alg: FiniteAlgebra, cong: Congruence) -> tuple[int, ...] | None:
    """First 4-tuple (x,y,u,v) breaking compatibility, or None.

    Only related pairs x ~ y, u ~ v are visited, in lexicographic order,
    so the witness is the lexicographically first one over all of A^4."""
    cls = cong.classes
    related = _related(cong)
    arrow, squig = alg.arrow, alg.squig
    for x, ys in enumerate(related):
        ax, sx = arrow[x], squig[x]
        for y in ys:
            ay, sy = arrow[y], squig[y]
            for u, vs in enumerate(related):
                for v in vs:
                    if cls[ax[u]] != cls[ay[v]] or cls[sx[u]] != cls[sy[v]]:
                        return (x, y, u, v)
    return None


def is_monadic_congruence(cong: Congruence, pair: MonadicPair) -> bool:
    n = len(cong.classes)
    return all(cong.same(pair.forall(x), pair.forall(y))
               for x in range(n) for y in range(n) if cong.same(x, y))


def is_meet_compatible(alg: FiniteAlgebra, cong: Congruence,
                       ops: DerivedOps) -> bool:
    """Compatibility with the meet, checked only where meets exist."""
    meet = ops.meet
    if meet is None:
        return True
    cls = cong.classes
    related = _related(cong)
    for x, ys in enumerate(related):
        for y in ys:
            mx, my = meet[x], meet[y]
            for u, vs in enumerate(related):
                for v in vs:
                    a, b = mx[u], my[v]
                    if a is not None and b is not None and cls[a] != cls[b]:
                        return False
    return True


def is_relative_congruence(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """A congruence is relative when its quotient is a pseudo BCK-algebra."""
    q = quotient(alg, cong)
    return bool(check_pseudo_bck(q.algebra))


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _partition(parent: list) -> tuple:
    """Restricted-growth string of a union-find forest."""
    return _canonical([_find(parent, x) for x in range(len(parent))]).classes


def _principal(alg: FiniteAlgebra, a: int, b: int, cols) -> tuple:
    """Cg(a, b) by union-find closure: each merge of x and y queues the
    translated pairs (x op u, y op u) and (u op x, u op y) for every u
    and both implications, until the queue empties or one block is left."""
    parent = list(range(alg.size))
    blocks = alg.size
    queue = [(a, b)]
    while queue and blocks > 1:
        x, y = queue.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[ry] = rx
            blocks -= 1
            for table, col in zip((alg.arrow, alg.squig), cols):
                queue.extend(zip(table[x], table[y]))
                queue.extend(zip(col[x], col[y]))
    return _partition(parent)


def _join(p: tuple, q: tuple) -> tuple:
    """Join of two partitions in Eq(A), as restricted-growth strings."""
    first = {}
    parent = [first.setdefault(c, x) for x, c in enumerate(p)]
    first = {}
    for x, c in enumerate(q):
        rx, ry = _find(parent, x), _find(parent, first.setdefault(c, x))
        parent[rx] = ry
    return _partition(parent)


def enumerate_congruences(alg: FiniteAlgebra) -> list[Congruence]:
    """All congruences, sorted by restricted-growth string.

    Every congruence is the join of the principal congruences Cg(a, b)
    of its pairs, and Con(A) is a sublattice of Eq(A): so the identity
    plus every Cg(a, b), a < b, closed under partition joins, is Con(A)
    (R. Freese, "Computing congruences efficiently", Algebra Universalis
    59, 2008).  Callers report the first congruence that fails a law,
    so the sort order is part of the contract."""
    n = alg.size
    cols = [tuple(zip(*t)) for t in (alg.arrow, alg.squig)]
    principals = {_principal(alg, a, b, cols)
                  for a in range(n) for b in range(a + 1, n)}
    found = set(principals)
    queue = list(principals)
    while queue:
        theta = queue.pop()
        for p in principals:
            psi = _join(theta, p)
            if psi not in found:
                found.add(psi)
                queue.append(psi)
    found.add(tuple(range(n)))
    return [Congruence(c) for c in sorted(found)]


def theta_from_ds(alg: FiniteAlgebra, ds: DeductiveSystem) -> Congruence:
    """Theta_D: x ~ y iff x->y and y->x both in D; verified to be a
    congruence with [1] = D before being returned."""
    n = alg.size
    d = ds.members
    rel = [[alg.arrow[x][y] in d and alg.arrow[y][x] in d for y in range(n)]
           for x in range(n)]
    for x in range(n):
        if not rel[x][x]:
            raise NotACongruence("relation not reflexive", (x,))
    for x, y in product(range(n), repeat=2):
        if rel[x][y] != rel[y][x]:
            raise NotACongruence("relation not symmetric", (x, y))
    for x, y, z in product(range(n), repeat=3):
        if rel[x][y] and rel[y][z] and not rel[x][z]:
            raise NotACongruence("relation not transitive", (x, y, z))
    cls = [None] * n
    nxt = 0
    for x in range(n):
        if cls[x] is None:
            for y in range(x, n):
                if rel[x][y]:
                    cls[y] = nxt
            nxt += 1
    cong = _canonical(cls)
    bad = is_compatible(alg, cong)
    if bad is not None:
        raise NotACongruence("relation not compatible with the operations", bad)
    assert cong.one_class(alg) == d, "[1]_Theta differs from D"
    return cong


@dataclass(frozen=True)
class QuotientAlgebra:
    algebra: FiniteAlgebra
    projection: tuple          # element index -> class index
    pair: MonadicPair | None   # quotient quantifiers, when supplied


def quotient(alg: FiniteAlgebra, cong: Congruence,
             pair: MonadicPair | None = None,
             name: str | None = None) -> QuotientAlgebra:
    """Quotient algebra over the congruence classes.

    Classes are ordered (and named) by their least-index
    representative.  Well-definedness of the class operations is
    verified elementwise, never assumed.
    """
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
                        raise IllDefined((x, a, y, b))
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
        from .algebra import UnaryMap

        def push(um):
            images = [None] * m
            for x in range(n):
                v = proj[um(x)]
                if images[proj[x]] is None:
                    images[proj[x]] = v
                elif images[proj[x]] != v:
                    for a in blocks[proj[x]]:
                        if proj[um(a)] != images[proj[x]]:
                            raise IllDefined((x, a, x, a))
            return UnaryMap(tuple(images))

        q_pair = MonadicPair(push(pair.exists), push(pair.forall))
        chk = check_monadic(q, q_pair)
        if not chk.ok:
            bad = chk.first_failure()
            raise AssertionError(f"quotient pair fails {bad.name} at {bad.witness}")
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

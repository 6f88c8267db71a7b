"""Axiom checking, classification and derived operations.

All checks are exact table computations by full enumeration, and every
witness-reporting check in the package runs on one scanner,
`first_failure`.  Its order contract: it walks the tuples of element
indices in lexicographic order and, on each tuple, tests the predicates
in the order they are listed; the first predicate that fails names the
failure and the tuple is its witness.  Checks made of several axioms
scan them one after another (`first_failure_of`), so failing output is
deterministic.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product, starmap
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


class InvariantViolated(RuntimeError):
    """A result the program proves or re-checks came out wrong: a bug."""


class Verdict(NamedTuple):
    """Outcome of one check: holds, fails(witness) or not_applicable."""

    name: str
    status: str
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.status == HOLDS

    @staticmethod
    def holds(name: str) -> "Verdict":
        return Verdict(name, HOLDS)

    @staticmethod
    def fails(name: str, witness: tuple[int, ...]) -> "Verdict":
        return Verdict(name, FAILS, witness)

    @staticmethod
    def na(name: str) -> "Verdict":
        return Verdict(name, NOT_APPLICABLE)

    @staticmethod
    def of(hit, name: str) -> "Verdict":
        """Verdict from a first_failure result: holds(name) when it is None."""
        return Verdict.holds(name) if hit is None else Verdict.fails(hit[0], hit[1])

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        doc: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            doc["witness"] = (list(self.witness) if alg is None else
                              [alg.element_names[i] for i in self.witness])
        return doc


def first_failure(n: int, arity: int, preds):
    """First failing (name, tuple, instances) over range(n)**arity, or None.

    Tuples are walked in lexicographic order; on each tuple the
    (name, predicate) entries of preds are tested in order.  `instances`
    counts the tuples visited up to and including the failing one.
    """
    # Most scans of pairs or triples hold: try a lone predicate with a
    # C-level all() first and walk the tuples in Python only to locate a
    # failure.  Predicates are pure, so the result is the same.
    if arity > 1 and len(preds) == 1 and all(
            starmap(preds[0][1], product(range(n), repeat=arity))):
        return None
    for count, tup in enumerate(product(range(n), repeat=arity), 1):
        for name, pred in preds:
            if not pred(*tup):
                return name, tup, count
    return None


def first_failure_of(n: int, checks):
    """first_failure over the (arity, preds) groups of checks, one group
    after another; the first group with a failure decides."""
    for arity, preds in checks:
        hit = first_failure(n, arity, preds)
        if hit is not None:
            return hit
    return None


def backtrack(cells, cands, ok, d=0):
    """Assign each of cands[d] in turn to cells[d] = (row, i), i.e. row[i],
    depth first, yielding at each full assignment (in lexicographic order
    of list positions).  ok(d) runs after cells[d] is set, may read only
    cells[:d + 1] and cells outside the list, and prunes on a False."""
    if d == len(cells):
        yield
        return
    row, i = cells[d]
    for v in cands[d]:
        row[i] = v
        if ok(d):
            yield from backtrack(cells, cands, ok, d + 1)


def closed_sets(start, atoms, join) -> set:
    """Every set reachable from start by joins with the atoms, start
    included: a breadth-first search joining each set found with every
    atom.  When start is the least closed set and each closed set is the
    join of start with atoms, this lists the whole closure system."""
    found, queue = {start}, [start]
    for closed in queue:
        for atom in atoms:
            joined = join(closed, atom)
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return found


PSBE_AXIOMS = ("psBE1", "psBE2", "psBE3", "psBE4", "psBE5")
PSBCK_AXIOMS = ("psBCK1", "psBCK2", "psBCK3", "psBCK4", "psBCK5", "psBCK6")


def check_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    """psBE1-psBE5 over all tuples; first violated axiom wins.  Kept per
    algebra object (`FiniteAlgebra.kept`)."""
    return alg.kept("pseudo_be", _scan_pseudo_be)


def _scan_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig
    return Verdict.of(first_failure_of(n, [
        (1, [("psBE1", lambda x: arr[x][x] == one and sq[x][x] == one)]),
        (1, [("psBE2", lambda x: arr[x][one] == one and sq[x][one] == one)]),
        (1, [("psBE3", lambda x: arr[one][x] == x and sq[one][x] == x)]),
        (3, [("psBE4", lambda x, y, z: arr[x][sq[y][z]] == sq[y][arr[x][z]])]),
        (2, [("psBE5", lambda x, y: (arr[x][y] == one) == (sq[x][y] == one))]),
    ]), "pseudo_be")


def check_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    """psBCK1-psBCK6 over all tuples; axioms scanned cheapest arity first
    (unary, then the antisymmetry quasi-identity, then the ternary ones).
    Kept per algebra object."""
    return alg.kept("pseudo_bck", _scan_pseudo_bck)


def _scan_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig
    hit = first_failure_of(n, [
        (1, [("psBCK3", lambda x: arr[one][x] == x)]),
        (1, [("psBCK4", lambda x: sq[one][x] == x)]),
        (1, [("psBCK5", lambda x: arr[x][one] == one)]),
        # unordered pairs x < y, scanned as (y, x): larger element first
        (2, [("psBCK6", lambda y, x:
              x >= y or arr[x][y] != one or arr[y][x] != one)]),
        (3, [("psBCK1", lambda x, y, z:
              sq[arr[x][y]][sq[arr[y][z]][arr[x][z]]] == one)]),
        (3, [("psBCK2", lambda x, y, z:
              arr[sq[x][y]][arr[sq[y][z]][sq[x][z]]] == one)]),
    ])
    if hit is not None and hit[0] == "psBCK6":
        hit = ("psBCK6", hit[1][::-1])     # reported as (x, y)
    return Verdict.of(hit, "pseudo_bck")


FLAG_NAMES = (
    "pseudo_be", "pseudo_bck", "condition_A", "condition_M", "condition_T",
    "distributive_i", "distributive_ii", "commutative", "bounded", "good",
    "involutive", "poset", "meet_semilattice", "join_semilattice", "lattice",
    "has_pP", "pseudo_hoop", "pseudo_mv",
)
FLAG_ALIASES = {"distributive": "distributive_i"}   # read as its condition (i)


def least_elements(alg: FiniteAlgebra) -> list[int]:
    """The elements z with z -> x = z ~> x = 1 for every x.  Raises
    PreconditionUnmet when the algebra declares a zero that is not its
    only least element (with several, none is singled out)."""
    one, rng = alg.one, alg.elements()
    least = [z for z in rng
             if all(alg.arrow[z][x] == one and alg.squig[z][x] == one for x in rng)]
    if alg.zero is not None and len(least) < 2 and least != [alg.zero]:
        what = (f"the least element ({alg.element_names[least[0]]!r} is)" if least
                else "a least element")
        raise PreconditionUnmet(
            f"declared zero {alg.element_names[alg.zero]!r} is not {what}", (alg.zero,))
    return least


def _cup(first, then):    # the table of (x first y) then y
    rng = range(len(first))
    return tuple(tuple(then[first[x][y]][y] for y in rng) for x in rng)


def tables_of(source, arity: int, pred) -> list:
    """The attributes of source named by pred's parameters, in order: all
    of them but the last `arity`, which take the elements."""
    code = pred.__code__
    return [getattr(source, t) for t in code.co_varnames[:code.co_argcount - arity]]


def _axiom(arity: int, pred):
    """A flag computed on first read: pred(*tables, *t) for every t in range(n)**arity,
    the tables read off the report by `tables_of`; not_applicable if one is undefined."""
    def verdict(report):
        name, args = flag.attrname, tables_of(report, arity, pred)
        if None in args:
            return Verdict.na(name)
        hit = first_failure(report.alg.size, arity, [(name, partial(pred, *args))])
        return Verdict.of(hit, name)
    flag = cached_property(verdict)
    return flag


class ClassificationReport:
    """Classification flags and derived tables of one algebra, each
    computed on first read and kept (see `classify`)."""

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg
        self.arrow, self.squig = alg.arrow, alg.squig
        least = least_elements(alg)
        self._zero = least[0] if len(least) == 1 else None
        self.bounded = (Verdict.holds("bounded") if len(least) == 1
                        else Verdict.fails("bounded", tuple(least[:2])))

    @property
    def flags(self) -> dict[str, Verdict]:
        return {name: getattr(self, name) for name in FLAG_NAMES}

    def __getitem__(self, name: str) -> Verdict:
        name = FLAG_ALIASES.get(name, name)
        if name not in FLAG_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def holds(self, name: str) -> bool:
        return self[name].status == HOLDS

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        return {name: v.to_json(alg) for name, v in self.flags.items()}

    # ------------------------------------------- tables (None if undefined)

    leq = cached_property(lambda self: tuple(tuple(v == self.alg.one for v in row)
                                             for row in self.arrow))
    cup1 = cached_property(lambda self: _cup(self.arrow, self.squig))    # (x -> y) ~> y
    cup2 = cached_property(lambda self: _cup(self.squig, self.arrow))    # (x ~> y) -> y
    neg_minus = cached_property(lambda self: None if self._zero is None else
                                tuple(row[self._zero] for row in self.arrow))   # x -> 0
    neg_sim = cached_property(lambda self: None if self._zero is None else
                              tuple(row[self._zero] for row in self.squig))     # x ~> 0
    meet = cached_property(lambda self: _bound_table(self.leq, lower=True) if self.poset else None)
    join = cached_property(lambda self: _bound_table(self.leq, lower=False) if self.poset else None)
    # (odot, None), or (None, the first pair without a product)
    _pseudo_product = cached_property(lambda self: pseudo_product_table(self.alg, self.leq)
                                      if self.poset else (None, None))
    odot = cached_property(lambda self: self._pseudo_product[0])

    @cached_property
    def oplus(self):    # x (+) y = y~ -> x, required to agree with x- ~> y
        nm, ns = self.neg_minus, self.neg_sim
        if nm is None:
            return None
        a, s, rng = self.arrow, self.squig, self.alg.elements()
        cand = tuple(tuple(a[ns[y]][x] for y in rng) for x in rng)
        return cand if all(cand[x][y] == s[nm[x]][y] for x in rng for y in rng) else None

    # ------------------------------------------------------------- flags

    pseudo_be = cached_property(lambda self: check_pseudo_be(self.alg))
    pseudo_bck = cached_property(lambda self: check_pseudo_bck(self.alg))
    condition_A = _axiom(3, lambda leq, arrow, squig, x, y, z: not leq[x][y] or (
        leq[arrow[y][z]][arrow[x][z]] and leq[squig[y][z]][squig[x][z]]))
    condition_M = _axiom(3, lambda leq, arrow, squig, x, y, z: not leq[x][y] or (
        leq[arrow[z][x]][arrow[z][y]] and leq[squig[z][x]][squig[z][y]]))
    condition_T = _axiom(3, lambda leq, x, y, z: not (leq[x][y] and leq[y][z]) or leq[x][z])
    distributive_i = _axiom(3, lambda arrow, squig, x, y, z:
                            arrow[x][squig[y][z]] == squig[arrow[x][y]][arrow[x][z]])
    distributive_ii = _axiom(3, lambda arrow, squig, x, y, z:
                             squig[x][arrow[y][z]] == arrow[squig[x][y]][squig[x][z]])
    commutative = _axiom(2, lambda cup1, cup2, x, y:
                         cup1[x][y] == cup1[y][x] and cup2[x][y] == cup2[y][x])
    good = _axiom(1, lambda neg_minus, neg_sim, x: neg_sim[neg_minus[x]] == neg_minus[neg_sim[x]])
    involutive = _axiom(1, lambda neg_minus, neg_sim, x:
                        neg_sim[neg_minus[x]] == x and neg_minus[neg_sim[x]] == x)

    @cached_property
    def poset(self):
        leq = self.leq
        antisym = first_failure(self.alg.size, 2, [("antisymmetric", lambda x, y:
                                                    not (leq[x][y] and leq[y][x]) or x == y)])
        if antisym is None and self.condition_T:
            return Verdict.holds("poset")
        return Verdict.fails("poset", antisym[1] if antisym else self.condition_T.witness)

    def _order_flag(self, name, tables, witness=()) -> Verdict:
        if not self.poset:
            return Verdict.na(name)
        return Verdict.holds(name) if None not in tables else Verdict.fails(name, witness)

    meet_semilattice = cached_property(
        lambda self: self._order_flag("meet_semilattice", [self.meet]))
    join_semilattice = cached_property(
        lambda self: self._order_flag("join_semilattice", [self.join]))
    lattice = cached_property(lambda self: self._order_flag("lattice", [self.meet, self.join]))
    has_pP = cached_property(lambda self: self._order_flag(
        "has_pP", self._pseudo_product[:1], self._pseudo_product[1]))

    @cached_property
    def pseudo_hoop(self):    # psH1-psH5 with the computed product
        od, a, s, one = self.odot, self.arrow, self.squig, self.alg.one
        if od is None:
            return Verdict.na("pseudo_hoop")
        psh = first_failure_of(self.alg.size, [
            (1, [("psH1", lambda x: od[x][one] == x and od[one][x] == x)]),
            (3, [("psH3", lambda x, y, z: a[od[x][y]][z] == a[x][a[y][z]])]),
            (3, [("psH4", lambda x, y, z: s[od[x][y]][z] == s[y][s[x][z]])]),
            (2, [("psH5", lambda x, y:
                  od[a[x][y]][x] == od[a[y][x]][y]
                  and od[a[x][y]][x] == od[x][s[x][y]]
                  and od[x][s[x][y]] == od[y][s[y][x]])]),
        ])
        return Verdict.holds("pseudo_hoop") if psh is None else Verdict.fails("pseudo_hoop", psh[1])

    @cached_property
    def pseudo_mv(self):    # of a bounded commutative algebra
        if (self._zero is None or not self.commutative or self.oplus is None
                or self.odot is None):
            return Verdict.na("pseudo_mv")
        return _check_pseudo_mv(self.alg, self.oplus, self.odot, self.neg_minus,
                                self.neg_sim, self._zero)


def classify(alg: FiniteAlgebra) -> tuple[ClassificationReport, ClassificationReport]:
    """alg's one ClassificationReport, twice (the pair perfbench unpacks).
    The first call builds it and the algebra object keeps it, as it keeps
    its DS, congruences and MOP pairs (`FiniteAlgebra.kept`), so every
    later call returns the same report; a `_replace` copy gets its own.
    A bad declared zero raises PreconditionUnmet on every call.  Each flag
    and table is computed on first read (reading the tables and flags it
    needs the same way) and kept: a caller pays only for what it reads."""
    report = alg.kept("classification", ClassificationReport)
    return report, report


def _unique_minimum(candidates: list[int], leq) -> int | None:
    mins = [m for m in candidates if all(leq[m][z] for z in candidates)]
    return mins[0] if len(mins) == 1 else None


def pseudo_product_table(alg: FiniteAlgebra, leq):
    """(table, None) or (None, first failing pair).  Assumes leq is a poset."""
    n = alg.size
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            s1 = [z for z in range(n) if leq[x][alg.arrow[y][z]]]
            s2 = [z for z in range(n) if leq[y][alg.squig[x][z]]]
            m1 = _unique_minimum(s1, leq)
            m2 = _unique_minimum(s2, leq)
            if m1 is None or m2 is None or m1 != m2:
                return None, (x, y)
            row.append(m1)
        rows.append(tuple(row))
    return tuple(rows), None


def _bound_table(leq, lower: bool):
    """Meet (lower=True) or join table from the order, or None if some pair lacks one."""
    n = len(leq)
    le = leq if lower else tuple(zip(*leq))     # a join is a meet of the dual
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            bounds = [z for z in range(n) if le[z][x] and le[z][y]]
            best = [m for m in bounds if all(le[z][m] for z in bounds)]
            if len(best) != 1:
                return None
            row.append(best[0])
        rows.append(tuple(row))
    return tuple(rows)


def _check_pseudo_mv(alg, oplus, odot, nm, ns, zero) -> Verdict:
    """psMV1-psMV8 on the structure ((+), (.), -, ~, 0, 1)."""
    one = alg.one
    return Verdict.of(first_failure_of(alg.size, [
        (3, [("psMV1", lambda x, y, z: oplus[x][oplus[y][z]] == oplus[oplus[x][y]][z])]),
        (1, [("psMV2", lambda x: oplus[x][zero] == x and oplus[zero][x] == x),
             ("psMV3", lambda x: oplus[x][one] == one and oplus[one][x] == one)]),
        (0, [("psMV4", lambda: nm[one] == zero and ns[one] == zero)]),
        (2, [("psMV5", lambda x, y: ns[oplus[nm[x]][nm[y]]] == nm[oplus[ns[x]][ns[y]]]),
             ("psMV6", lambda x, y: len({oplus[x][odot[ns[x]][y]], oplus[y][odot[ns[y]][x]],
                                         oplus[odot[x][nm[y]]][y], oplus[odot[y][nm[x]]][x]}) == 1),
             ("psMV7", lambda x, y: odot[x][oplus[nm[x]][y]] == odot[oplus[x][ns[y]]][y])]),
        (1, [("psMV8", lambda x: ns[nm[x]] == x)]),
    ]), "pseudo_mv")

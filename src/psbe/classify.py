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

from dataclasses import dataclass, field
from itertools import product, starmap

from .algebra import FiniteAlgebra

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


class DeclaredZeroMismatch(ValueError):
    """Declared constant 0 is not a least element of the algebra."""


class InvariantViolated(RuntimeError):
    """A result the program proves or re-checks came out wrong: a bug."""


@dataclass(frozen=True)
class Verdict:
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


PSBE_AXIOMS = ("psBE1", "psBE2", "psBE3", "psBE4", "psBE5")
PSBCK_AXIOMS = ("psBCK1", "psBCK2", "psBCK3", "psBCK4", "psBCK5", "psBCK6")


def check_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    """psBE1-psBE5 over all tuples; first violated axiom wins."""
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
    (unary, then the antisymmetry quasi-identity, then the ternary ones)."""
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


@dataclass(frozen=True)
class DerivedOps:
    """Operations induced by the tables; optional ones are None when undefined."""

    leq: tuple[tuple[bool, ...], ...]
    neg_minus: tuple[int, ...] | None = None   # x -> 0
    neg_sim: tuple[int, ...] | None = None     # x ~> 0
    odot: tuple[tuple[int, ...], ...] | None = None
    oplus: tuple[tuple[int, ...], ...] | None = None
    cup1: tuple[tuple[int, ...], ...] = ()
    cup2: tuple[tuple[int, ...], ...] = ()
    meet: tuple[tuple[int, ...], ...] | None = None
    join: tuple[tuple[int, ...], ...] | None = None


FLAG_NAMES = (
    "pseudo_be", "pseudo_bck", "condition_A", "condition_M", "condition_T",
    "distributive_i", "distributive_ii", "commutative", "bounded", "good",
    "involutive", "poset", "meet_semilattice", "join_semilattice", "lattice",
    "has_pP", "pseudo_hoop", "pseudo_mv",
)


@dataclass(frozen=True)
class ClassificationReport:
    flags: dict[str, Verdict] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Verdict:
        if name == "distributive":   # alias bound to condition (i)
            name = "distributive_i"
        return self.flags[name]

    def holds(self, name: str) -> bool:
        return self[name].status == HOLDS

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        return {name: v.to_json(alg) for name, v in self.flags.items()}


def _least_elements(alg: FiniteAlgebra) -> list[int]:
    one = alg.one
    return [z for z in alg.elements()
            if all(alg.arrow[z][x] == one and alg.squig[z][x] == one
                   for x in alg.elements())]


def _unique_minimum(candidates: list[int], leq) -> int | None:
    mins = [m for m in candidates if all(leq[m][z] for z in candidates)]
    return mins[0] if len(mins) == 1 else None


def report_leq(alg: FiniteAlgebra):
    one = alg.one
    return tuple(tuple(alg.arrow[x][y] == one for y in range(alg.size))
                 for x in range(alg.size))


def classify(alg: FiniteAlgebra) -> tuple[ClassificationReport, DerivedOps]:
    """Compute every classification flag and all derived tables."""
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig
    rng = range(n)
    flags: dict[str, Verdict] = {}

    flags["pseudo_be"] = check_pseudo_be(alg)
    flags["pseudo_bck"] = check_pseudo_bck(alg)

    leq = report_leq(alg)

    def axiom(name, arity, pred):
        flags[name] = Verdict.of(first_failure(n, arity, [(name, pred)]), name)

    axiom("condition_A", 3, lambda x, y, z:
          not leq[x][y] or (leq[arr[y][z]][arr[x][z]] and leq[sq[y][z]][sq[x][z]]))
    axiom("condition_M", 3, lambda x, y, z:
          not leq[x][y] or (leq[arr[z][x]][arr[z][y]] and leq[sq[z][x]][sq[z][y]]))
    axiom("condition_T", 3, lambda x, y, z:
          not (leq[x][y] and leq[y][z]) or leq[x][z])
    axiom("distributive_i", 3, lambda x, y, z: arr[x][sq[y][z]] == sq[arr[x][y]][arr[x][z]])
    axiom("distributive_ii", 3, lambda x, y, z: sq[x][arr[y][z]] == arr[sq[x][y]][sq[x][z]])

    cup1 = tuple(tuple(sq[arr[x][y]][y] for y in rng) for x in rng)
    cup2 = tuple(tuple(arr[sq[x][y]][y] for y in rng) for x in rng)
    axiom("commutative", 2, lambda x, y:
          cup1[x][y] == cup1[y][x] and cup2[x][y] == cup2[y][x])

    # boundedness: search for a least element, even when no zero declared
    least = _least_elements(alg)
    if len(least) == 1:
        zero = least[0]
        if alg.zero is not None and alg.zero != zero:
            raise DeclaredZeroMismatch(
                f"declared zero {alg.element_names[alg.zero]!r} is not the "
                f"least element ({alg.element_names[zero]!r} is)")
        flags["bounded"] = Verdict.holds("bounded")
    elif len(least) == 0:
        zero = None
        if alg.zero is not None:
            raise DeclaredZeroMismatch(
                f"declared zero {alg.element_names[alg.zero]!r} is not a least element")
        flags["bounded"] = Verdict.fails("bounded", ())
    else:
        zero = None
        flags["bounded"] = Verdict.fails("bounded", tuple(least[:2]))

    neg_minus = neg_sim = None
    if zero is not None:
        neg_minus = tuple(arr[x][zero] for x in rng)
        neg_sim = tuple(sq[x][zero] for x in rng)
        nm, ns = neg_minus, neg_sim
        axiom("good", 1, lambda x: ns[nm[x]] == nm[ns[x]])
        axiom("involutive", 1, lambda x: ns[nm[x]] == x and nm[ns[x]] == x)
    else:
        flags["good"] = Verdict.na("good")
        flags["involutive"] = Verdict.na("involutive")

    # order structure
    antisym = first_failure(n, 2, [("antisymmetric", lambda x, y:
                                    not (leq[x][y] and leq[y][x]) or x == y)])
    if antisym is None and flags["condition_T"]:
        flags["poset"] = Verdict.holds("poset")
    else:
        flags["poset"] = Verdict.fails("poset", antisym[1] if antisym
                                       else flags["condition_T"].witness)

    meet = join = None
    if flags["poset"]:
        meet = _bound_table(leq, n, lower=True)
        join = _bound_table(leq, n, lower=False)
        flags["meet_semilattice"] = (Verdict.holds("meet_semilattice") if meet is not None
                                     else Verdict.fails("meet_semilattice", ()))
        flags["join_semilattice"] = (Verdict.holds("join_semilattice") if join is not None
                                     else Verdict.fails("join_semilattice", ()))
        flags["lattice"] = (Verdict.holds("lattice")
                            if meet is not None and join is not None
                            else Verdict.fails("lattice", ()))
    else:
        for f in ("meet_semilattice", "join_semilattice", "lattice"):
            flags[f] = Verdict.na(f)

    # pseudo-product
    odot = None
    if flags["poset"]:
        odot, bad_pair = pseudo_product_table(alg, leq)
        flags["has_pP"] = (Verdict.holds("has_pP") if odot is not None
                           else Verdict.fails("has_pP", bad_pair))
    else:
        flags["has_pP"] = Verdict.na("has_pP")

    # oplus: x (+) y = y~ -> x, required to agree with x- ~> y
    oplus = None
    if zero is not None:
        cand = tuple(tuple(arr[neg_sim[y]][x] for y in rng) for x in rng)
        if all(cand[x][y] == sq[neg_minus[x]][y] for x in rng for y in rng):
            oplus = cand

    # pseudo-hoop: psH1-psH5 with the computed product
    if odot is not None:
        od = odot
        psh = first_failure_of(n, [
            (1, [("psH1", lambda x: od[x][one] == x and od[one][x] == x)]),
            (3, [("psH3", lambda x, y, z: arr[od[x][y]][z] == arr[x][arr[y][z]])]),
            (3, [("psH4", lambda x, y, z: sq[od[x][y]][z] == sq[y][sq[x][z]])]),
            (2, [("psH5", lambda x, y:
                  od[arr[x][y]][x] == od[arr[y][x]][y]
                  and od[arr[x][y]][x] == od[x][sq[x][y]]
                  and od[x][sq[x][y]] == od[y][sq[y][x]])]),
        ])
        flags["pseudo_hoop"] = (Verdict.holds("pseudo_hoop") if psh is None else
                                Verdict.fails("pseudo_hoop", psh[1]))
    else:
        flags["pseudo_hoop"] = Verdict.na("pseudo_hoop")

    # pseudo MV structure of a bounded commutative algebra
    if zero is not None and flags["commutative"] and oplus is not None and odot is not None:
        flags["pseudo_mv"] = _check_pseudo_mv(alg, oplus, odot, neg_minus, neg_sim, zero)
    else:
        flags["pseudo_mv"] = Verdict.na("pseudo_mv")

    ops = DerivedOps(leq=leq, neg_minus=neg_minus, neg_sim=neg_sim,
                     odot=odot, oplus=oplus, cup1=cup1, cup2=cup2,
                     meet=meet, join=join)
    return ClassificationReport(flags), ops


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


def _bound_table(leq, n: int, lower: bool):
    """Meet (lower=True) or join table from the order, or None if some pair lacks one."""
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if lower:
                bounds = [z for z in range(n) if leq[z][x] and leq[z][y]]
                best = [m for m in bounds if all(leq[z][m] for z in bounds)]
            else:
                bounds = [z for z in range(n) if leq[x][z] and leq[y][z]]
                best = [m for m in bounds if all(leq[m][z] for z in bounds)]
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

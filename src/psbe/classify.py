"""Axiom checking, classification and derived operations.

All checks are exact table computations by full enumeration, and every
witness-reporting check in the package runs on one scanner,
`first_failure`.  A check is a (name, expression) entry: a boolean
expression over the element variables x, y, z and named tables, such as
"arrow[x][x] == one".  Its order contract: it walks the tuples of element
indices in lexicographic order and, on each tuple, tests the expressions
in the order they are listed; the first one that fails names the
failure and the tuple is its witness.  Checks made of several axioms
scan them one after another (`first_failure_of`), so failing output is
deterministic.  Each group of expressions runs as one generated loop,
compiled on first use (`_scan`).  `first_failures` gives each check of a
group the rank of its first failing tuple, testing each until it fails.
`dual(expr)` is expr read on the dual algebra, -> and ~> swapped; an axiom
for both arrows is written once, as `both(X)`: "X and dual(X)".
"""

from __future__ import annotations

import _ast    # the parser's node classes, without the import cost of `ast`
import re
from collections import Counter
from functools import cached_property, partial
from typing import NamedTuple

from .algebra import FiniteAlgebra, PreconditionUnmet

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


class InvariantViolated(RuntimeError):
    """A result the program proves or re-checks came out wrong: a bug."""


class Verdict(NamedTuple):
    """Outcome of one check: holds, fails(witness) or not_applicable; a law
    verdict (`laws.evaluate_law`) also carries its instance count and the
    name of its pair.  Callers read `status`, never the verdict's truth."""

    name: str
    status: str
    witness: tuple | None = None
    instances: int | None = None    # set on law verdicts only
    pair: str | None = None

    def __bool__(self) -> bool:
        """True when the check holds; perfbench/workloads.py is its only user."""
        return self.status == HOLDS

    law_id = property(lambda self: self.name)       # perfbench reads these two
    pair_name = property(lambda self: self.pair)

    holds = staticmethod(lambda name: Verdict(name, HOLDS))
    fails = staticmethod(lambda name, witness: Verdict(name, FAILS, witness))
    na = staticmethod(lambda name: Verdict(name, NOT_APPLICABLE))

    # the verdict of a first_failure result: holds(name) when it is None
    of = staticmethod(lambda hit, name: Verdict(name, HOLDS) if hit is None
                      else Verdict(hit[0], FAILS, hit[1]))

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        """{law, pair, status, witness, instances} for a law verdict, else
        {name, status} and the witness when there is one; with alg, the
        witness's element indices are given as names."""
        w = self.witness
        if w is not None:
            w = [alg.element_names[x] if alg is not None and isinstance(x, int) else x for x in w]
        if self.instances is not None:
            return {"law": self.name, "pair": self.pair, "status": self.status,
                    "witness": w, "instances": self.instances}
        return {"name": self.name, "status": self.status} | ({} if w is None else {"witness": w})


def first_failure(n: int, arity: int, checks, source):
    """First failing (name, tuple, instances) over range(n)**arity, or None.

    checks is a tuple of (name, expression): a boolean expression over x,
    y, z (the first `arity` of them) and tables read off source by name.
    Tuples are walked in lexicographic order, a tuple's checks tested in
    the listed order; `instances` counts the tuples up to the failing one.
    The group is compiled into one nested-loop function on its first use
    and cached (`_scan`).  The expressions are the package's own
    constants, and a whitelist admits only names, subscripts, comparisons,
    and/or/not, set displays, integer constants and len(...): text from a
    user must be parsed into such an expression, never passed through."""
    scan = _SCANS.get((arity, checks)) or _scan(arity, checks)
    hit = scan(n, *[getattr(source, t) for t in scan.tables])
    return None if hit is None else (checks[hit[0]][0], hit[1], hit[2])


def first_failures(n: int, arity: int, exprs, source) -> dict:
    """{expression: first_failure(n, arity, ((expression, expression),),
    source)} for exprs (some, arity >= 1), from one loop (`_scan`).  A read
    whose indices an outer loop binds moves to that loop, and one made twice
    in the innermost body is bound once per tuple: each read must be total."""
    exprs = tuple(dict.fromkeys(exprs))
    scan = _SCANS.get((arity, exprs, "ranks")) or _scan(arity, exprs, fused=True)
    return {e: (e, tuple((r - 1) // n ** d % n for d in reversed(range(arity))), r) if r else None
            for e, r in zip(exprs, scan(n, *[getattr(source, t) for t in scan.tables]))}


def first_failure_of(n: int, groups, source):
    """first_failure over the (arity, checks) groups, one group after
    another; the first group with a failure decides."""
    hits = (first_failure(n, arity, checks, source) for arity, checks in groups)
    return next((hit for hit in hits if hit is not None), None)


# dual(expr) is expr on the dual algebra: each name here swapped with its pair; x_t is x transposed
_PAIRED = "a s arrow squig nm ns neg_minus neg_sim cup1 cup2 od od_t op op_t".split()
_DUAL = {name: _PAIRED[i ^ 1] for i, name in enumerate(_PAIRED)}
dual = lambda expr: re.sub(r"[A-Za-z_]\w*", lambda name: _DUAL.get(name[0], name[0]), expr)
both = lambda expr: f"{expr} and {dual(expr)}"      # expr for -> and then for ~>
_VARS = ("x", "y", "z")
_CMP = (_ast.Eq, _ast.NotEq, _ast.Lt, _ast.LtE, _ast.Gt, _ast.GtE, _ast.In, _ast.NotIn)
_SCANS = {}     # (arity, checks) or (arity, exprs, "ranks") -> scan; generated text -> scan


def _scan(arity: int, checks, fused: bool = False):
    """first_failure's function for one group of checks, cached by its text:
    a loop per variable, x outermost, and in the innermost one `if not
    (expression): return index, tuple, rank` per check, rank counting the
    tuples from 1 in lexicographic order.  Its parameters are n and
    the tables named (`scan.tables`).  Nothing is compiled unless every
    expression passes `_whitelist`.  fused gives first_failures' function on
    expressions, `if not _fK and not (expr): _fK = rank` with reads hoisted."""
    exprs = checks if fused else [expr for _, expr in checks]
    tables, spans, names, level = set(), [[] for _ in exprs], {}, [[] for _ in range(arity + 1)]
    for expr, reads in zip(exprs, spans):
        tree = compile(expr, "<check>", "eval", _ast.PyCF_ONLY_AST)    # the scan kernel
        _whitelist(tree.body, expr, arity, tables, reads)
    tables, bodies = tuple(sorted(tables)), []
    texts = Counter(expr[s:e] for expr, reads in zip(exprs, spans) for s, e, _ in reads)
    for expr, reads in zip(exprs, spans):
        chars = list(expr)
        for s, e, d in reads if fused else ():    # inner reads first
            read = expr[s:e]
            if read not in names and (d < arity or texts[read] > 1):    # bound in loop d
                level[d].append((e - s, f"_h{len(names)} = {''.join(chars[s:e])}"))
                names[read] = f"_h{len(names)}"
            if read in names:
                chars[s:e] = [names[read]] + [""] * (e - s - 1)
        bodies.append("".join(chars))
    pad, flags = "    " * (arity + 1), ", ".join(f"_f{i}" for i in range(len(exprs)))
    witness = "(" + ", ".join(_VARS[:arity]) + ("," if arity == 1 else "") + ")"
    rank = "".join(v + " * _n" * (arity - 1 - d) + " + " for d, v in enumerate(_VARS[:arity])) + "1"
    lines = [f"def scan({', '.join(('_n',) + tables)}):", "    _r = _range(_n)"]
    lines += [f"    {flags.replace(',', ' =')} = 0"] * fused
    for d in range(arity + 1):
        lines += [f"{'    ' * d}for {_VARS[d - 1]} in _r:"] * (d > 0)
        lines += ["    " * (d + 1) + line for _, line in sorted(level[d])]
    lines += [f"{pad}if not _f{i} and not ({body}): _f{i} = {rank}" if fused
              else f"{pad}if not ({body}): return {i}, {witness}, {rank}"
              for i, body in enumerate(bodies)]
    lines += [f"        if {flags.replace(',', ' and')}: break", f"    return {flags},"] * fused
    text = "\n".join(lines)
    if text not in _SCANS:
        env = {"__builtins__": {}, "len": len, "_range": range}
        exec(compile(text, "<first_failure scan>", "exec"), env)    # the scan kernel
        _SCANS[text] = env["scan"]
        _SCANS[text].tables = tables
    _SCANS[(arity, checks, "ranks") if fused else (arity, checks)] = _SCANS[text]
    return _SCANS[text]


def _whitelist(node, expr: str, arity: int, tables: set, reads: list) -> int:
    """node's depth (the loop binding the last variable it reads; 0: none),
    with each subscript's (start, end, depth) added to reads, inner ones
    first, and each table named to tables.  InvariantViolated unless node and
    its parts are names (tables and the first `arity` of x, y, z; none starts
    with _), subscripts, comparisons, and/or/not, set displays, integers or len(...)."""
    kind = type(node)
    if kind is _ast.Name and node.id not in ("len",) + _VARS[arity:] and node.id[0] != "_":
        if node.id in _VARS:
            return _VARS.index(node.id) + 1
        tables.add(node.id)
        return 0
    if kind is _ast.Subscript:
        parts = (node.value, node.slice)
    elif kind is _ast.Compare and all(type(op) in _CMP for op in node.ops):
        parts = (node.left, *node.comparators)
    elif kind is _ast.BoolOp:
        parts = node.values
    elif kind is _ast.UnaryOp and type(node.op) is _ast.Not:
        parts = (node.operand,)
    elif kind is _ast.Set:
        parts = node.elts
    elif (kind is _ast.Call and type(node.func) is _ast.Name and node.func.id == "len"
          and len(node.args) == 1 and not node.keywords):
        parts = node.args
    elif kind is _ast.Constant and type(node.value) is int:
        return 0
    else:
        raise InvariantViolated(f"{kind.__name__} is not allowed in the scan expression {expr!r}")
    depth = max([_whitelist(part, expr, arity, tables, reads) for part in parts], default=0)
    if kind is _ast.Subscript:
        reads.append((node.col_offset, node.end_col_offset, depth))
    return depth


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


def check_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    """psBE1-psBE5 over all tuples; first violated axiom wins.  Kept per
    algebra object (`FiniteAlgebra.kept`)."""
    return alg.kept("pseudo_be", _scan_pseudo_be)


_PSBE = (
    (1, (("psBE1", both("arrow[x][x] == one")),)),
    (1, (("psBE2", both("arrow[x][one] == one")),)),
    (1, (("psBE3", both("arrow[one][x] == x")),)),
    (3, (("psBE4", "arrow[x][squig[y][z]] == squig[y][arrow[x][z]]"),)),
    (2, (("psBE5", "(arrow[x][y] == one) == (squig[x][y] == one)"),)),
)


def _scan_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    return Verdict.of(first_failure_of(alg.size, _PSBE, alg), "pseudo_be")


def check_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    """psBCK1-psBCK6 over all tuples; axioms scanned cheapest arity first
    (unary, then the antisymmetry quasi-identity, then the ternary ones).
    Kept per algebra object."""
    return alg.kept("pseudo_bck", _scan_pseudo_bck)


_BCK3, _BCK1 = "arrow[one][x] == x", "squig[arrow[x][y]][squig[arrow[y][z]][arrow[x][z]]] == one"
_PSBCK = (
    (1, (("psBCK3", _BCK3),)),
    (1, (("psBCK4", dual(_BCK3)),)),
    (1, (("psBCK5", "arrow[x][one] == one"),)),
    # unordered pairs y < x, scanned larger element first, reported as (y, x)
    (2, (("psBCK6", "y >= x or arrow[y][x] != one or arrow[x][y] != one"),)),
    (3, (("psBCK1", _BCK1),)),
    (3, (("psBCK2", dual(_BCK1)),)),
)


def _scan_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    hit = first_failure_of(alg.size, _PSBCK, alg)
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
_FLAG_OF = {**{name: name for name in FLAG_NAMES}, **FLAG_ALIASES}
DERIVED_TABLES = ("odot", "oplus", "meet", "join", "neg_minus", "neg_sim")
_DISTRIBUTIVE_I = "arrow[x][squig[y][z]] == squig[arrow[x][y]][arrow[x][z]]"


def least_elements(alg: FiniteAlgebra) -> list[int]:
    """The elements z with z -> x = z ~> x = 1 for every x.  Raises
    PreconditionUnmet when the algebra declares a zero that is not among
    them; one of several is accepted, though none is then the zero."""
    one, rng = alg.one, alg.elements()
    least = [z for z in rng
             if all(alg.arrow[z][x] == one and alg.squig[z][x] == one for x in rng)]
    if alg.zero is not None and alg.zero not in least:
        what = (f"the least element ({alg.element_names[least[0]]!r} is)" if len(least) == 1
                else "a least element")
        raise PreconditionUnmet(
            f"declared zero {alg.element_names[alg.zero]!r} is not {what}", (alg.zero,))
    return least


def _cup(first, then):    # the table of (x first y) then y
    rng = range(len(first))
    return tuple(tuple(then[first[x][y]][y] for y in rng) for x in rng)


def _flag(hypothesis, compute):
    """A flag computed on first read: compute(report, its name), or
    not_applicable where the report does not meet hypothesis (`unmet`)."""
    def verdict(report):
        name = flag.attrname
        return Verdict.na(name) if report.unmet(hypothesis) else compute(report, name)
    flag = cached_property(verdict)
    return flag


def _axiom(arity: int, expr: str, hypothesis=()):
    """A flag: expr at every t in range(n)**arity, over the report's tables."""
    return _flag(hypothesis, lambda report, name: Verdict.of(
        first_failure(report.alg.size, arity, ((name, expr),), report), name))


def _exists(*tables, witness=lambda report: ()):
    """A flag of a poset: holds when the derived tables exist."""
    return _flag(("poset",), lambda report, name: Verdict.fails(name, witness(report))
                 if report.unmet(tables) else Verdict.holds(name))


class ClassificationReport:
    """Classification flags and derived tables of one algebra, each
    computed on first read and kept (see `classify`)."""

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg
        self.one, self.arrow, self.squig = alg.one, alg.arrow, alg.squig
        least = least_elements(alg)
        self.zero = least[0] if len(least) == 1 else None     # the derived least element
        self.bounded = (Verdict.holds("bounded") if len(least) == 1
                        else Verdict.fails("bounded", tuple(least[:2])))

    @property
    def flags(self) -> dict[str, Verdict]:
        return {name: getattr(self, name) for name in FLAG_NAMES}

    def __getitem__(self, name: str) -> Verdict:
        return getattr(self, _FLAG_OF[name])    # KeyError unless a flag or an alias

    def unmet(self, names) -> str | None:
        """The first of names not met, or None: a flag (FLAG_NAMES, or an
        alias) is met when it holds, a table of DERIVED_TABLES when it
        exists.  The one applicability test of the package: hypotheses,
        search requirements and preconditions are such names."""
        for name in names:
            if name in _FLAG_OF:
                met = getattr(self, _FLAG_OF[name]).status == HOLDS
            elif name in DERIVED_TABLES:
                met = getattr(self, name) is not None
            else:
                raise InvariantViolated(f"{name!r} is neither a flag nor a derived table")
            if not met:
                return name
        return None

    holds = lambda self, name: self.unmet((name,)) is None

    def to_json(self, alg: FiniteAlgebra | None = None) -> dict:
        return {name: v.to_json(alg) for name, v in self.flags.items()}

    # ------------------------------------------- tables (None if undefined)

    leq = cached_property(lambda self: tuple(tuple(v == self.one for v in row)
                                             for row in self.arrow))
    cup1 = cached_property(lambda self: _cup(self.arrow, self.squig))    # (x -> y) ~> y
    cup2 = cached_property(lambda self: _cup(self.squig, self.arrow))    # (x ~> y) -> y
    neg_minus = cached_property(lambda self: None if self.zero is None else
                                tuple(row[self.zero] for row in self.arrow))    # x -> 0
    neg_sim = cached_property(lambda self: None if self.zero is None else
                              tuple(row[self.zero] for row in self.squig))      # x ~> 0
    meet = cached_property(lambda self: _bound_table(self.leq, lower=True)
                           if self.holds("poset") else None)
    join = cached_property(lambda self: _bound_table(self.leq, lower=False)
                           if self.holds("poset") else None)
    # (odot, None), or (None, the first pair without a product)
    _pseudo_product = cached_property(lambda self: pseudo_product_table(self.alg, self.leq)
                                      if self.holds("poset") else (None, None))
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
    condition_A = _axiom(3, f"not leq[x][y] or ({both('leq[arrow[y][z]][arrow[x][z]]')})")
    condition_M = _axiom(3, f"not leq[x][y] or ({both('leq[arrow[z][x]][arrow[z][y]]')})")
    condition_T = _axiom(3, "not (leq[x][y] and leq[y][z]) or leq[x][z]")
    distributive_i = _axiom(3, _DISTRIBUTIVE_I)
    distributive_ii = _axiom(3, dual(_DISTRIBUTIVE_I))
    commutative = _axiom(2, both("cup1[x][y] == cup1[y][x]"))
    good = _axiom(1, "neg_sim[neg_minus[x]] == neg_minus[neg_sim[x]]", ("bounded",))
    involutive = _axiom(1, both("neg_sim[neg_minus[x]] == x"), ("bounded",))

    @cached_property
    def poset(self):
        antisym = first_failure(self.alg.size, 2, (
            ("antisymmetric", "not (leq[x][y] and leq[y][x]) or x == y"),), self)
        if antisym is None and self.holds("condition_T"):
            return Verdict.holds("poset")
        return Verdict.fails("poset", antisym[1] if antisym else self.condition_T.witness)

    meet_semilattice = _exists("meet")
    join_semilattice = _exists("join")
    lattice = _exists("meet", "join")
    has_pP = _exists("odot", witness=lambda self: self._pseudo_product[1])

    @partial(_flag, ("has_pP",))
    def pseudo_hoop(self, name):    # psH1-psH5 with the computed product
        psh = first_failure_of(self.alg.size, _PSH, self)
        return Verdict.holds(name) if psh is None else Verdict.fails(name, psh[1])

    # psMV1-psMV8 on ((+), (.), -, ~, 0, 1) of a bounded commutative algebra
    pseudo_mv = _flag(("bounded", "commutative", "oplus", "odot"), lambda self, name:
                      Verdict.of(first_failure_of(self.alg.size, _PSMV, self), name))


_PSH = (
    (1, (("psH1", "odot[x][one] == x and odot[one][x] == x"),)),
    (3, (("psH3", "arrow[odot[x][y]][z] == arrow[x][arrow[y][z]]"),)),
    (3, (("psH4", "squig[odot[x][y]][z] == squig[y][squig[x][z]]"),)),
    (2, (("psH5", "odot[arrow[x][y]][x] == odot[arrow[y][x]][y]"
                  " and odot[arrow[x][y]][x] == odot[x][squig[x][y]]"
                  " and odot[x][squig[x][y]] == odot[y][squig[y][x]]"),)),
)


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


def _least(candidates: list[int], le) -> int | None:
    """The one m of candidates with le[m][z] for every candidate z, or None."""
    best = [m for m in candidates if all(le[m][z] for z in candidates)]
    return best[0] if len(best) == 1 else None


def _table(n: int, cell):
    """(the n x n table of cell(x, y), None), or (None, the first (x, y)
    in lexicographic order where cell gives None)."""
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            v = cell(x, y)
            if v is None:
                return None, (x, y)
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows), None


def pseudo_product_table(alg: FiniteAlgebra, leq):
    """(table, None) or (None, first failing pair).  Assumes leq is a poset."""
    rng, arrow, squig = alg.elements(), alg.arrow, alg.squig

    def cell(x, y):    # the least z with x <= y -> z, if it is the least z with y <= x ~> z
        m = _least([z for z in rng if leq[x][arrow[y][z]]], leq)
        return m if m == _least([z for z in rng if leq[y][squig[x][z]]], leq) else None
    return _table(alg.size, cell)


def _bound_table(leq, lower: bool):
    """Meet (lower=True) or join table from the order, or None if some pair lacks one."""
    rng, geq = range(len(leq)), tuple(zip(*leq))
    le, ge = (leq, geq) if lower else (geq, leq)     # a join is a meet of the dual

    def cell(x, y):    # the greatest common lower bound under le
        return _least([z for z in rng if le[z][x] and le[z][y]], ge)
    return _table(len(leq), cell)[0]


_PSMV = (
    (3, (("psMV1", "oplus[x][oplus[y][z]] == oplus[oplus[x][y]][z]"),)),
    (1, (("psMV2", "oplus[x][zero] == x and oplus[zero][x] == x"),
         ("psMV3", "oplus[x][one] == one and oplus[one][x] == one"))),
    (0, (("psMV4", both("neg_minus[one] == zero")),)),
    (2, (("psMV5", "neg_sim[oplus[neg_minus[x]][neg_minus[y]]]"
                   " == neg_minus[oplus[neg_sim[x]][neg_sim[y]]]"),
         ("psMV6", "len({oplus[x][odot[neg_sim[x]][y]], oplus[y][odot[neg_sim[y]][x]],"
                   " oplus[odot[x][neg_minus[y]]][y], oplus[odot[y][neg_minus[x]]][x]}) == 1"),
         ("psMV7", "odot[x][oplus[neg_minus[x]][y]] == odot[oplus[x][neg_sim[y]]][y]"))),
    (1, (("psMV8", "neg_sim[neg_minus[x]] == x"),)),
)

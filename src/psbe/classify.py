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

Every law, flag and axiom is a formula (`formula`), compiled into the
expression the kernel scans over the tables as the algebra and its report
name them (`expression`): x -> y = 1 is "arrow[x][y] == one".  Tightest
first: x, y, z, 0, 1 and (t); the negations x- and x~; E and F, the
existential and universal operators; * (pseudo-product); (+) (its dual);
^ and v (meet, join); -> and ~>; the relations t <= u, t = u = ..., t ~C u
("cls[t] == cls[u]") and t in [1]_C ("t in one_cls"); `and`; `implies` (or
`imply`) and `iff`.  Only =, `and`, *, (+), ^ and v repeat (from the left);
two operators of one level need parentheses.  The dual of X, X read on the
dual algebra A^op (`opposite`), swaps -> with ~>, - with ~ and the operands
of * and (+); a trailing "(dual)" states it, and "(both arrows)" states X
and its dual.  A leading "under (X):" names condition (X); "for every
[monadic] congruence C:" states X of each such C, whose classes ~C and [1]_C
read (tree: (quantifier, X), which the dual keeps); the kernel scans X over
every congruence at once, one bit of an int per congruence
(`first_failing_bit`).  Elsewhere, naming no z, a
relation X then "(all x,y)" is closed over x and y (tree: ("(all x,y)", X)),
and only `iff` takes one, joining two.  E, F and "monadic" read the pair.  The
arity is the highest of x, y, z named, 0 for none.
"""

from __future__ import annotations

import _ast    # the parser's node classes, without the import cost of `ast`
import re
from collections import Counter
from functools import cache, cached_property, partial
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

    def failed_at(self, alg: FiniteAlgebra) -> str:     # "psBE2 fails at (a)", for messages
        return f"{self.name} fails at ({', '.join(alg.element_names[x] for x in self.witness)})"

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
    and/or/not, set displays and integer constants: text from a user must
    be parsed into such an expression, never passed through."""
    scan = _SCANS.get((arity, checks)) or _scan(arity, checks)
    hit = scan(n, *[getattr(source, t) for t in scan.tables])
    return None if hit is None else (checks[hit[0]][0], hit[1], hit[2])


def first_failures(n: int, arity: int, exprs, source) -> dict:
    """{expression: first_failure(n, arity, ((expression, expression),),
    source)} for exprs (some, arity >= 1), from one loop (`_scan`).  A read
    whose indices an outer loop binds moves to that loop, and one made twice
    in the innermost body is bound once per tuple: each read must be total."""
    exprs = tuple(dict.fromkeys(exprs))
    scan = _SCANS.get((arity, exprs, "ranks")) or _scan(arity, exprs, "ranks")
    return {e: (e, tuple((r - 1) // n ** d % n for d in reversed(range(arity))), r) if r else None
            for e, r in zip(exprs, scan(n, *[getattr(source, t) for t in scan.tables]))}


def first_failing_bit(n: int, arity: int, expr: str, source):
    """(c, tuple): c the lowest bit that expr, a mask over x, y, z (the first
    `arity`) and tables read off source, sets at any tuple of
    range(n)**arity, and tuple the first where it is set; None where expr is
    0 at every tuple.  One loop (`_scan`), whose expression may also use &,
    |, ^ and ~, such as a congruence law's failure mask (`expression`)."""
    scan = _SCANS.get((arity, (expr,), "masks")) or _scan(arity, (expr,), "masks")
    low, witness = scan(n, *[getattr(source, t) for t in scan.tables])
    return None if witness is None else (low.bit_length() - 1, witness)


def first_failure_of(n: int, groups, source):
    """first_failure over the (arity, checks) groups, one group after
    another; the first group with a failure decides."""
    hits = (first_failure(n, arity, checks, source) for arity, checks in groups)
    return next((hit for hit in hits if hit is not None), None)


_VARS = ("x", "y", "z")
_CMP = (_ast.Eq, _ast.NotEq, _ast.Lt, _ast.LtE, _ast.Gt, _ast.GtE, _ast.In, _ast.NotIn)
_BITS = (_ast.BitAnd, _ast.BitOr, _ast.BitXor, _ast.Invert)
_SCANS = {}     # (arity, checks) or (arity, exprs, mode) -> scan; generated text -> scan


def _scan(arity: int, checks, mode=None):
    """first_failure's function for one group of checks, cached by its text:
    a loop per variable, x outermost, and in the innermost one `if not
    (expression): return index, tuple, rank` per check, rank counting the
    tuples from 1 in lexicographic order.  Its parameters are n and
    the tables named (`scan.tables`).  Nothing is compiled unless every
    expression passes `_whitelist`.  On expressions, with reads hoisted,
    mode "ranks" gives first_failures' function, `if not _fK and not
    (expr): _fK = rank`, and mode "masks" first_failing_bit's on one mask,
    which keeps the lowest bit set yet and the tuple that first set it."""
    exprs = checks if mode else [expr for _, expr in checks]
    tables, spans, names, level = set(), [[] for _ in exprs], {}, [[] for _ in range(arity + 1)]
    for expr, reads in zip(exprs, spans):
        tree = compile(expr, "<check>", "eval", _ast.PyCF_ONLY_AST)    # the scan kernel
        _whitelist(tree.body, expr, arity, tables, reads, mode == "masks")
    tables, bodies = tuple(sorted(tables)), []
    texts = Counter(expr[s:e] for expr, reads in zip(exprs, spans) for s, e, _ in reads)
    for expr, reads in zip(exprs, spans):
        chars = list(expr)
        for s, e, d in reads if mode else ():    # inner reads first
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
    lines += [f"    {flags.replace(',', ' =')} = 0"] * (mode == "ranks")
    lines += ["    _low, _below, _t = 0, -1, None"] * (mode == "masks")
    for d in range(arity + 1):
        lines += [f"{'    ' * d}for {_VARS[d - 1]} in _r:"] * (d > 0)
        lines += ["    " * (d + 1) + line for _, line in sorted(level[d])]
    if mode == "masks":     # a bit below the lowest yet: the lowest of the new bits is lower
        lines += [f"{pad}_b = {bodies[0]}", f"{pad}if _b & _below:",
                  f"{pad}    _low = _b & -_b", f"{pad}    _below, _t = _low - 1, {witness}",
                  f"{pad}    if not _below: return _low, _t", "    return _low, _t"]
    else:
        lines += [f"{pad}if not _f{i} and not ({body}): _f{i} = {rank}" if mode
                  else f"{pad}if not ({body}): return {i}, {witness}, {rank}"
                  for i, body in enumerate(bodies)]
        lines += [f"        if {flags.replace(',', ' and')}: break", f"    return {flags},"] * bool(mode)
    text = "\n".join(lines)
    if text not in _SCANS:
        env = {"__builtins__": {}, "_range": range}
        exec(compile(text, "<first_failure scan>", "exec"), env)    # the scan kernel
        _SCANS[text] = env["scan"]
        _SCANS[text].tables = tables
    _SCANS[(arity, checks, mode) if mode else (arity, checks)] = _SCANS[text]
    return _SCANS[text]


def _whitelist(node, expr: str, arity: int, tables: set, reads: list, bits: bool = False) -> int:
    """node's depth (the loop binding the last variable it reads; 0: none),
    with each subscript's (start, end, depth) added to reads, inner ones
    first, and each table named to tables.  InvariantViolated unless node and
    its parts are names (tables and the first `arity` of x, y, z; none starts
    with _), subscripts, comparisons, and/or/not, set displays or integers,
    or, with bits, the bitwise operators &, |, ^ and ~."""
    kind = type(node)
    if kind is _ast.Name and node.id not in _VARS[arity:] and node.id[0] != "_":
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
    elif kind is _ast.UnaryOp and (type(node.op) is _ast.Not or bits and type(node.op) in _BITS):
        parts = (node.operand,)
    elif kind is _ast.BinOp and bits and type(node.op) in _BITS:
        parts = (node.left, node.right)
    elif kind is _ast.Set:
        parts = node.elts
    elif kind is _ast.Constant and type(node.value) is int:
        return 0
    else:
        raise InvariantViolated(f"{kind.__name__} is not allowed in the scan expression {expr!r}")
    depth = max([_whitelist(part, expr, arity, tables, reads, bits) for part in parts], default=0)
    if kind is _ast.Subscript:
        reads.append((node.col_offset, node.end_col_offset, depth))
    return depth


_LEVELS = (("implies", "imply", "iff"), ("and",), ("<=", "=", "~C", "in"), ("->", "~>"),
           ("^", "v"), ("(+)",), ("*",))    # loosest first; under them E, F and then - and ~
_RANK = {op: rank for rank, ops in enumerate(_LEVELS) for op in ops}
_CHAINS = ("and", "=", "^", "v", "(+)", "*")
_FORM = {"implies": "(not ({}) or ({}))", "imply": "(not ({}) or ({}))", "iff": "({}) == ({})",
         "and": "{} and {}", "<=": "leq[{}][{}]", "=": "{} == {}", "->": "arrow[{}][{}]",
         "~>": "squig[{}][{}]", "^": "meet[{}][{}]", "v": "join[{}][{}]", "(+)": "oplus[{}][{}]",
         "*": "odot[{}][{}]", "E": "E[{}]", "F": "F[{}]", "-": "neg_minus[{}]",
         "~": "neg_sim[{}]", "x": "x", "y": "y", "z": "z", "0": "zero", "1": "one",
         "~C": "cls[{}] == cls[{}]", "in": "{} in {}", "[1]_C": "one_cls",
         "for every congruence C:": "{}", "for every monadic congruence C:": "{}"}
_MASK = {"implies": "~({}) | ({})", "imply": "~({}) | ({})", "iff": "~(({}) ^ ({}))",
         "and": "({}) & ({})", "~C": "EQ[{}][{}]", "in": "ONE[{}]",
         "for every congruence C:": "ALL & ~({})", "for every monadic congruence C:": "MON & ~({})"}
_OPPOSITE = {"->": "~>", "~>": "->", "-": "~", "~": "-"}    # and * and (+) swap operands
_TOKEN = (r"\s*(under \([AMT]\):|for every (?:monadic )?congruence C:|\(both arrows\)|\(dual\)"
          r"|\(all x,y\)|\(\+\)|and|implies|imply|iff|in|->|~>|~C|<=|\[1\]_C|\S)")
_FORMULAS = {}      # formula text -> (tree, arity, reads the pair, condition)


def formula(text: str, name: str = "") -> tuple:
    """(tree, arity, whether it reads the pair, X of "under (X):" or None) of text,
    kept by it; InvariantViolated, naming name and the position, if malformed."""
    if text in _FORMULAS:
        return _FORMULAS[text]
    toks = [(m[1], m.start(1)) for m in re.finditer(_TOKEN, text)]
    names, toks = {tok for tok, _ in toks}, [("", len(text))] + toks[::-1]    # next one last
    peek = lambda: toks[-1][0]
    lead = toks.pop()[0] if peek().startswith(("under", "for every")) else ""    # one at most
    under, over = (lead[7], "") if lead[:1] == "u" else (None, lead)    # A, M or T; a quantifier

    def fail(tok, pos):
        raise InvariantViolated(f"{name}: unexpected {tok or 'end'!r} at position {pos} "
                                f"of {text!r}")

    def take(*want):
        tok, pos = toks.pop()
        return tok if tok in want else fail(tok, pos)

    def parse(level):       # (tree, rank of its outer operator) with operators of _LEVELS[level:]
        left, top, last = unary(), len(_LEVELS), None
        while _RANK.get(peek(), -1) >= level:
            op, pos = toks.pop()
            # `and`, `implies`, `iff` join formulas, not terms; C is the quantifier's congruence
            rank = _RANK[op] if over or op not in ("~C", "in") else fail(op, pos)
            right, inner = ((take("[1]_C"),), len(_LEVELS)) if op == "in" else parse(rank + 1)
            shut = (left[0], right[0]).count("(all x,y)")     # `iff` joins two closed parts
            if (rank == top and (op != last or op not in _CHAINS) or rank < 2 < max(top, inner)
                    or shut and (op, shut) != ("iff", 2)):
                fail(op, pos)
            left, top, last = (op, left, right), rank, op
            if rank == 2 and peek() == "(all x,y)" and not over and "z" not in names:
                left = toks.pop()[0], left
        return left, top

    def unary():            # E t or F t, else x, y, z, 0, 1 or (t), then - and ~
        tok = take("E", "F", "(", "x", "y", "z", "0", "1")
        if tok in ("E", "F"):
            return tok, unary()
        t = (parse(3)[0], take(")"))[0] if tok == "(" else (tok,)
        while peek() in ("-", "~"):
            t = take(peek()), t
        return t

    tree, top = parse(0)
    if top <= 2 and peek() in ("(both arrows)", "(dual)") and "(all x,y)" not in names:
        tree = ("and", tree, opposite(tree)) if toks.pop()[0] == "(both arrows)" else opposite(tree)
    if top > 2 or peek() or tree[0] == "(all x,y)":    # a term, text after it, a part alone
        fail(*toks[-1])
    _FORMULAS[text] = ((over, tree) if over else tree, max(0, *map(" xyz".find, names)),
                       bool(names & {"E", "F", "for every monadic congruence C:"}), under)
    return _FORMULAS[text]


def expression(tree, masks: bool = False) -> str:
    """The expression the kernel scans for a formula's tree, which closes no
    part.  With masks, a congruence quantifier's tree gives its failure mask
    (`first_failing_bit`), bit c set where the body fails at the c-th
    congruence: ALL has a bit per congruence, MON one per monadic one, t ~C
    u reads EQ[t][u], t in [1]_C reads ONE[t], a relation without C gives
    ALL or 0, and `and`, `implies` and `iff` are &, ~a | b and ~(a ^ b)."""
    op = tree[0]
    if op == "(all x,y)":
        raise InvariantViolated(f"{tree} closes x and y: the kernel scans each part alone")
    if not masks:
        return _FORM[op].format(*map(expression, tree[1:]))
    if op not in _MASK:
        return f"({expression(tree)} and ALL)"
    # the terms of ~C and in are plain; in reads its left one only
    return _MASK[op].format(*(expression(t, op not in ("~C", "in")) for t in tree[1:]))


def opposite(tree) -> tuple:
    """The dual of a formula's tree: the formula read on A^op."""
    op, *operands = tree
    operands = [opposite(t) for t in operands]
    return (_OPPOSITE.get(op, op), *(operands[::-1] if op in ("*", "(+)") else operands))


@cache
def axioms(groups) -> tuple:
    """first_failure_of's (arity, checks) groups from groups of (name, formula)
    checks, compiled on first use and kept; an (arity, checks) group is kept."""
    return tuple(group if type(group[0]) is int else (
        max(formula(text)[1] for _, text in group),
        tuple((name, expression(formula(text)[0])) for name, text in group))
        for group in groups)


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


def require_pseudo_be(alg: FiniteAlgebra, what: str) -> FiniteAlgebra:
    """alg, when it is a pseudo BE-algebra (`check_pseudo_be`); else
    PreconditionUnmet saying what needs one, at the first failing axiom."""
    verdict = check_pseudo_be(alg)
    if verdict.status != HOLDS:
        raise PreconditionUnmet(f"{what} needs a pseudo BE-algebra: {verdict.failed_at(alg)}",
                                verdict.witness)
    return alg


def theorem_fails(alg: FiniteAlgebra, needs: str, where: str):
    """A theorem of pseudo BE-algebras fails on alg, as `where` says: InvariantViolated
    when alg is one, else PreconditionUnmet naming the axiom that fails."""
    verdict = check_pseudo_be(alg)
    if verdict.status == HOLDS:
        raise InvariantViolated(f"{where} in a pseudo BE-algebra")
    raise PreconditionUnmet(f"{needs} a pseudo BE-algebra: {where}; {verdict.failed_at(alg)}",
                            verdict.witness)


_PSBE = (
    (("psBE1", "x -> x = 1 (both arrows)"),),
    (("psBE2", "x -> 1 = 1 (both arrows)"),),
    (("psBE3", "1 -> x = x (both arrows)"),),
    (("psBE4", "x -> (y ~> z) = y ~> (x -> z)"),),
    (("psBE5", "x -> y = 1 iff x ~> y = 1"),),
)


def _scan_pseudo_be(alg: FiniteAlgebra) -> Verdict:
    return Verdict.of(first_failure_of(alg.size, axioms(_PSBE), alg), "pseudo_be")


def check_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    """psBCK1-psBCK6 over all tuples; axioms scanned cheapest arity first
    (unary, then the antisymmetry quasi-identity, then the ternary ones).
    Kept per algebra object."""
    return alg.kept("pseudo_bck", _scan_pseudo_bck)


_PSBCK = (
    (("psBCK3", "1 -> x = x"),),
    (("psBCK4", "1 -> x = x (dual)"),),
    (("psBCK5", "x -> 1 = 1"),),
    # unordered pairs y < x, scanned larger element first, reported as (y, x)
    (2, (("psBCK6", "y >= x or arrow[y][x] != one or arrow[x][y] != one"),)),
    (("psBCK1", "(x -> y) ~> ((y -> z) ~> (x -> z)) = 1"),),
    (("psBCK2", "(x -> y) ~> ((y -> z) ~> (x -> z)) = 1 (dual)"),),
)


def _scan_pseudo_bck(alg: FiniteAlgebra) -> Verdict:
    hit = first_failure_of(alg.size, axioms(_PSBCK), alg)
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


def _flag(hypothesis, compute):
    """A flag computed on first read: compute(report, its name), or
    not_applicable where the report does not meet hypothesis (`unmet`)."""
    def verdict(report):
        name = flag.attrname
        return Verdict.na(name) if report.unmet(hypothesis) else compute(report, name)
    flag = cached_property(verdict)
    return flag


def _axiom(*texts, hypothesis=()):
    """A flag: formulas at every tuple, one after another (kept as `formulas`)."""
    flag = _flag(hypothesis, lambda report, name: Verdict.of(first_failure_of(
        report.alg.size, axioms(tuple(((name, text),) for text in texts)), report), name))
    flag.formulas = texts
    return flag


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
    condition_A = _axiom("x <= y implies y -> z <= x -> z and y ~> z <= x ~> z")
    condition_M = _axiom("x <= y implies z -> x <= z -> y and z ~> x <= z ~> y")
    condition_T = _axiom("x <= y and y <= z imply x <= z")
    distributive_i = _axiom("x -> (y ~> z) = (x -> y) ~> (x -> z)")
    distributive_ii = _axiom("x -> (y ~> z) = (x -> y) ~> (x -> z) (dual)")
    commutative = _axiom("(x -> y) ~> y = (y -> x) ~> x (both arrows)")
    good = _axiom("x-~ = x~-", hypothesis=("bounded",))
    involutive = _axiom("x-~ = x (both arrows)", hypothesis=("bounded",))
    poset = _axiom("x <= y and y <= x imply x = y", condition_T.formulas[0])

    meet_semilattice = _exists("meet")
    join_semilattice = _exists("join")
    lattice = _exists("meet", "join")
    has_pP = _exists("odot", witness=lambda self: self._pseudo_product[1])

    @partial(_flag, ("has_pP",))
    def pseudo_hoop(self, name):    # psH1-psH5 with the computed product
        psh = first_failure_of(self.alg.size, axioms(_PSH), self)
        return Verdict.holds(name) if psh is None else Verdict.fails(name, psh[1])

    # psMV1-psMV8 on ((+), (.), -, ~, 0, 1) of a bounded commutative algebra
    pseudo_mv = _flag(("bounded", "commutative", "oplus", "odot"), lambda self, name:
                      Verdict.of(first_failure_of(self.alg.size, axioms(_PSMV), self), name))


_PSH = (
    (("psH1", "x * 1 = x and 1 * x = x"),),
    (("psH3", "x * y -> z = x -> (y -> z)"),),
    (("psH4", "x * y ~> z = y ~> (x ~> z)"),),
    (("psH5", "(x -> y) * x = (y -> x) * y = x * (x ~> y) = y * (y ~> x)"),),
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


def _least(c: int, up) -> int | None:
    """The least element of the set c, a bitmask: the m in c with c a subset
    of up[m] (at most one in a poset), or None."""
    bits = c
    while bits:     # each m in c, lowest first
        m = (bits & -bits).bit_length() - 1
        if not c & ~up[m]:
            return m
        bits &= bits - 1
    return None


_bits = lambda row: sum(1 << z for z, v in enumerate(row) if v)    # a row of leq as a bitmask


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
    """(table, None) or (None, the first (x, y) without a product).  Assumes
    leq is a poset.  x * y is the least z of {z : x <= y -> z}, when it is
    also the least of {z : y <= x ~> z}.  Each set is a bitmask, the union of
    the z with y -> z = v over the v above x (with x ~> z = v over those
    above y): O(n) integer operations a cell, not an O(n^2) list scan."""
    rng, up = alg.elements(), list(map(_bits, leq))     # up[x]: the z with x <= z
    above = [[v for v in rng if row[v]] for row in leq]
    pa, ps = ([[0] * alg.size for _ in rng] for _ in range(2))  # [y][v]: the z with y t z = v
    for y in rng:
        for z in rng:
            pa[y][alg.arrow[y][z]] |= 1 << z
            ps[y][alg.squig[y][z]] |= 1 << z

    def cell(x, y):     # the sets of one row are disjoint: sum is their union
        m = _least(sum(map(pa[y].__getitem__, above[x])), up)
        c = sum(map(ps[x].__getitem__, above[y]))
        return m if m is not None and c >> m & 1 and not c & ~up[m] else None
    return _table(alg.size, cell)


def _bound_table(leq, lower: bool):
    """Meet (lower=True) or join table from the order, or None if some pair
    lacks one: meet(x, y) is the greatest element of down[x] & down[y], the
    bitmasks of the z below x and y, join(x, y) the least of up[x] & up[y]."""
    bounds = list(map(_bits, zip(*leq) if lower else leq))
    return _table(len(leq), lambda x, y: _least(bounds[x] & bounds[y], bounds))[0]


_PSMV = (
    (("psMV1", "x (+) (y (+) z) = (x (+) y) (+) z"),),
    (("psMV2", "x (+) 0 = x and 0 (+) x = x"), ("psMV3", "x (+) 1 = 1 and 1 (+) x = 1")),
    (("psMV4", "1- = 0 (both arrows)"),),
    (("psMV5", "(x- (+) y-)~ = (x~ (+) y~)-"),
     ("psMV6", "x (+) (x~ * y) = y (+) (y~ * x) = (x * y-) (+) y = (y * x-) (+) x"),
     ("psMV7", "x * (x- (+) y) = (x (+) y~) * y")),
    (("psMV8", "x-~ = x"),),
)

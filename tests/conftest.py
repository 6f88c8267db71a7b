import hashlib
import json
import random
from functools import cache
from itertools import combinations, product
from pathlib import Path

import pytest

import psbe
from psbe.algebra import SHIPPED, FiniteAlgebra, PreconditionUnmet, UnaryMap, load_algebra
from psbe.classify import (HOLDS, Verdict, check_pseudo_be, check_pseudo_bck, classify,
                           expression, first_failure, formula, theorem_fails)
from psbe.deduction import (DeductiveSystem, _braces, _is_normal, enumerate_congruences,
                            enumerate_ds, generated_ds, is_monadic_congruence, monadic_ds)
from psbe.laws import (Ctx, SearchResult, _class_lines, _classes, _is_canonical,
                       _law_counterexample, _models, _psbe_checked, candidate_count, catalog,
                       free_cells)
from psbe.quantifiers import PLAIN, MonadicPair, check_monadic, enumerate_mop

FIXDIR = Path(psbe.__file__).resolve().parent / "fixtures"
CLASSES = FIXDIR.parent / "classes"
FIXTURE_NAMES = ("psbe4", "psbe5", "bc4", "inv6")
# verify_suite's law_ids for the whole catalog, probes included (named laws all run)
EVERY_LAW = tuple(law.id for law in catalog())

VERDICT_BOOL = Verdict.__bool__     # the real truth of a verdict: it holds


def _truth_tested(verdict):
    raise TypeError(f"truth test of {verdict!r}: read its status")


@pytest.fixture(autouse=True)
def verdict_truth_tests_raise(monkeypatch):
    """Every test runs with a verdict's truth forbidden, in the package and
    in the tests: a caller reads `status`, so that a failure cannot pass
    for a default (`v or default`) or a not-applicable law for a failure."""
    monkeypatch.setattr(Verdict, "__bool__", _truth_tested)


def assert_pinned(name, rows, pins=Path(__file__).resolve().parent / "pins"):
    """rows, {key: JSON-able rows}, against pins/<name>.txt: one `key<TAB>sha256`
    line per key, the sha256 of its rows as canonical JSON.  A missing file is
    written and the test fails (to re-record a pin, delete its file, rerun and
    read `git diff tests/pins`); a mismatch names every key that was added,
    removed or changed, with the new rows of the first, truncated."""
    path = pins / f"{name}.txt"
    got = {key: hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":"))
                               .encode()).hexdigest() for key, value in rows.items()}
    if not path.exists():
        path.write_text("".join(f"{key}\t{digest}\n" for key, digest in got.items()), "utf-8")
        pytest.fail(f"{path} was missing: written with {len(got)} keys; rerun to check it")
    pinned = dict(line.split("\t") for line in path.read_text("utf-8").splitlines())
    moved = [key for key in got if got[key] != pinned.get(key)]
    removed = [key for key in pinned if key not in got]
    if moved or removed:
        shown = json.dumps(rows[moved[0]], sort_keys=True) if moved else ""
        pytest.fail(f"pin {name} moved; changed: {[k for k in moved if k in pinned]}, added: "
                    f"{[k for k in moved if k not in pinned]}, removed: {removed}" + (
                        f"; new rows of {moved[0]!r}: {shown[:300]}{'...' * (len(shown) > 300)}"
                        if moved else ""))


def keyed(inputs):
    """{key: [its rows for each input]} from one {key: rows} per input."""
    out = {}
    for rows in inputs:
        for key, value in rows.items():
            out.setdefault(key, []).append(value)
    return out


def by_law(alg, verdicts):
    """Each law's verdicts as JSON, under its id, a key for every law in catalog order."""
    out = {law: [] for law in EVERY_LAW}
    for v in verdicts:
        out[v.name].append(v.to_json(alg))
    return out


def fixture_path(name: str) -> Path:
    return FIXDIR / f"{name}.alg"


def load(name: str):
    return load_algebra(fixture_path(name))


@pytest.fixture(scope="session")
def psbe4():
    return load("psbe4")


@pytest.fixture(scope="session")
def psbe5():
    return load("psbe5")


@pytest.fixture(scope="session")
def bc4():
    return load("bc4")


@pytest.fixture(scope="session")
def inv6():
    return load("inv6")


@pytest.fixture(scope="session", params=FIXTURE_NAMES)
def any_fixture(request):
    return load(request.param)


# ------------------------------------------------ the brute-force search
# search_counterexample's reference: every candidate table pair is built
# and tested against psBE4/psBE5 whole.

def _tables_from_cells(n, cells, values):
    t = [[None] * n for _ in range(n)]
    for y in range(n):
        t[0][y] = y                 # 1 -> x = x
    for x in range(n):
        t[x][0] = 0                 # x -> 1 = 1
        t[x][x] = 0                 # x -> x = 1
    for (x, y), v in zip(cells, values):
        t[x][y] = v
    return tuple(tuple(r) for r in t)


def _psbe4_psbe5_ok(n, arrow, squig):
    for x in range(n):
        for y in range(n):
            if (arrow[x][y] == 0) != (squig[x][y] == 0):   # psBE5
                return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if arrow[x][squig[y][z]] != squig[y][arrow[x][z]]:  # psBE4
                    return False
    return True


def brute_pairs(n):
    """Every candidate (rank, arrow, squig) on n elements in scan order:
    arrow cell values lexicographic in `free_cells` order, then squig."""
    cells = free_cells(n)
    tables = [_tables_from_cells(n, cells, vals)
              for vals in product(range(n), repeat=len(cells))]
    for rank, (arrow, squig) in enumerate(product(tables, repeat=2), 1):
        yield rank, arrow, squig


def brute_models(n):
    """The ranked psBE table pairs among brute_pairs(n)."""
    return [(rank, arrow, squig) for rank, arrow, squig in brute_pairs(n)
            if _psbe4_psbe5_ok(n, arrow, squig)]


def model_algebra(n, arrow, squig, name=None):
    return FiniteAlgebra(name or f"search_{n}",
                         ("1",) + tuple(f"e{i}" for i in range(1, n)),
                         0, arrow, squig)


def labelled_models(n):
    """Every pseudo BE-algebra on n labelled elements with 1 = element 0."""
    return [model_algebra(n, arrow, squig, f"m{n}")
            for _, arrow, squig in brute_models(n)]


def brute_search(spec, pairs=brute_pairs):
    """search_counterexample by testing every candidate of pairs(n) in
    turn, the budget checked before each one, and evaluating the law on
    every labelled model, none skipped as isomorphic to another.  `pairs`
    may leave out non-psBE candidates when no budget is set."""
    law = next(l for l in catalog() if l.id == spec.law)
    result = SearchResult(found=None)
    for n in range(spec.min_size, spec.max_size + 1):
        for rank, arrow, squig in pairs(n):
            if spec.budget is not None and result.visited + rank > spec.budget:
                result.visited_by_size[n] = rank - 1
                return result
            if not _psbe4_psbe5_ok(n, arrow, squig):
                continue
            hit = _law_counterexample(law, model_algebra(n, arrow, squig), spec)
            if hit is not None:
                result.visited_by_size[n] = rank
                result.found = hit
                return result
        result.visited_by_size[n] = candidate_count(n) ** 2
    result.exhausted = True
    return result


def library_text(n):
    """classes/<n>.txt as `_models` and `_is_canonical` build it, each labelled model
    psBE-checked: a line per class, the digits of its least model's free cells."""
    cells, lines = free_cells(n), []
    for _, arrow, squig in _models(n):
        _psbe_checked(model_algebra(n, arrow, squig))
        if _is_canonical(n, arrow, squig):
            lines.append("".join(str(t[x][y]) for t in (arrow, squig) for x, y in cells) + "\n")
    return "".join(lines).encode("ascii")


def _assert_file(path, text, what):
    """path against text, byte for byte.  A missing file is written and the test
    fails, as `assert_pinned` does; rerun to check it."""
    if not path.exists():
        path.write_bytes(text)
        pytest.fail(f"{path} was missing: written with {len(text.splitlines())} lines; "
                    "rerun to check it")
    if path.read_bytes() != text:
        pytest.fail(f"{path} is not {what}")


def assert_library(n):
    """classes/<n>.txt against `library_text(n)`."""
    _assert_file(CLASSES / f"{n}.txt", library_text(n),
                 "the classes that _models and _is_canonical give")


def shipped_model(n, arrow, squig, line):
    """The model search builds from a library class, its structure line kept on it."""
    alg = model_algebra(n, arrow, squig)
    alg.kept(SHIPPED, lambda alg: line)
    return alg


def structures(alg):
    """(plain MOP pairs, deductive systems, congruences) of alg, as its enumerators list them."""
    return enumerate_mop(alg), enumerate_ds(alg), enumerate_congruences(alg)


def structures_line(alg):
    """alg's line of classes/<n>.structures, written from its enumerators' lists
    (`structures`): the pairs, each its F digits then its E digits; the deductive
    systems, each its member digits then + (normal) or - (not); the congruences,
    each its restricted-growth digits.  Items are joined by "," and the three fields by ";"."""
    digits = lambda xs: "".join(map(str, xs))
    pairs, ds, congruences = structures(alg)
    return ";".join((",".join(digits(p.forall.images) + digits(p.exists.images) for p in pairs),
                     ",".join(digits(sorted(d.members)) + "-+"[d.normal] for d in ds),
                     ",".join(digits(c.classes) for c in congruences)))


def assert_structures(n):
    """classes/<n>.structures against the lines the enumerators write for the classes
    of classes/<n>.txt, in order, each computed on an untagged model; and each line,
    kept on its class's model as search keeps it, decodes to the same three lists."""
    models = [model_algebra(n, arrow, squig) for _, arrow, squig in _classes(n)]
    _assert_file(CLASSES / f"{n}.structures",
                 "".join(structures_line(alg) + "\n" for alg in models).encode("ascii"),
                 "the structures that enumerate_mop, enumerate_ds and enumerate_congruences give")
    for alg, line in zip(models, _class_lines(n, "structures"), strict=True):
        assert structures(shipped_model(n, alg.arrow, alg.squig, line)) == structures(alg), line


def search_outcome(search, spec):
    """A search's result or the exception it raised, as comparable data."""
    try:
        result = search(spec)
    except Exception as exc:        # e.g. a law that cannot be evaluated
        return type(exc), str(exc)
    found = result.found
    if found is not None:
        alg, pair, witness = found
        found = (alg.arrow, alg.squig, pair, witness)
    return found, result.visited_by_size, result.exhausted


# ------------------------------------------------ the plain scanner
# first_failure's reference: one predicate call per tuple of
# itertools.product, with no generated code.

def plain_first_failure(n, arity, preds):
    """First failing (name, tuple, instances) over range(n)**arity, or
    None: each (name, predicate) of preds called on each tuple in turn."""
    for count, tup in enumerate(product(range(n), repeat=arity), 1):
        for name, pred in preds:
            if not pred(*tup):
                return name, tup, count
    return None


def plain_first_failure_of(n, groups):
    for arity, preds in groups:
        hit = plain_first_failure(n, arity, preds)
        if hit is not None:
            return hit
    return None


@cache
def _predicate_code(arity, expr):
    """The code of `lambda x, ...: expr` and the tables expr names."""
    tables = set(compile(expr, "<check>", "eval").co_names) - {"len", "x", "y", "z"}
    return compile(f"lambda {', '.join('xyz'[:arity])}: {expr}", "<check>", "eval"), tables


def predicate(arity, expr, source):
    """expr as a function of the elements, its tables read off source."""
    code, tables = _predicate_code(arity, expr)
    return eval(code, {t: getattr(source, t) for t in tables})


def reference_first_failure(n, arity, checks, source):
    """first_failure by the plain scanner, each expression a predicate."""
    return plain_first_failure(n, arity, [(name, predicate(arity, expr, source))
                                          for name, expr in checks])


def reference_first_failure_of(n, groups, source):
    for arity, checks in groups:
        hit = reference_first_failure(n, arity, checks, source)
        if hit is not None:
            return hit
    return None


def reference_first_failing_bit(n, arity, expr, source):
    """first_failing_bit by the plain scanner: the mask expr at each tuple,
    the lowest bit set yet kept with the first tuple that set it."""
    mask, low = predicate(arity, expr, source), None
    for tup in product(range(n), repeat=arity):
        bits = mask(*tup)
        if bits and (low is None or (bits & -bits).bit_length() - 1 < low[0]):
            low = (bits & -bits).bit_length() - 1, tup
    return low


def scanned_parts(tree):
    """The trees of a formula the kernel scans: each closed part's body, left
    first, when "(all x,y)" closes its parts, else the formula's tree."""
    return [part for _, part in tree[1:]] if tree[1][0] == "(all x,y)" else [tree]


# ------------------------------------------------ the per-congruence laws
# the congruence laws' reference: each congruence in turn, first_failure on
# a copy of the context that reads its classes (cls[x], and one_cls, the
# class of 1), the monadic ones decided by the leader test.

CONGRUENCE_LAWS = tuple(law for law in catalog() if law.anchor.startswith("for every")
                        or law.id == "P6.monadic_con_one_class")


def with_classes(ctx, cong):
    """A copy of ctx that also reads cong's cls and one_cls."""
    copy = object.__new__(Ctx)
    copy.__dict__.update(ctx.__dict__, cls=cong.classes, one_cls=cong.one_class(ctx.alg))
    return copy


def per_congruence(law, ctx):
    """law.check(ctx), (ok, witness, instances), congruence by congruence:
    the body scanned by first_failure (P6.monadic_con_one_class: [1] of a
    monadic congruence among the monadic DS) until one fails; n^2
    instances per congruence visited, monadic or not."""
    n, congs = ctx.n, enumerate_congruences(ctx.alg)
    if law.id == "P6.monadic_con_one_class":
        systems = {d.members for d in monadic_ds(ctx.alg, ctx.pair)}
    else:
        tree, arity = formula(law.anchor)[:2]
    for count, cong in enumerate(congs, 1):
        one_cls = cong.one_class(ctx.alg)
        if law.id == "P6.monadic_con_one_class":
            bad = (tuple(sorted(one_cls)) if is_monadic_congruence(cong, ctx.pair)
                   and one_cls not in systems else None)
        elif "monadic" in tree[0] and not is_monadic_congruence(cong, ctx.pair):
            bad = None
        else:
            hit = first_failure(n, arity, ((law.id, expression(tree)),), with_classes(ctx, cong))
            bad = hit and hit[1]
        if bad is not None:
            return False, bad, count * n * n
    return True, None, len(congs) * n * n


def congruence_law_outcomes(alg):
    """(law id, pair name, check, reference) of each congruence law on alg,
    its hypothesis not read: without a pair, and with each monadic pair and
    four pairs of self-maps drawn at random, which make the monadic laws fail."""
    rng, base = random.Random(0), Ctx(alg)
    maps = [UnaryMap(tuple(rng.randrange(alg.size) for _ in alg.elements())) for _ in range(8)]
    pairs = [base.with_pair(pair) for pair in enumerate_mop(alg) + [
        MonadicPair(*maps[i:i + 2]) for i in range(0, 8, 2)]]
    return [(law.id, ctx.pair_name, law.check(ctx), per_congruence(law, ctx))
            for law in CONGRUENCE_LAWS for ctx in (pairs if law.uses_pair else [base])]


# ------------------------------------------------ the eager classification
# classify's reference: every flag and derived table computed in one pass,
# in the order the flags depend on each other.

TABLE_NAMES = ("leq", "neg_minus", "neg_sim", "odot", "oplus", "meet", "join")


def cups(alg):
    """{cup1: (x -> y) ~> y, cup2: (x ~> y) -> y}, the tables on which the
    commutative axiom reads its two halves."""
    arr, sq, rng = alg.arrow, alg.squig, alg.elements()
    return {"cup1": tuple(tuple(sq[arr[x][y]][y] for y in rng) for x in rng),
            "cup2": tuple(tuple(arr[sq[x][y]][y] for y in rng) for x in rng)}


def eager_classify(alg):
    """Every classification flag and derived table of alg, computed at
    once, as ({flag: Verdict}, {table name: table or None})."""
    n, one = alg.size, alg.one
    arr, sq = alg.arrow, alg.squig
    rng = range(n)
    flags: dict[str, Verdict] = {}

    flags["pseudo_be"] = check_pseudo_be(alg)
    flags["pseudo_bck"] = check_pseudo_bck(alg)

    leq = tuple(tuple(arr[x][y] == one for y in rng) for x in rng)

    def axiom(name, arity, pred):
        flags[name] = Verdict.of(plain_first_failure(n, arity, [(name, pred)]), name)

    axiom("condition_A", 3, lambda x, y, z:
          not leq[x][y] or (leq[arr[y][z]][arr[x][z]] and leq[sq[y][z]][sq[x][z]]))
    axiom("condition_M", 3, lambda x, y, z:
          not leq[x][y] or (leq[arr[z][x]][arr[z][y]] and leq[sq[z][x]][sq[z][y]]))
    axiom("condition_T", 3, lambda x, y, z:
          not (leq[x][y] and leq[y][z]) or leq[x][z])
    axiom("distributive_i", 3, lambda x, y, z: arr[x][sq[y][z]] == sq[arr[x][y]][arr[x][z]])
    axiom("distributive_ii", 3, lambda x, y, z: sq[x][arr[y][z]] == arr[sq[x][y]][sq[x][z]])

    cup1, cup2 = cups(alg).values()
    axiom("commutative", 2, lambda x, y:
          cup1[x][y] == cup1[y][x] and cup2[x][y] == cup2[y][x])

    # boundedness: search for a least element, even when no zero declared
    least = [z for z in rng if all(arr[z][x] == one and sq[z][x] == one for x in rng)]
    if len(least) == 1:
        zero = least[0]
        if alg.zero is not None and alg.zero != zero:
            raise PreconditionUnmet(
                f"declared zero {alg.element_names[alg.zero]!r} is not the "
                f"least element ({alg.element_names[zero]!r} is)")
        flags["bounded"] = Verdict.holds("bounded")
    elif len(least) == 0:
        zero = None
        if alg.zero is not None:
            raise PreconditionUnmet(
                f"declared zero {alg.element_names[alg.zero]!r} is not a least element")
        flags["bounded"] = Verdict.fails("bounded", ())
    else:
        zero = None
        if alg.zero is not None and alg.zero not in least:
            raise PreconditionUnmet(
                f"declared zero {alg.element_names[alg.zero]!r} is not a least element")
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
    antisym = plain_first_failure(n, 2, [("antisymmetric", lambda x, y:
                                    not (leq[x][y] and leq[y][x]) or x == y)])
    poset = antisym is None and flags["condition_T"].status == HOLDS
    flags["poset"] = (Verdict.holds("poset") if poset else Verdict.fails(
        "poset", antisym[1] if antisym else flags["condition_T"].witness))

    meet = join = None
    if poset:
        meet = _eager_bound_table(leq, n, lower=True)
        join = _eager_bound_table(leq, n, lower=False)
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
    if poset:
        odot, bad_pair = _eager_pseudo_product(alg, leq)
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
        psh = plain_first_failure_of(n, [
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
    if (zero is not None and flags["commutative"].status == HOLDS
            and oplus is not None and odot is not None):
        flags["pseudo_mv"] = eager_pseudo_mv(alg, oplus, odot, neg_minus, neg_sim, zero)
    else:
        flags["pseudo_mv"] = Verdict.na("pseudo_mv")

    tables = dict(leq=leq, neg_minus=neg_minus, neg_sim=neg_sim,
                  odot=odot, oplus=oplus, meet=meet, join=join)
    return flags, tables


def eager_pseudo_mv(alg, oplus, odot, nm, ns, zero):
    """psMV1-psMV8 on ((+), (.), -, ~, 0, 1), by the plain scanner."""
    one = alg.one
    return Verdict.of(plain_first_failure_of(alg.size, [
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


def _eager_least(candidates, leq):
    """The one m of candidates below every candidate, or None."""
    best = [m for m in candidates if all(leq[m][z] for z in candidates)]
    return best[0] if len(best) == 1 else None


def _eager_pseudo_product(alg, leq):
    """(odot, None), or (None, the first (x, y) in lexicographic order without
    a product): x * y is the least z with x <= y -> z, when it is also the
    least z with y <= x ~> z.  Each cell scans its candidate lists whole."""
    n, arr, sq = alg.size, alg.arrow, alg.squig
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            m = _eager_least([z for z in range(n) if leq[x][arr[y][z]]], leq)
            if m is None or m != _eager_least([z for z in range(n) if leq[y][sq[x][z]]], leq):
                return None, (x, y)
            row.append(m)
        rows.append(tuple(row))
    return tuple(rows), None


def _eager_bound_table(leq, n: int, lower: bool):
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


# ------------------------------------------------ the deductive-system scans
# enumerate_ds's reference: every subset holding 1 is tested for modus
# ponens under -> and under ~>, in the order of its bit pattern over the
# other elements; generated_ds's references are the intersection of the
# scanned systems and, under condition (M), the nested implications.

def _mp_closed(alg, members, table):
    for x in members:
        row = table[x]
        for y in range(alg.size):
            if row[y] in members and y not in members:
                return False
    return True


def scan_ds(alg):
    """Every deductive system by the subset scan, sorted as enumerate_ds
    sorts them; PreconditionUnmet names the first subset in scan order
    that is closed for one of -> and ~> but not for the other."""
    n, one = alg.size, alg.one
    rest = [x for x in range(n) if x != one]
    out = []
    for bits in range(1 << len(rest)):
        members = frozenset([one] + [x for i, x in enumerate(rest) if bits >> i & 1])
        arrow_closed = _mp_closed(alg, members, alg.arrow)
        squig_closed = _mp_closed(alg, members, alg.squig)
        if arrow_closed != squig_closed:
            theorem_fails(alg, "deductive systems need",
                          "arrow and squig closures disagree on " + _braces(alg, members))
        if arrow_closed:
            out.append(DeductiveSystem(members, _is_normal(alg, members)))
    out.sort(key=DeductiveSystem.sort_key)
    return out


def implication_members(alg, xs: frozenset, table) -> frozenset:
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


def assert_generated_ds_matches_references(alg):
    """generated_ds of every subset of alg is the intersection of the
    scanned systems holding it and, under condition (M), for a non-empty
    subset, the nested-implication members for -> and for ~>."""
    systems = [d.members for d in scan_ds(alg)]
    condition_m = classify(alg)[0].holds("condition_M")
    for r in range(alg.size + 1):
        for xs in map(frozenset, combinations(alg.elements(), r)):
            members = generated_ds(alg, xs).members
            assert members == frozenset.intersection(*(d for d in systems if xs <= d)), xs
            if condition_m and xs:
                assert (members == implication_members(alg, xs, alg.arrow)
                        == implication_members(alg, xs, alg.squig)), xs


# ------------------------------------------------ the unpruned MOP scan
# enumerate_mop's raw reference: every pair of maps passing M1 and M2.

def unpruned_mop(alg, mode=PLAIN):
    """Every pair of maps E, F with x <= E x and F x <= x (M1, M2) that
    check_monadic accepts, sorted as enumerate_mop sorts them.  A mode the
    algebra cannot check raises PreconditionUnmet whatever the maps, as
    check_monadic raises it on the identity pair."""
    n, one, arr, sq = alg.size, alg.one, alg.arrow, alg.squig
    identity = UnaryMap.identity(n)
    check_monadic(alg, MonadicPair(identity, identity), mode)
    up = [[y for y in range(n) if arr[x][y] == one and sq[x][y] == one] for x in range(n)]
    down = [[y for y in range(n) if arr[y][x] == one and sq[y][x] == one] for x in range(n)]
    foralls = [UnaryMap(F) for F in product(*down)]
    pairs = (MonadicPair(UnaryMap(E), f) for E in product(*up) for f in foralls)
    return sorted((p for p in pairs if check_monadic(alg, p, mode).status == HOLDS),
                  key=MonadicPair.sort_key)


C2 = FiniteAlgebra("C2", ("1", "0"), 0, ((0, 1), (0, 0)), ((0, 1), (0, 0)))


def direct_product(a, b):
    """a x b, operations componentwise; element (x, y) has index x|b| + y."""
    cells = [(x, y) for x in a.elements() for y in b.elements()]

    def table(s, t):
        return tuple(tuple(b.size * s[x][u] + t[y][v] for u, v in cells)
                     for x, y in cells)

    return FiniteAlgebra(f"{a.name}x{b.name}",
                         tuple(f"{a.element_names[x]}.{b.element_names[y]}"
                               for x, y in cells),
                         b.size * a.one + b.one,
                         table(a.arrow, b.arrow), table(a.squig, b.squig))


def times_c2(alg):
    """alg x C2, C2 = {1, 0}; element (x, y) has index 2x + y."""
    return direct_product(alg, C2)


# the differential oracles' inputs: the fixtures and every labelled
# pseudo BE-algebra of size 2 and 3
ORACLE_ALGEBRAS = [
    *(pytest.param(load(name), id=name) for name in FIXTURE_NAMES),
    *(pytest.param(alg, id=f"m{n}-{i}")
      for n in (2, 3) for i, alg in enumerate(labelled_models(n))),
]

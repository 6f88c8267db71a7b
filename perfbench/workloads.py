"""The benchmark's four workloads: set-up, job lists and answer checks.

Every job drives psbe through its public functions (looked up on the
modules at call time, so that the tracer's rebinding takes effect) or
through ``python -m psbe.cli``.  A job's ``check`` turns its raw result
into a canonical, JSON-serialisable form (digested against the goldens)
and a list of problems found by references that do not come from the
code under test: counts pinned by the acceptance criteria, the declared
quantifier pairs, psbe's own oracles and the report schema.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "psbe" / "fixtures"
SCHEMA = ROOT / "docs" / "report.schema.json"
OUT_DIR = ROOT / ".perfbench_out"

FIXTURES = ("psbe4", "psbe5", "bc4", "inv6")
MODES = ("plain", "bc", "hoop")
# enumerate_mop (plain), enumerate_ds, enumerate_congruences per fixture
PINNED_COUNTS = {"psbe4": (3, 2, 2), "psbe5": (4, 4, 7),
                 "bc4": (2, 4, 4), "inv6": (2, 4, 2)}
# modes in which enumerate_mop must return exactly the declared pairs
# (acceptance criteria 01-03)
EXACT_MODES = {"psbe4": ("plain",), "psbe5": ("plain",), "bc4": ("bc",)}

CHILD_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """An input the workload builds is not what the workload needs."""


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]            # run(tracer or None) -> raw result
    check: Callable[[Any], tuple[Any, list[str]]]
    known_defect: str | None = None      # why this job is expected to fail
    in_child: bool = False               # the work runs in a child process


def import_psbe():
    """Import psbe from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import psbe
    if Path(psbe.__file__).resolve().parent != SRC / "psbe":
        raise SetupError(f"psbe imported from {psbe.__file__}, not {SRC}")
    return psbe


# -------------------------------------------------------------- helpers

def declared_pairs(psbe, alg):
    """Pairs declared by the file's exists<k>/forall<k> unary blocks."""
    return [psbe.quantifiers.pair_from_unary_blocks(alg, key[len("exists"):])
            for key in sorted(alg.unary) if key.startswith("exists")]


def pair_json(pair):
    return [list(pair.exists.images), list(pair.forall.images)]


def least_element(alg):
    for x in alg.elements():
        if all(alg.leq(x, y) for y in alg.elements()):
            return x
    return None


def _ds_quotients(psbe, alg, dss):
    """theta_from_ds + quotient for each DS; NotACongruence is an answer."""
    out = []
    for ds in dss:
        try:
            out.append(psbe.quotient(alg, psbe.theta_from_ds(alg, ds)))
        except psbe.deduction.NotACongruence as exc:
            out.append(exc)
    return out


def _quotients_json(psbe, quots):
    return [{"not_a_congruence": q.args[0]}
            if isinstance(q, psbe.deduction.NotACongruence)
            else psbe.serialize_algebra(q.algebra) for q in quots]


def _verdict_problems(verdicts):
    return [f"law {v.law_id} fails (pair {v.pair_name}, witness {v.witness})"
            for v in verdicts if v.status == "fails"]


# ------------------------------------------------------------- fixtures

def _fixture_job(psbe, name, text):
    def run(_tracer):
        alg = psbe.parse_algebra(text)
        report, ops = psbe.classify(alg)
        be, bck = psbe.check_pseudo_be(alg), psbe.check_pseudo_bck(alg)
        mop = {}
        for mode in MODES:
            try:
                mop[mode] = psbe.enumerate_mop(alg, mode=mode)
            except psbe.quantifiers.ModeUnavailable:
                mop[mode] = None
        dss = psbe.enumerate_ds(alg)
        pairs = declared_pairs(psbe, alg)
        mds = [psbe.deduction.monadic_ds(alg, p, dss) for p in pairs]
        congs = psbe.enumerate_congruences(alg)
        gens = [psbe.generated_ds(alg, [x], report) for x in alg.elements()]
        quots = _ds_quotients(psbe, alg, dss)
        verdicts = psbe.verify_suite(alg, pairs)
        return dict(alg=alg, report=report, be=be, bck=bck, mop=mop, dss=dss,
                    pairs=pairs, mds=mds, congs=congs, gens=gens,
                    quots=quots, verdicts=verdicts)

    def check(r):
        alg = r["alg"]
        problems = [] if r["be"] else ["fixture is not a pseudo BE-algebra"]
        declared = set(r["pairs"])
        if not declared <= set(r["mop"]["plain"]):
            problems.append("a declared pair is missing from enumerate_mop")
        for mode in EXACT_MODES.get(name, ()):
            if set(r["mop"][mode] or ()) != declared:
                problems.append(f"{mode} pairs differ from the declared pairs")
        got = (len(r["mop"]["plain"]), len(r["dss"]), len(r["congs"]))
        if got != PINNED_COUNTS[name]:
            problems.append(f"(pairs, ds, congruences) = {got}, "
                            f"pinned {PINNED_COUNTS[name]}")
        problems += _verdict_problems(r["verdicts"])
        canonical = {
            "flags": r["report"].to_json(alg),
            "pseudo_be": r["be"].to_json(alg),
            "pseudo_bck": r["bck"].to_json(alg),
            "mop": {m: None if ps is None else [pair_json(p) for p in ps]
                    for m, ps in r["mop"].items()},
            "ds": [d.to_json(alg) for d in r["dss"]],
            "monadic_ds": [[d.to_json(alg) for d in m] for m in r["mds"]],
            "congruences": [c.to_json(alg) for c in r["congs"]],
            "generated": [g.to_json(alg) for g in r["gens"]],
            "quotients": _quotients_json(psbe, r["quots"]),
            "verdicts": [v.to_json(alg) for v in r["verdicts"]],
        }
        return canonical, problems

    return Job(f"fixtures/{name}", run, check)


def setup_fixtures(psbe):
    texts = {n: (FIXTURE_DIR / f"{n}.alg").read_text() for n in FIXTURES}
    return [_fixture_job(psbe, n, t) for n, t in texts.items()]


# ------------------------------------------------------------- products

def chain2(psbe):
    """The 2-element chain C2 = {1, 0}: 0 -> x = 1, 1 -> x = x."""
    table = ((0, 1), (0, 0))
    return psbe.FiniteAlgebra("C2", ("1", "0"), 0, table, table, zero=1)


def direct_product(psbe, a, b):
    """Componentwise direct product; element (x, y) has index x*|b| + y."""
    m = b.size
    cells = [(x, y) for x in a.elements() for y in b.elements()]

    def table(ta, tb):
        return tuple(tuple(ta[x][u] * m + tb[y][v] for u, v in cells)
                     for x, y in cells)

    zero = (a.zero * m + b.zero
            if a.zero is not None and b.zero is not None else None)
    return psbe.FiniteAlgebra(
        f"{a.name}x{b.name}",
        tuple(f"{a.element_names[x]}.{b.element_names[y]}" for x, y in cells),
        a.one * m + b.one, table(a.arrow, b.arrow), table(a.squig, b.squig),
        zero)


def product_pair(psbe, pa, pb):
    """Componentwise product of two monadic pairs."""
    def prod(f, g):
        return psbe.algebra.UnaryMap(tuple(x * len(g) + y for x in f.images
                                           for y in g.images))
    return psbe.quantifiers.MonadicPair(prod(pa.exists, pb.exists),
                                        prod(pa.forall, pb.forall))


def build_product(psbe, factor):
    """factor x C2 with each declared pair of factor x the identity pair."""
    c2 = chain2(psbe)
    ident = psbe.quantifiers.MonadicPair(psbe.algebra.UnaryMap.identity(2),
                                         psbe.algebra.UnaryMap.identity(2))
    alg = direct_product(psbe, factor, c2)
    pairs = [product_pair(psbe, p, ident) for p in declared_pairs(psbe, factor)]
    if not psbe.check_pseudo_be(alg):
        raise SetupError(f"{alg.name} is not a pseudo BE-algebra")
    for p in pairs:
        if not psbe.quantifiers.is_monadic(alg, p):
            raise SetupError(f"a product pair on {alg.name} is not monadic")
    return alg, pairs


def _product_structure_job(psbe, alg, pairs):
    def run(_tracer):
        dss = psbe.enumerate_ds(alg)
        congs = psbe.enumerate_congruences(alg)
        quots = _ds_quotients(psbe, alg, dss)
        verdicts = psbe.verify_suite(alg, pairs)
        return dss, congs, quots, verdicts

    def check(r):
        dss, congs, quots, verdicts = r
        problems = [f"quotient by the DS {d.tokens(alg)} is not psBE"
                    for d, q in zip(dss, quots)
                    if not isinstance(q, psbe.deduction.NotACongruence)
                    and not psbe.check_pseudo_be(q.algebra)]
        problems += _verdict_problems(verdicts)
        return {"ds": [d.to_json(alg) for d in dss],
                "congruences": [c.to_json(alg) for c in congs],
                "quotients": _quotients_json(psbe, quots),
                "verdicts": [v.to_json(alg) for v in verdicts]}, problems

    return Job(f"products/{alg.name}", run, check)


def _product_congruence_job(psbe, alg, expected):
    def run(_tracer):
        return psbe.enumerate_congruences(alg)

    def check(congs):
        problems = ([] if len(congs) == expected else
                    [f"{len(congs)} congruences, pinned {expected}"])
        return [c.to_json(alg) for c in congs], problems

    return Job(f"products/{alg.name}.congruences", run, check)


def setup_products(psbe):
    factors = {n: psbe.load_algebra(FIXTURE_DIR / f"{n}.alg")
               for n in ("bc4", "psbe4", "psbe5")}
    jobs = [_product_structure_job(psbe, *build_product(psbe, factors[n]))
            for n in ("bc4", "psbe4")]
    # n=10: Bell(10) = 115,975 partitions; MOP is left out (minutes).
    big, _ = build_product(psbe, factors["psbe5"])
    jobs.append(_product_congruence_job(psbe, big, 19))
    return jobs


# --------------------------------------------------------------- search

# (law id, max_size, expected verdict: None = exhausted, else the size of
# the first counterexample, known defect or None).  An exhaustive scan of
# n=4 (16.8M table pairs, about 91 s) does not fit a run, so exhaustive
# verdicts stop at n=3; max_size=3 on the defect jobs keeps their run
# short once the defect is fixed.
SEARCH_JOBS = (
    ("P6.monadic_con_one_class", 3, None, None),
    ("P3.isotone_unconditional", 4, 4, None),
    ("AX.psbck6_antisym", 3, 3, None),
    ("BND.neg_constants", 3, None,
     "Ctx.zero reads only the declared zero and search algebras declare "
     "none: a false counterexample of size 2"),
    ("P3b.zero_fixed", 3, None,
     "Ctx.zero reads only the declared zero and search algebras declare "
     "none: TypeError"),
)


def _search_job(psbe, law_id, max_size, expect, defect):
    law = next(l for l in psbe.catalog() if l.id == law_id)

    def run(_tracer):
        return psbe.search_counterexample(
            psbe.SearchSpec(law=law_id, max_size=max_size))

    def check(res):
        problems = []
        size = None
        if res.found is None:
            if not res.exhausted:
                problems.append("scan ended neither exhausted nor with a "
                                "counterexample")
        else:
            alg, pair, _ = res.found
            size = alg.size
            if not psbe.check_pseudo_be(alg):
                problems.append("counterexample is not a pseudo BE-algebra")
            zero = least_element(alg)
            with_zero = psbe.FiniteAlgebra(alg.name, alg.element_names,
                                           alg.one, alg.arrow, alg.squig, zero)
            ctx = psbe.laws.Ctx(with_zero, pair=pair)
            if psbe.laws.evaluate_law(law, ctx).status != "fails":
                problems.append(f"false counterexample of size {size}: the "
                                "law holds once the least element is "
                                "declared as zero")
        if size != expect:
            problems.append(f"verdict {size or 'exhausted'}, expected "
                            f"{expect or 'exhausted'}")
        return {"exhausted": res.exhausted, "counterexample_size": size}, \
            problems

    return Job(f"search/{law_id}<={max_size}", run, check, defect)


def setup_search(psbe):
    return [_search_job(psbe, *spec) for spec in SEARCH_JOBS]


# ------------------------------------------------------------------ cli

def _fixture_arg(name):
    return f"src/psbe/fixtures/{name}.alg"


# (argv, documented exit status)
CLI_COMMANDS = tuple(
    [([cmd, _fixture_arg(n)], 0) for cmd in ("check", "mop", "ds", "verify")
     for n in FIXTURES]
    + [(["gen", _fixture_arg("psbe5"), "--set", "1,d"], 0),
       (["quotient", _fixture_arg("psbe5"), "--set", "1,a,d", "--pair", "4"], 0),
       (["ds", _fixture_arg("psbe5"), "--pair", "4"], 0),
       (["mop", _fixture_arg("bc4"), "--mode", "bc"], 0),
       (["search", "--law", "AX.psbck6_antisym", "--max-size", "3"], 1)])


def run_child(argv):
    """Run a child interpreter to completion; (exit status, stdout, stderr)."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_job(psbe, validate, argv, status):
    def run(tracer):
        if tracer is None:
            return run_child(["-m", "psbe.cli", *argv])
        # traced: the same command under a shim that records spans
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"child-{os.getpid()}.json"
        try:
            res = run_child([str(Path(__file__).with_name("cli_traced.py")),
                             str(out), *argv])
            tracer.merge(json.loads(out.read_text()))
        finally:
            out.unlink(missing_ok=True)
        return res

    def check(res):
        code, stdout, stderr = res
        problems = []
        if code != status:
            problems.append(f"exit status {code}, documented {status}: "
                            + stderr.decode(errors="replace")[-300:])
        try:
            report = json.loads(stdout)
            validate(report)
        except ValueError as exc:     # JSONDecodeError, ValidationError
            return None, problems + [f"stdout is not a valid report: {exc}"]
        if report["exit_status"] != code:
            problems.append("report exit_status differs from the exit status")
        payload = report["payload"]
        if argv[0] == "search" and payload["counterexample"] is not None:
            alg = psbe.parse_algebra(payload["counterexample"]["algebra"])
            if not psbe.check_pseudo_be(alg):
                problems.append("counterexample is not a pseudo BE-algebra")
        return {"exit_status": code, "payload": payload}, problems

    return Job("cli/" + " ".join(argv).replace("src/psbe/fixtures/", ""),
               run, check, in_child=True)


def schema_validator():
    import jsonschema
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    def validate(doc):
        for error in validator.iter_errors(doc):
            raise ValueError(error.message)
    return validate


def setup_cli(psbe):
    validate = schema_validator()
    return [_cli_job(psbe, validate, argv, status)
            for argv, status in CLI_COMMANDS]


# ------------------------------------------------------------- set-up

SETUPS = {"fixtures": setup_fixtures, "products": setup_products,
          "search": setup_search, "cli": setup_cli}


def setup(workload):
    """Import psbe, build the workload's inputs and load the law catalog.

    Everything here counts towards setup_s."""
    psbe = import_psbe()
    psbe.catalog()
    return SETUPS[workload](psbe)

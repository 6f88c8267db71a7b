"""Command-line surface: classify, enumerate, deduce, quotient, verify,
search and list the law catalog.

Every subcommand emits a RunReport.  JSON is the contract (stable key
order, deterministic for identical inputs); text output is a thin
rendering of the same payload.  Exit codes: 0 clean, 1 a law failed or
a counterexample was found, 2 an input or usage error: argparse's own,
or a PreconditionUnmet from reading the file or from the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .algebra import (FiniteAlgebra, ParseError, PreconditionUnmet, load_algebra,
                      serialize_algebra)
from .classify import classify, require_pseudo_be
from . import deduction as ded, laws as lawmod, quantifiers as q

EXIT_OK = 0
EXIT_FAILURE_FOUND = 1
EXIT_USAGE = 2


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path) -> FiniteAlgebra:
    """The algebra in path; raises PreconditionUnmet (exit 2) when the file
    cannot be read or parsed, or when its declared zero is not the least
    element, whatever the subcommand."""
    try:
        alg = load_algebra(path)
    except FileNotFoundError:
        raise PreconditionUnmet(f"no such file: {path}")
    except OSError as exc:
        raise PreconditionUnmet(f"cannot read {path}: {exc.strerror}")
    except (UnicodeDecodeError, ParseError) as exc:
        raise PreconditionUnmet(f"{path}: {exc}")
    classify(alg)
    return alg


def _monadic_pair(alg, command: str, label: str, pair=None):
    """The declared pair `label`, read from the file unless given; raises
    PreconditionUnmet (exit 2) unless it is monadic.  A given pair was not
    named by --pair, so the message names its label."""
    if pair is None:
        return q.require_monadic(alg, q.pair_from_unary_blocks(alg, label), command)
    return q.require_monadic(alg, pair, f"{command} (declared pair {label!r})")


def _parse_set(alg, spec: str) -> frozenset:
    return frozenset(alg.index(tok) for tok in spec.split(",") if tok)


# ------------------------------------------------------------- subcommands

def _cmd_check(args):
    alg = _load(args.algebra)
    report, _ = classify(alg)
    payload = {
        "algebra": alg.name,
        "size": alg.size,
        "pseudo_be": report["pseudo_be"].to_json(alg),
        "pseudo_bck": report["pseudo_bck"].to_json(alg),
        "flags": report.to_json(alg),
    }
    lines = [f"algebra {alg.name} ({alg.size} elements)"]
    for name, verdict in payload["flags"].items():
        mark = {"holds": "yes", "fails": "no", "not_applicable": "n/a"}[
            verdict["status"]]
        w = verdict.get("witness")
        extra = f"  witness {w}" if w else ""
        lines.append(f"  {name:24s} {mark}{extra}")
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_mop(args):
    alg = require_pseudo_be(_load(args.algebra), "mop")
    pairs = q.enumerate_mop(alg, mode=args.mode)
    payload = {
        "algebra": alg.name,
        "mode": args.mode,
        "count": len(pairs),
        "pairs": [{"exists": [alg.element_names[v] for v in p.exists.images],
                   "forall": [alg.element_names[v] for v in p.forall.images]}
                  for p in pairs],
    }
    listed = alg.with_unary(**{
        key: m for i, p in enumerate(pairs, start=1)
        for key, m in ((f"exists{i}", p.exists), (f"forall{i}", p.forall))})
    return EXIT_OK, payload, serialize_algebra(listed).rstrip("\n")


def _cmd_ds(args):
    alg = _load(args.algebra)
    pair = _monadic_pair(alg, "ds", args.pair) if args.pair is not None else None
    systems = ded.enumerate_ds(alg)
    payload = {
        "algebra": alg.name,
        "pair": args.pair,
        "systems": [{**d.to_json(alg), "monadic": ded.is_monadic_ds(d, pair) if pair else None}
                    for d in systems],
    }
    lines = []
    for entry in payload["systems"]:
        tags = [tag for tag in ("normal", "monadic") if entry[tag]]
        suffix = f"   # {', '.join(tags)}" if tags else ""
        lines.append("ds " + " ".join(entry["members"]) + suffix)
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_gen(args):
    alg = _load(args.algebra)
    xs = _parse_set(alg, args.set)
    gen = ded.generated_ds(alg, xs)
    payload = {
        "algebra": alg.name,
        "set": [alg.element_names[x] for x in sorted(xs)],
        "generated": gen.tokens(alg),
        "normal": gen.normal,
    }
    return EXIT_OK, payload, "ds " + " ".join(payload["generated"])


def _cmd_quotient(args):
    alg = _load(args.algebra)
    xs = _parse_set(alg, args.set)
    d = ded.generated_ds(alg, xs)
    if d.members != xs:
        raise PreconditionUnmet(
            f"--set is not a deductive system (it generates {ded._braces(alg, d.members)})")
    pair = _monadic_pair(alg, "quotient", args.pair) if args.pair is not None else None
    cong = ded.theta_from_ds(alg, d)
    quot = ded.quotient(alg, cong, pair=pair, name=f"{alg.name}_quot")
    qalg = quot.algebra
    if quot.pair is not None:
        qalg = qalg.with_unary(exists=quot.pair.exists, forall=quot.pair.forall)
    text = serialize_algebra(qalg).rstrip("\n")
    payload = {
        "algebra": alg.name,
        "ds": d.tokens(alg),
        "classes": cong.to_json(alg),
        "projection": [alg.element_names[x] + "->" + qalg.element_names[c]
                       for x, c in enumerate(quot.projection)],
        "quotient": text,
    }
    return EXIT_OK, payload, text


def _cmd_verify(args):
    alg = require_pseudo_be(_load(args.algebra), "verify")
    pairs = ([_monadic_pair(alg, "verify", label, p) for label, p in q.declared_pairs(alg)]
             or q.enumerate_mop(alg))     # every monadic pair where the file declares none
    law_ids = args.law.split(",") if args.law else None
    verdicts = lawmod.verify_suite(alg, pairs, law_ids=law_ids)
    failures = [v for v in verdicts if v.status == lawmod.FAILS]
    payload = {
        "algebra": alg.name,
        "pairs": len(pairs),
        "laws_evaluated": len(verdicts),
        "instances": sum(v.instances for v in verdicts),
        "failures": len(failures),
        "verdicts": [v.to_json(alg) for v in verdicts],
    }
    lines = [f"{v.name:32s} pair={v.pair or '-':16s} {v.status}"
             + (f" witness={v.witness}" if v.witness is not None else "")
             for v in verdicts if v.status != lawmod.NOT_APPLICABLE]
    lines.append(f"{len(verdicts)} verdicts, {len(failures)} failures, "
                 f"{payload['instances']} instances")
    code = EXIT_FAILURE_FOUND if failures else EXIT_OK
    return code, payload, "\n".join(lines)


def _cmd_search(args):
    spec = lawmod.SearchSpec(law=args.law, max_size=args.max_size,
                             min_size=args.min_size, budget=args.budget)
    result = lawmod.search_counterexample(spec)
    payload = {
        "law": args.law,
        "max_size": args.max_size,
        "visited": result.visited,
        "visited_by_size": {str(k): v for k, v in
                            sorted(result.visited_by_size.items())},
        "exhausted": result.exhausted,
        "counterexample": None,
    }
    if result.found is not None:
        alg, pair, witness = result.found
        listed = alg
        if pair is not None:
            listed = alg.with_unary(exists=pair.exists, forall=pair.forall)
        payload["counterexample"] = {
            "algebra": serialize_algebra(listed).rstrip("\n"),
            "witness": [alg.element_names[x] if isinstance(x, int) else x
                        for x in witness] if witness is not None else None,
        }
        text = (f"counterexample to {args.law} at size {alg.size} "
                f"(witness {payload['counterexample']['witness']}):\n"
                + payload["counterexample"]["algebra"])
        return EXIT_FAILURE_FOUND, payload, text
    status = "exhausted" if result.exhausted else "budget exceeded"
    text = (f"no counterexample to {args.law} up to size {args.max_size} "
            f"({status}; visited {result.visited} candidate table pairs)")
    return EXIT_OK, payload, text


def _cmd_laws(args):
    laws = lawmod.catalog_json()
    lines = [f"{law['id']:34s} {law['anchor']}"
             + ("  [probe]" if law["probe"] else "") for law in laws]
    return EXIT_OK, {"laws": laws}, "\n".join(lines)


_COMMANDS = {
    "check": _cmd_check,
    "mop": _cmd_mop,
    "ds": _cmd_ds,
    "gen": _cmd_gen,
    "quotient": _cmd_quotient,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "laws": _cmd_laws,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psbe",
        description="finite-model workbench for pseudo BE-algebras")
    parser.add_argument("--version", action="version",
                        version=f"psbe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("algebra", help="algebra file path")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="json", action="store_true",
                         default=True, help="emit the JSON report (default)")
        fmt.add_argument("--text", dest="json", action="store_false",
                         help="emit a human-readable rendering")

    p = sub.add_parser("check", help="classify an algebra")
    common(p)

    p = sub.add_parser("mop", help="enumerate monadic operator pairs")
    common(p)
    p.add_argument("--mode", choices=["plain", "bc", "hoop"], default="plain")

    p = sub.add_parser("ds", help="list deductive systems")
    common(p)
    p.add_argument("--pair", help="unary block prefix selecting a monadic pair")

    p = sub.add_parser("gen", help="generated deductive system of --set")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated element names")

    p = sub.add_parser("quotient", help="quotient by the congruence of --set")
    common(p)
    p.add_argument("--set", required=True, help="deductive system, comma-separated")
    p.add_argument("--pair", help="unary block prefix selecting a monadic pair")

    p = sub.add_parser("verify", help="run the law suite")
    common(p)
    p.add_argument("--law", help="comma-separated law ids (default: every law but the probes)")

    p = sub.add_parser("search", help="bounded counterexample search")
    common(p, algebra=False)
    p.add_argument("--law", required=True, help="target law id")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--budget", type=int, default=None,
                   help="maximum number of candidate table pairs to visit")

    p = sub.add_parser("laws", help="list the law catalog")
    common(p, algebra=False)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        code, payload, text = _COMMANDS[args.command](args)
    except PreconditionUnmet as exc:
        print(f"psbe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "tool": "psbe",
        "version": __version__,
        "subcommand": args.command,
        "input_digest": (_digest(args.algebra)
                         if getattr(args, "algebra", None) else None),
        "payload": payload,
        "exit_status": code,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

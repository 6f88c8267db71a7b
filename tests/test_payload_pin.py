"""Pin the CLI's JSON payloads and the congruence lists.

One sha256 covers, for each fixture, the `--json` payload and exit code
of `check`, `mop` in all three modes, `ds`, `verify` and `quotient` per
deductive system, and the output of `enumerate_congruences` on the
fixtures, their products with C2 and every labelled pseudo BE-algebra
of size 2 and 3.  A changed digest means some command or the congruence
list (its members or their order) changed.  A second sha256, `TEXT_DIGEST`,
covers the `--text` output and exit code of `check`, `mop` in all three
modes, `ds` and `verify` on each fixture.
"""

import contextlib
import hashlib
import io
import json

from psbe.cli import run
from psbe.deduction import enumerate_congruences, enumerate_ds

from conftest import FIXTURE_NAMES, fixture_path, labelled_models, load, times_c2

DIGEST = "b61ef0d32192458d42bf04029e16ced5c19a8aba6c3b14707628d181edd5128c"
TEXT_DIGEST = "75a88a1405cad72dc5204edf0c42317e04d495d7dfc61fdf913c99ea1c3c0420"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--json"])
    payload = json.loads(out.getvalue())["payload"] if out.getvalue() else None
    return [list(argv[:1]) + list(argv[2:]), code, payload]


def outcomes():
    out = []
    for name in FIXTURE_NAMES:
        path = str(fixture_path(name))
        out.append(_run("check", path))
        for mode in ("plain", "bc", "hoop"):
            out.append(_run("mop", path, "--mode", mode))
        out.append(_run("ds", path))
        out.append(_run("verify", path))
        alg = load(name)
        for d in enumerate_ds(alg):
            out.append(_run("quotient", path, "--set", ",".join(d.tokens(alg))))
    algebras = [load(name) for name in FIXTURE_NAMES]
    algebras += [times_c2(alg) for alg in algebras]
    algebras += [alg for n in (2, 3) for alg in labelled_models(n)]
    for alg in algebras:
        out.append([alg.name, [c.classes for c in enumerate_congruences(alg)]])
    return out


def digest():
    doc = json.dumps(outcomes(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def test_payloads_are_pinned():
    assert digest() == DIGEST


def text_outcomes():
    out = []
    for name in FIXTURE_NAMES:
        path = str(fixture_path(name))
        for argv in (["check"], *(["mop", "--mode", mode] for mode in ("plain", "bc", "hoop")),
                     ["ds"], ["verify"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run([argv[0], path, *argv[1:], "--text"])
            out.append([name, argv, code, stdout.getvalue(), stderr.getvalue()])
    return out


def test_text_output_is_pinned():
    doc = json.dumps(text_outcomes(), separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == TEXT_DIGEST

"""Pin the CLI's JSON payloads and the congruence lists.

`test_payloads_are_pinned` covers, for each fixture, the `--json` payload
and exit code of `check`, `mop` in all three modes, `ds`, `verify` and
`quotient` per deductive system, keyed by command line, and the output
of `enumerate_congruences` on the fixtures, their products with C2 and
every labelled pseudo BE-algebra of size 2 and 3, keyed by algebra name.
`test_text_output_is_pinned` covers the `--text` output and exit code of
`check`, `mop` in all three modes, `ds` and `verify` on each fixture,
keyed by command line.  A fixture is named in a key by its name, not
its path.
"""

import json

from psbe.cli import run
from psbe.deduction import enumerate_congruences, enumerate_ds

from conftest import (FIXTURE_NAMES, assert_pinned, fixture_path, labelled_models, load,
                      times_c2)

COMMANDS = (["check"], *(["mop", "--mode", mode] for mode in ("plain", "bc", "hoop")),
            ["ds"], ["verify"])


def _run(capsys, name, argv, fmt):
    """The command line with the fixture's name, and (exit code, stdout,
    stderr) of `psbe` on argv with the fixture's path after the command."""
    code = run([argv[0], str(fixture_path(name)), *argv[1:], fmt])
    return " ".join([argv[0], name, *argv[1:]]), (code, *capsys.readouterr())


def outcomes(capsys):
    out = {}
    for name in FIXTURE_NAMES:
        alg = load(name)
        for argv in [*COMMANDS, *(["quotient", "--set", ",".join(d.tokens(alg))]
                                  for d in enumerate_ds(alg))]:
            key, (code, stdout, _) = _run(capsys, name, argv, "--json")
            out[key] = [code, json.loads(stdout)["payload"] if stdout else None]
    algebras = [load(name) for name in FIXTURE_NAMES]
    algebras += [times_c2(alg) for alg in algebras]
    algebras += [alg for n in (2, 3) for alg in labelled_models(n)]
    for alg in algebras:
        out.setdefault(f"enumerate_congruences {alg.name}", []).append(
            [c.classes for c in enumerate_congruences(alg)])
    return out


def test_payloads_are_pinned(capsys):
    assert_pinned("payloads", outcomes(capsys))


def test_text_output_is_pinned(capsys):
    assert_pinned("text_output", dict(_run(capsys, name, argv, "--text")
                                      for name in FIXTURE_NAMES for argv in COMMANDS))

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

import psbe
from psbe import cli as cli_module
from psbe.algebra import load_algebra, parse_algebra
from psbe.cli import run
from psbe.laws import catalog, verify_suite
from psbe.quantifiers import enumerate_mop, pair_from_unary_blocks

from conftest import fixture_path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"
VALIDATOR = Draft7Validator(json.loads(SCHEMA_PATH.read_text()))
classify_module = sys.modules["psbe.classify"]     # psbe.classify is the function

# psBE4 fails at (a, a, b): a -> (a ~> b) = a -> b = a, a ~> (a -> b) = 1
NOT_PSBE = ("algebra broken\nelements 1 a b\none 1\n"
            "arrow\n1 a b\n1 1 a\n1 b 1\n"
            "squig\n1 a b\n1 1 b\n1 a 1\nend\n")
# psbe5 whose declared pair 1 has E constantly 1: M5 fails at a, as
# E(F a) = 1 but F a = a
NON_MONADIC_PAIR = fixture_path("psbe5").read_text().replace(
    "unary exists1\n1 a b c d\n", "unary exists1\n1 1 1 1 1\n")
# psBE5 fails at (b, a): b -> a = 1 but b ~> a = a, so {1, b} is
# closed under modus ponens for ~> but not for ->
CLOSURES_DISAGREE = ("algebra broken\nelements 1 a b\none 1\n"
                     "arrow\n1 a b\n1 1 1\n1 1 1\n"
                     "squig\n1 a b\n1 1 1\n1 a 1\nend\n")
# psBE1 fails at e1; {1, e1} is a deductive system whose Theta has [1] = {1}
THETA_NOT_PSBE = ("algebra bad\nelements 1 e1 e2\none 1\n"
                  "arrow\n1 e2 e2\ne2 e1 e2\ne1 e2 1\n"
                  "squig\n1 e1 e2\ne2 e1 e2\n1 e2 e1\nend\n")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    report = json.loads(out)
    errors = list(VALIDATOR.iter_errors(report))
    assert not errors, errors[0].message if errors else None
    return code, report


def test_schema_is_itself_valid():
    Draft7Validator.check_schema(json.loads(SCHEMA_PATH.read_text()))


def test_check_report(capsys):
    code, report = invoke_json(capsys, "check", str(fixture_path("psbe5")))
    assert code == 0
    assert report["payload"]["flags"]["pseudo_bck"]["status"] == "fails"
    assert report["payload"]["flags"]["pseudo_bck"]["witness"] == ["b", "c"]


def test_check_runs_each_axiom_check_once(capsys, monkeypatch):
    # the payload's pseudo_be/pseudo_bck fields are the report's flags
    calls = []
    for name in ("check_pseudo_be", "check_pseudo_bck"):
        real = getattr(classify_module, name)

        def counted(alg, real=real, name=name):
            calls.append(name)
            return real(alg)

        monkeypatch.setattr(classify_module, name, counted)
        monkeypatch.setattr(cli_module, name, counted, raising=False)
    code, _ = invoke_json(capsys, "check", str(fixture_path("inv6")))
    assert code == 0
    assert sorted(calls) == ["check_pseudo_bck", "check_pseudo_be"]


def test_mop_lists_four_pairs(capsys):
    code, report = invoke_json(capsys, "mop", str(fixture_path("psbe5")))
    assert code == 0
    assert report["payload"]["count"] == 4


def test_mop_text_appends_unary_blocks(capsys):
    code, out = invoke(capsys, "mop", str(fixture_path("psbe4")), "--text")
    assert code == 0
    assert out.count("unary exists") == 3
    assert out.count("unary forall") == 3


def test_gen_example(capsys):
    code, out = invoke(capsys, "gen", str(fixture_path("psbe5")),
                       "--set", "1,d", "--text")
    assert code == 0
    assert out.strip() == "ds 1 a d"


def test_ds_with_pair(capsys):
    code, report = invoke_json(capsys, "ds", str(fixture_path("bc4")),
                               "--pair", "2")
    assert code == 0
    systems = report["payload"]["systems"]
    monadic = {frozenset(s["members"]) for s in systems if s["monadic"]}
    assert monadic == {frozenset(["1"]), frozenset(["0", "1", "a", "b"])}


def test_quotient_two_classes(capsys):
    code, report = invoke_json(capsys, "quotient", str(fixture_path("psbe5")),
                               "--set", "1,a,d", "--pair", "4")
    assert code == 0
    assert len(report["payload"]["classes"]) == 2
    assert "unary exists" in report["payload"]["quotient"]


def test_quotient_rejects_non_ds(capsys):
    code = run(["quotient", str(fixture_path("psbe5")), "--set", "1,d"])
    assert code == 2


def test_verify_clean_fixture_exits_zero(capsys):
    code, report = invoke_json(capsys, "verify", str(fixture_path("inv6")))
    assert code == 0
    assert report["payload"]["failures"] == 0


def test_verify_law_filter(capsys):
    code, report = invoke_json(capsys, "verify", str(fixture_path("bc4")),
                               "--law", "P3.forall_one")
    assert code == 0
    assert {v["law"] for v in report["payload"]["verdicts"]} == {"P3.forall_one"}


def test_verify_runs_a_probe_law_it_names(capsys):
    # psbe5 is a preorder: a <= d and d <= a
    code, report = invoke_json(capsys, "verify", str(fixture_path("psbe5")),
                               "--law", "AX.psbck6_antisym")
    assert code == 1
    (verdict,) = report["payload"]["verdicts"]
    assert (verdict["law"], verdict["status"], verdict["witness"]) == (
        "AX.psbck6_antisym", "fails", ["a", "d"])
    assert report["payload"]["failures"] == 1


def test_verify_law_naming_the_default_laws_reads_the_default_payload(capsys):
    path = str(fixture_path("psbe5"))
    _, default = invoke_json(capsys, "verify", path)
    ids = [law.id for law in catalog() if not law.probe]
    assert sorted({v["law"] for v in default["payload"]["verdicts"]}) == ids
    code, named = invoke_json(capsys, "verify", path, "--law", ",".join(ids))
    assert (code, named["payload"]) == (0, default["payload"])


def test_search_counterexample_exits_one(capsys):
    code, report = invoke_json(capsys, "search", "--law", "AX.psbck6_antisym",
                               "--max-size", "3")
    assert code == 1
    assert report["payload"]["counterexample"] is not None


def test_search_counterexample_declares_its_pair(capsys):
    # the probe fails on a pair at n = 4: the document lists it as exists and
    # forall, and the law fails on the re-parsed document at the same witness
    code, report = invoke_json(capsys, "search", "--law", "P3.isotone_unconditional",
                               "--max-size", "4")
    found = report["payload"]["counterexample"]
    assert (code, found["witness"]) == (1, ["e3", "e1"])
    alg = parse_algebra(found["algebra"])
    assert (alg.size, list(alg.unary)) == (4, ["exists", "forall"])
    [verdict] = verify_suite(alg, [pair_from_unary_blocks(alg, "")],
                             law_ids=["P3.isotone_unconditional"])
    assert (verdict.status, verdict.witness) == ("fails", (3, 1))


def test_search_exhausted_exits_zero(capsys):
    code, report = invoke_json(capsys, "search", "--law", "AX.refl",
                               "--max-size", "3")
    assert code == 0
    assert report["payload"]["exhausted"] is True


def test_search_min_size_skips_smaller_carriers(capsys):
    code, report = invoke_json(capsys, "search", "--law", "AX.refl",
                               "--min-size", "3", "--max-size", "3")
    assert code == 0
    assert report["payload"]["visited_by_size"] == {"3": 81}


def test_laws_lists_the_catalog(capsys):
    code, report = invoke_json(capsys, "laws")
    assert code == 0
    assert report["input_digest"] is None
    ids = [law["id"] for law in report["payload"]["laws"]]
    assert ids == [law.id for law in catalog()]
    assert len(set(ids)) == 86


def test_verify_reads_suffix_named_pair(tmp_path, capsys):
    text = fixture_path("inv6").read_text()
    renamed = tmp_path / "inv6_named.alg"
    renamed.write_text(text.replace("unary forall", "unary x_forall")
                       .replace("unary exists", "unary x_exists"))
    _, original = invoke_json(capsys, "verify", str(fixture_path("inv6")))
    code, report = invoke_json(capsys, "verify", str(renamed))
    assert code == 0
    assert report["payload"]["pairs"] == 1
    assert report["payload"]["verdicts"] == original["payload"]["verdicts"]
    code, report = invoke_json(capsys, "ds", str(renamed), "--pair", "x")
    assert code == 0


def test_verify_without_a_declared_pair_runs_every_monadic_pair(tmp_path, capsys):
    # bc4 with its unary blocks stripped declares no pair: verify lists them
    bare = tmp_path / "bc4_bare.alg"
    bare.write_text(re.sub(r"unary \S+\n.*\n", "", fixture_path("bc4").read_text()))
    alg = load_algebra(bare)
    assert alg.unary == {}
    code, report = invoke_json(capsys, "verify", str(bare))
    payload = report["payload"]
    assert (code, payload["pairs"], payload["laws_evaluated"], payload["failures"]) == (
        0, 2, 140, 0)
    assert payload["verdicts"] == [v.to_json(alg) for v in verify_suite(alg, enumerate_mop(alg))]


def test_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"psbe {psbe.__version__}"


def test_threads_flag_is_gone(capsys):
    assert run(["check", str(fixture_path("bc4")), "--threads", "2"]) == 2


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra t\nelements 1 a\none 1\narrow\n1 a\n1 q\n"
                   "squig\n1 a\n1 1\nend\n")
    code = run(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 6" in err


def _psbe_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(psbe.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "psbe.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_bad_declared_zero_exits_two(tmp_path):
    bad = tmp_path / "bc4_zero_a.alg"
    bad.write_text(fixture_path("bc4").read_text().replace("zero 0", "zero a"))
    for command in (["check"], ["verify"], ["mop"], ["ds"], ["gen", "--set", "1"],
                    ["quotient", "--set", "1"]):
        out = _psbe_process(*command, str(bad))
        assert out.returncode == 2, command
        assert out.stdout == ""
        assert out.stderr == ("psbe: error: declared zero 'a' is not the "
                              "least element ('0' is)\n"), command


def test_declared_zero_outside_several_least_elements_exits_two(tmp_path):
    # psbe4's least elements are b and c; its top declared as zero is neither
    text = fixture_path("psbe4").read_text()
    bad, good = tmp_path / "psbe4_zero_1.alg", tmp_path / "psbe4_zero_b.alg"
    bad.write_text(text.replace("one 1\n", "one 1\nzero 1\n"))
    good.write_text(text.replace("one 1\n", "one 1\nzero b\n"))
    for command in ("check", "verify", "mop", "ds"):
        out = _psbe_process(command, str(bad))
        assert (out.returncode, out.stdout) == (2, ""), command
        assert out.stderr == "psbe: error: declared zero '1' is not a least element\n", command
    assert _psbe_process("check", str(good)).returncode == 0


def test_ds_on_non_psbe_tables_exits_two(tmp_path):
    bad = tmp_path / "psbe5_broken.alg"
    bad.write_text(CLOSURES_DISAGREE)
    out = _psbe_process("ds", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        "psbe: error: deductive systems need a pseudo BE-algebra: arrow and "
        "squig closures disagree on {1, b}; psBE5 fails at (b, a)\n")


@pytest.mark.parametrize("command", ["mop", "verify"])
def test_non_psbe_input_exits_two(tmp_path, capsys, command):
    bad = tmp_path / "psbe4_broken.alg"
    bad.write_text(NOT_PSBE)
    assert run([command, str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"psbe: error: {command} needs a pseudo BE-algebra: "
                       "psBE4 fails at (a, a, b)\n")
    assert run(["check", str(bad)]) == 0


def test_quotient_by_a_pair_that_is_not_monadic_exits_two(tmp_path):
    chain = tmp_path / "chain2.alg"
    chain.write_text("algebra chain2\nelements 1 e1\none 1\n"
                     "arrow\n1 e1\n1 1\nsquig\n1 e1\n1 1\n"
                     "unary exists1\n1 1\nunary forall1\n1 e1\nend\n")
    out = _psbe_process("quotient", str(chain), "--set", "1", "--pair", "1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("psbe: error: quotient needs a monadic pair: "
                          "M5 fails at (e1)\n")


@pytest.mark.parametrize("argv, err", [
    (["ds", "--pair", "1"], "ds needs a monadic pair: M5 fails at (a)"),
    (["verify"], "verify (declared pair '1') needs a monadic pair: M5 fails at (a)"),
], ids=["ds", "verify"])
def test_declared_pair_that_is_not_monadic_exits_two(tmp_path, capsys, argv, err):
    bad = tmp_path / "psbe5_e1.alg"
    bad.write_text(NON_MONADIC_PAIR)
    assert run([argv[0], str(bad), *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"psbe: error: {err}\n"


def test_missing_file_exits_two(capsys):
    assert run(["check", "/no/such/file.alg"]) == 2


def test_usage_error_exits_two(capsys):
    assert run(["gen", str(fixture_path("psbe5"))]) == 2     # missing --set
    assert run(["search"]) == 2                              # missing --law


# every source of exit status 2; {name} is a path from _exit_two_inputs
EXIT_TWO = {
    "parse_error": "check {parse_error}",
    "missing_file": "check {missing}",
    "directory": "check {dir}",
    "through_a_file": "check {parse_error}/x.alg",
    "not_utf8": "check {latin1}",
    "bad_declared_zero": "check {bad_zero}",
    "mop_not_psbe": "mop {not_psbe}",
    "verify_not_psbe": "verify {not_psbe}",
    "ds_closures_disagree": "ds {closures_disagree}",
    "gen_closures_disagree": "gen {closures_disagree} --set 1",
    "quotient_closures_disagree": "quotient {closures_disagree} --set 1",
    "quotient_theta_not_psbe": "quotient {theta_not_psbe} --set 1,e1",
    "unknown_element": "gen {bc4} --set 1,q",
    "unknown_pair": "ds {bc4} --pair 9",
    "ds_non_monadic_pair": "ds {non_monadic} --pair 1",
    "verify_non_monadic_pair": "verify {non_monadic}",
    "set_not_a_ds": "quotient {psbe5} --set 1,d",
    "not_a_congruence": "quotient {psbe4} --set 1",
    "pair_breaks_congruence": "quotient {bc4} --set 1,a --pair 2",
    "mode_unavailable": "mop {psbe4} --mode bc",
    "verify_unknown_law": "verify {bc4} --law NO.such_law",
    "search_unknown_law": "search --law NO.such_law --max-size 2",
    "search_size_out_of_range": "search --law AX.refl --max-size 6",
    "negative_budget": "search --law AX.refl --budget -1",
    "gen_without_set": "gen {psbe5}",
    "quotient_without_set": "quotient {psbe5}",
    "search_without_law": "search",
}


# the exact stderr of some of them
EXIT_TWO_MESSAGES = {
    "pair_breaks_congruence": "psbe: error: exists does not respect the congruence at (3, 2)\n",
    "quotient_theta_not_psbe": "psbe: error: Theta_D needs a pseudo BE-algebra: [1]_Theta "
                               "differs from D = {1, e1}; psBE1 fails at (e1)\n",
}


def _exit_two_inputs(tmp_path):
    texts = {"parse_error": "algebra t\nelements 1 a\none 1\nbogus\nend\n",
             "bad_zero": fixture_path("bc4").read_text().replace("zero 0", "zero a"),
             "not_psbe": NOT_PSBE, "closures_disagree": CLOSURES_DISAGREE,
             "theta_not_psbe": THETA_NOT_PSBE, "non_monadic": NON_MONADIC_PAIR}
    paths = {name: tmp_path / f"{name}.alg" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text)
    paths["latin1"] = tmp_path / "latin1.alg"
    paths["latin1"].write_bytes("algebra café\n".encode("latin-1"))
    paths.update(missing=tmp_path / "missing.alg", dir=tmp_path,
                 **{name: fixture_path(name) for name in ("bc4", "psbe4", "psbe5")})
    return paths


@pytest.mark.parametrize("case", EXIT_TWO)
def test_input_and_usage_errors_exit_two(tmp_path, capsys, case):
    argv = EXIT_TWO[case].format(**_exit_two_inputs(tmp_path)).split()
    code = run(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "Traceback" not in out.err
    assert out.err.splitlines()[-1].startswith(
        ("psbe: error: ", f"psbe {argv[0]}: error: "))
    assert out.err == EXIT_TWO_MESSAGES.get(case, out.err)


def test_reports_are_deterministic(capsys):
    _, first = invoke(capsys, "verify", str(fixture_path("bc4")))
    _, second = invoke(capsys, "verify", str(fixture_path("bc4")))
    assert first == second

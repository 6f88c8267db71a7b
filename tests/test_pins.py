"""The keyed pin form, `conftest.assert_pinned`, on pin files in a temporary directory."""

import json

import pytest

from conftest import assert_pinned

ROWS = {"inputs": [[0, 1]], "AX.refl": [{"status": "holds"}], "AX.one": [[1, 2]]}


def test_a_missing_pin_file_is_written_and_the_test_fails(tmp_path):
    with pytest.raises(pytest.fail.Exception, match="was missing: written with 3 keys"):
        assert_pinned("p", ROWS, tmp_path)
    lines = (tmp_path / "p.txt").read_text("utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == list(ROWS)
    assert_pinned("p", ROWS, tmp_path)


LONG = json.dumps([list(range(200))])


@pytest.mark.parametrize("rows, message", [
    ({**ROWS, "AX.refl": [{"status": "fails"}]},
     "changed: ['AX.refl'], added: [], removed: []; new rows of 'AX.refl': "
     "[{\"status\": \"fails\"}]"),
    ({**ROWS, "P3.new": []},
     "changed: [], added: ['P3.new'], removed: []; new rows of 'P3.new': []"),
    ({k: v for k, v in ROWS.items() if k != "AX.one"},
     "changed: [], added: [], removed: ['AX.one']"),
    ({**ROWS, "inputs": [list(range(200))], "P3.new": []},
     f"changed: ['inputs'], added: ['P3.new'], removed: []; new rows of 'inputs': {LONG[:300]}..."),
])
def test_a_moved_pin_names_exactly_the_keys_that_moved(tmp_path, rows, message):
    with pytest.raises(pytest.fail.Exception):
        assert_pinned("p", ROWS, tmp_path)
    pinned = (tmp_path / "p.txt").read_text("utf-8")
    with pytest.raises(pytest.fail.Exception) as err:
        assert_pinned("p", rows, tmp_path)
    assert str(err.value) == "pin p moved; " + message
    assert (tmp_path / "p.txt").read_text("utf-8") == pinned

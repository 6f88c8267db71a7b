import re

import pytest
from hypothesis import given, strategies as st

from psbe.algebra import (FiniteAlgebra, ParseError, PreconditionUnmet, UnaryMap,
                          parse_algebra, serialize_algebra)
from psbe.cli import run


def test_roundtrip_fixture(any_fixture):
    text = serialize_algebra(any_fixture)
    again = parse_algebra(text)
    assert again == any_fixture
    assert again.unary == any_fixture.unary
    assert serialize_algebra(again) == text


def test_leq_is_arrow_to_one(psbe5):
    a = psbe5.index("a")
    d = psbe5.index("d")
    assert psbe5.leq(a, d) and psbe5.leq(d, a)  # mutual: the order is a preorder


def test_parse_error_reports_line_number():
    doc = "algebra t\nelements 1 a\none 1\narrow\n1 a\n1 q\nsquig\n1 a\n1 1\nend\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra(doc)
    assert exc.value.line == 6
    assert "q" in exc.value.reason


def test_parse_error_row_width():
    doc = "algebra t\nelements 1 a\none 1\narrow\n1 a\n1\nsquig\n1 a\n1 1\nend\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra(doc)
    assert exc.value.line == 6


HEAD = "algebra t\nelements 1 a\none 1\n"
TABLES = "arrow\n1 a\n1 1\nsquig\n1 a\n1 1\n"


@pytest.mark.parametrize("doc, line, reason", [
    ("", 1, "unexpected end of document"),
    ("# nothing but a comment\n\n", 1, "unexpected end of document"),
    (HEAD + "arrow\n1 a\n", 5, "unexpected end of document"),
    ("algebra\n", 1, "expected 'algebra <name>'"),
    ("name t\n", 1, "expected 'algebra <name>'"),
    ("algebra t\nelements\n", 2, "expected 'elements <tok1> ... <tokn>'"),
    ("algebra t\nelements 1 a\none\n", 3, "expected 'one <tok>'"),
    (HEAD + "zero\n" + TABLES + "end\n", 4, "expected 'zero <tok>'"),
    (HEAD + "zero a\n" + TABLES + "zero a\nend\n", 11, "duplicate 'zero' section"),
    (HEAD + TABLES + "arrow\n1 a\n1 1\nend\n", 10, "duplicate 'arrow' section"),
    (HEAD + TABLES + "unary\n1 a\nend\n", 10, "expected 'unary <opname>'"),
    (HEAD + TABLES + "unary m\n1 a\nunary m\n1 1\nend\n", 12, "duplicate unary map 'm'"),
    (HEAD + TABLES + "end\n\nend\n", 12, "content after 'end'"),
])
def test_each_parse_error_names_its_line(doc, line, reason, tmp_path, capsys):
    # the library raises ParseError at the line; the CLI exits 2 and says so
    with pytest.raises(ParseError) as exc:
        parse_algebra(doc)
    assert (exc.value.line, exc.value.reason, str(exc.value)) == (
        line, reason, f"line {line}: {reason}")
    path = tmp_path / "bad.alg"
    path.write_text(doc)
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"psbe: error: {path}: line {line}: {reason}\n"


def test_missing_section():
    with pytest.raises(ParseError):
        parse_algebra("algebra t\nelements 1\none 1\nend\n")


def test_duplicate_elements_rejected():
    with pytest.raises((ParseError, ValueError)):
        parse_algebra("algebra t\nelements 1 a a\none 1\n"
                      "arrow\n1 a a\n1 1 1\n1 1 1\n"
                      "squig\n1 a a\n1 1 1\n1 1 1\nend\n")


@pytest.mark.parametrize("fields, message", [
    (dict(arrow=((0, 1.0), (0, 0))), "arrow table entry out of range"),
    (dict(squig=((0, 1), (True, 0))), "squig table entry out of range"),
    (dict(arrow=((0, 1), (1.0, 0))), "arrow table entry out of range"),     # after an int 1
    (dict(one=0.0), "constant 1 out of range"),
    (dict(one=False), "constant 1 out of range"),
    (dict(zero=1.0), "constant 0 out of range"),
    (dict(unary={"m": UnaryMap((0, True))}), "unary map 'm' is not a self-map"),
])
def test_entries_that_are_not_exactly_ints_are_rejected(fields, message):
    # each is equal to an index in range(2), and each broke every later scan
    table = ((0, 1), (0, 0))
    with pytest.raises(PreconditionUnmet, match=f"^{message}$"):
        FiniteAlgebra("t", ("1", "a"), **{"one": 0, "arrow": table, "squig": table, **fields})


NOT_A_TOKEN, T1 = "names must be non-empty strings without whitespace or '#', got ", ((0,),)


@pytest.mark.parametrize("args, message", [
    (("x", ("a",), 0, ((5,),), ((0,),)), "arrow table entry out of range"),
    (("x", (), 0, (), ()), "empty carrier"),
    (("x", ("a", "a"), 0, ((0, 0), (0, 0)), ((0, 0), (0, 0))), "duplicate element names"),
    (("x", ("a", "b"), 0, ((0, 0), (0, 0)), ((0, 0),)),
     "squig table is not a 2x2 tuple of tuples"),
    # fields of the wrong type, checked before len() or .items() is called on them
    (("x", 5, 0, (), ()), "element names must be a tuple, got 5"),
    (("x", ("a",), 0, None, ((0,),)), "arrow table is not a 1x1 tuple of tuples"),
    (("x", ("a",), 0, (5,), ((0,),)), "arrow table is not a 1x1 tuple of tuples"),
    (("x", ("1", "a"), 0, ((0, 1), (0, 0)), ((0, 1), (0, 0)), None, 5),
     "unary maps must be given by name in a dict, got 5"),
    # names that are not strings, checked before they are hashed or written out
    (("x", ([0],), 0, ((0,),), ((0,),)), NOT_A_TOKEN + re.escape("[0]")),
    (("x", ((1, 2),), 0, ((0,),), ((0,),)), NOT_A_TOKEN + re.escape("(1, 2)")),
    # names that serialize_algebra cannot write back as one token
    (("x", ("a b",), 0, T1, T1), NOT_A_TOKEN + "'a b'"),
    (("x", ("#",), 0, T1, T1), NOT_A_TOKEN + "'#'"),
    (("x", ("",), 0, T1, T1), NOT_A_TOKEN + "''"),
    (("my alg", ("1",), 0, T1, T1), NOT_A_TOKEN + "'my alg'"),
    (("x", ("1",), 0, T1, T1, None, {"e f": UnaryMap((0,))}), NOT_A_TOKEN + "'e f'"),
    ((5, ("1",), 0, T1, T1), NOT_A_TOKEN + "5"),
    # lists and strings, which serialize_algebra would write back as tuples or as one name
    (("x", ["1", "a"], 0, ((0, 1), (0, 0)), ((0, 1), (0, 0))),
     re.escape("element names must be a tuple, got ['1', 'a']")),
    (("x", "1a", 0, ((0, 1), (0, 0)), ((0, 1), (0, 0))), "element names must be a tuple, got '1a'"),
    (("x", ("1", "a"), 0, [[0, 1], [0, 0]], ((0, 1), (0, 0))),
     "arrow table is not a 2x2 tuple of tuples"),
    (("x", ("1", "a"), 0, ((0, 1), (0, 0)), [(0, 1), (0, 0)]),
     "squig table is not a 2x2 tuple of tuples"),
    (("x", ("1", "a"), 0, ((0, 1), [0, 0]), ((0, 1), (0, 0))),
     "arrow table is not a 2x2 tuple of tuples"),
    (("x", ("1", "a"), 0, ((0, 1), (0, 0)), ((0, 1), "10")),
     "squig table is not a 2x2 tuple of tuples"),
])
def test_malformed_algebras_are_rejected(args, message):
    # the library's one error for a rejected input, a ValueError as before
    with pytest.raises(PreconditionUnmet, match=f"^{message}$"):
        FiniteAlgebra(*args)


def test_unary_map_compose_identity():
    m = UnaryMap((0, 2, 1))
    assert m.compose(m).is_identity()
    assert UnaryMap.identity(3).compose(m) == m


@st.composite
def random_algebras(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = tuple(f"e{i}" for i in range(n))
    cell = st.integers(min_value=0, max_value=n - 1)
    table = st.tuples(*[st.tuples(*[cell] * n)] * n)
    arrow = draw(table)
    squig = draw(table)
    one = draw(cell)
    zero = draw(st.one_of(st.none(), cell))
    unary = {}
    if draw(st.booleans()):
        unary["m"] = UnaryMap(draw(st.tuples(*[cell] * n)))
    return FiniteAlgebra("rnd", names, one, arrow, squig,
                         zero if zero != one or n == 1 else None, unary)


@given(random_algebras())
def test_roundtrip_random(alg):
    # serialization is lossless for arbitrary well-formed tables,
    # independent of any axioms
    again = parse_algebra(serialize_algebra(alg))
    assert again == alg and again.unary == alg.unary


# half the drawn names are tokens; the others are empty, or hold '#' or whitespace as
# str.split reads it, a line separator of str.splitlines among them
NAME = st.text("1aé", min_size=1, max_size=3) | st.sampled_from(
    ["", "#", "a#1", "a b", "\t", "1\n", "\x1c", "é\u2028"])


@given(NAME, st.lists(NAME, min_size=1, max_size=3, unique=True), NAME)
def test_every_name_the_constructor_accepts_round_trips(name, element_names, opname):
    n = len(element_names)
    try:
        alg = FiniteAlgebra(name, tuple(element_names), 0, ((0,) * n,) * n, ((0,) * n,) * n,
                            unary={opname: UnaryMap((0,) * n)})
    except PreconditionUnmet:
        return
    again = parse_algebra(serialize_algebra(alg))
    assert again == alg and again.unary == alg.unary

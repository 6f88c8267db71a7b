"""Finite two-implication algebras and their line-oriented file format.

An algebra is a carrier of n named elements with two n x n operation
tables (``arrow`` for ->, ``squig`` for the second implication), a
designated constant 1 and an optional constant 0.  Elements are dense
indices 0..n-1 in declaration order; names are only used at the I/O
boundary.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple


class ParseError(ValueError):
    """Malformed algebra document.  Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class PreconditionUnmet(ValueError):
    """The input does not meet what the operation needs (CLI exit status 2);
    `witness`, when given, is a tuple of element indices showing it."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


Table = tuple[tuple[int, ...], ...]


class UnaryMap(NamedTuple):
    """Total self-map on the carrier, stored as the image of each index."""

    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __len__(self) -> int:
        return len(self.images)

    def compose(self, other: "UnaryMap") -> "UnaryMap":
        """self after other: x -> self(other(x))."""
        return UnaryMap(tuple(self.images[i] for i in other.images))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    @staticmethod
    def identity(n: int) -> "UnaryMap":
        return UnaryMap(tuple(range(n)))


# _replace goes through _make, which checks len(): here the carrier's size
UnaryMap._make = classmethod(lambda cls, fields: cls(*fields))


# whether each value is an element index, an int in range(n) (1.0 and True are not)
_indices = lambda values, n: set(map(type, values)) <= {int} and set(values).issubset(range(n))
# whether m is a self-map (of an n-element carrier, unless n is None): a tuple of element indices
is_self_map = lambda m, n=None: (isinstance(m, UnaryMap) and isinstance(m.images, tuple)
                                 and n in (None, len(m)) and _indices(m.images, len(m)))
# whether value is one token of the document format, which serialize_algebra can write back
_token = lambda value: isinstance(value, str) and value.split() == [value] and "#" not in value


def _listed(value, what: str) -> tuple:
    """value read once into a tuple; PreconditionUnmet saying what needs it, unless iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise PreconditionUnmet(f"{what}, got {value!r}") from None


class FiniteAlgebra:
    """An immutable record whose fields are ordinary instance attributes,
    read in every inner loop.  Equality and hash ignore `unary`.  What is
    computed of the algebra is kept on it (`kept`); a `_replace` copy
    starts without any of it.  Element names, tables and their rows are
    tuples, as `parse_algebra` reads them back (a list would not be equal)."""

    _fields = ("name", "element_names", "one", "arrow", "squig", "zero", "unary")

    def __init__(self, name: str, element_names: tuple[str, ...], one: int, arrow: Table,
                 squig: Table, zero: int | None = None, unary: dict[str, UnaryMap] | None = None):
        values = (name, element_names, one, arrow, squig, zero, {} if unary is None else unary)
        for key, value in zip(self._fields, values):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_store", {})
        if not isinstance(element_names, tuple):
            raise PreconditionUnmet(f"element names must be a tuple, got {element_names!r}")
        n = self.size
        if n == 0:
            raise PreconditionUnmet("empty carrier")
        if not hasattr(self.unary, "items"):
            raise PreconditionUnmet(f"unary maps must be given by name in a dict, got {unary!r}")
        bad = [v for v in (name, *element_names, *self.unary) if not _token(v)]
        if bad:     # before the element names are hashed
            raise PreconditionUnmet(f"names must be non-empty strings without whitespace or '#', "
                                    f"got {bad[0]!r}")
        if len(set(element_names)) != n:
            raise PreconditionUnmet("duplicate element names")
        for tbl, label in ((arrow, "arrow"), (squig, "squig")):
            if not (isinstance(tbl, tuple) and len(tbl) == n
                    and all(isinstance(r, tuple) and len(r) == n for r in tbl)):
                raise PreconditionUnmet(f"{label} table is not a {n}x{n} tuple of tuples")
            if not _indices(tuple(chain.from_iterable(tbl)), n):
                raise PreconditionUnmet(f"{label} table entry out of range")
        if not _indices((one,), n):
            raise PreconditionUnmet("constant 1 out of range")
        if zero is not None and not _indices((zero,), n):
            raise PreconditionUnmet("constant 0 out of range")
        for opname, m in self.unary.items():
            if not is_self_map(m, n):
                raise PreconditionUnmet(f"unary map {opname!r} is not a self-map")

    @property
    def size(self) -> int:
        return len(self.element_names)

    def _key(self) -> tuple:
        return (self.name, self.element_names, self.one, self.arrow, self.squig, self.zero)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"FiniteAlgebra({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"

    def _replace(self, **changes) -> "FiniteAlgebra":
        """A validated copy with the given fields changed, as on the tuple records."""
        return FiniteAlgebra(**{**{k: getattr(self, k) for k in self._fields}, **changes})

    def kept(self, key, compute):
        """compute(self), kept under key by the first call; what raises is not kept."""
        if key not in self._store:
            self._store[key] = compute(self)
        return self._store[key]

    # -- convenience accessors ------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        """x <= y iff x -> y = 1 (and, on well-formed algebras, iff x ~> y = 1)."""
        return self.arrow[x][y] == self.one

    def index(self, token: str) -> int:
        try:
            return self.element_names.index(token)
        except ValueError:
            raise PreconditionUnmet(f"unknown element {token!r}") from None

    def elements(self) -> range:
        return range(self.size)

    def with_unary(self, **maps: UnaryMap) -> "FiniteAlgebra":
        return self._replace(unary={**self.unary, **maps})


# the key under which a model built from the class library keeps its structure line
SHIPPED = "shipped"
_SHIPPED_FIELDS = ("mop", "ds", "congruences")


def shipped(alg: FiniteAlgebra, field: str) -> list[str] | None:
    """The items of one field, "mop", "ds" or "congruences", of the line of
    classes/<n>.structures kept on alg under SHIPPED (`laws.search_counterexample`
    keeps it on each model it builds from the library), or None on any other
    algebra, a `_replace` copy included.  A line holds the three fields in that
    order, joined by ";", each a list of items joined by ","; the enumerator of
    the field decodes its items."""
    line = alg._store.get(SHIPPED)
    return None if line is None else line.split(";")[_SHIPPED_FIELDS.index(field)].split(",")


def dual(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The dual algebra A^op: -> and ~> swapped; names, 1, zero and unary maps kept."""
    return alg._replace(arrow=alg.squig, squig=alg.arrow)


def _tokenize(text: str):
    """Yield (lineno, tokens) for every non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse an algebra document.  See `serialize_algebra` for the format."""
    lines = list(_tokenize(text))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(last, "unexpected end of document")
        item = lines[pos]
        pos += 1
        return item

    lineno, toks = take()
    if toks[0] != "algebra" or len(toks) != 2:
        raise ParseError(lineno, "expected 'algebra <name>'")
    name = toks[1]

    lineno, toks = take()
    if toks[0] != "elements" or len(toks) < 2:
        raise ParseError(lineno, "expected 'elements <tok1> ... <tokn>'")
    element_names = tuple(toks[1:])
    if len(set(element_names)) != len(element_names):
        raise ParseError(lineno, "duplicate element names")
    n = len(element_names)
    idx = {tok: i for i, tok in enumerate(element_names)}

    def element(tok: str, at: int) -> int:
        if tok not in idx:
            raise ParseError(at, f"undeclared element {tok!r}")
        return idx[tok]

    lineno, toks = take()
    if toks[0] != "one" or len(toks) != 2:
        raise ParseError(lineno, "expected 'one <tok>'")
    one = element(toks[1], lineno)

    zero = None
    tables: dict[str, Table] = {}
    unary: dict[str, UnaryMap] = {}

    def read_rows(count: int, section: str) -> Table:
        rows = []
        for _ in range(count):
            at, row = take()
            if len(row) != n:
                raise ParseError(at, f"{section} row has {len(row)} entries, expected {n}")
            rows.append(tuple(element(t, at) for t in row))
        return tuple(rows)

    while True:
        lineno, toks = take()
        head = toks[0]
        if head == "end":
            break
        elif head == "zero":
            if len(toks) != 2:
                raise ParseError(lineno, "expected 'zero <tok>'")
            if zero is not None:
                raise ParseError(lineno, "duplicate 'zero' section")
            zero = element(toks[1], lineno)
        elif head in ("arrow", "squig"):
            if head in tables:
                raise ParseError(lineno, f"duplicate {head!r} section")
            tables[head] = read_rows(n, head)
        elif head == "unary":
            if len(toks) != 2:
                raise ParseError(lineno, "expected 'unary <opname>'")
            opname = toks[1]
            if opname in unary:
                raise ParseError(lineno, f"duplicate unary map {opname!r}")
            unary[opname] = UnaryMap(read_rows(1, "unary")[0])
        else:
            raise ParseError(lineno, f"unknown section {head!r}")

    for head in ("arrow", "squig"):
        if head not in tables:
            raise ParseError(lineno, f"missing {head!r} section")
    if pos != len(lines):
        raise ParseError(lines[pos][0], "content after 'end'")

    return FiniteAlgebra(name, element_names, one, tables["arrow"], tables["squig"], zero, unary)


def serialize_algebra(alg: FiniteAlgebra) -> str:
    """Emit the canonical document; parse(serialize(a)) == a bit-exactly."""
    names = alg.element_names
    out = [f"algebra {alg.name}"]
    out.append("elements " + " ".join(names))
    out.append(f"one {names[alg.one]}")
    if alg.zero is not None:
        out.append(f"zero {names[alg.zero]}")
    for label, tbl in (("arrow", alg.arrow), ("squig", alg.squig)):
        out.append(label)
        for row in tbl:
            out.append(" ".join(names[v] for v in row))
    for opname in alg.unary:
        out.append(f"unary {opname}")
        out.append(" ".join(names[v] for v in alg.unary[opname].images))
    out.append("end")
    return "\n".join(out) + "\n"


def load_algebra(path) -> FiniteAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())

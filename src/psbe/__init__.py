"""Finite-model workbench for pseudo BE-algebras.

Without a bytecode cache a process compiles each module it loads, so only `algebra` and
`classify` load with the package; `quantifiers`, `deduction` and `laws` sit in `sys.modules`
through `importlib.util.LazyLoader` and run on the first read of an attribute, which `laws` and
`deduction` make of `quantifiers` only for a pair (`catalog()` runs `laws` alone, `psbe check`
none, `mop` `quantifiers`, `ds`, `gen` and `quotient` `deduction` and with `--pair` `quantifiers`,
`search` `laws` and for a pair law `quantifiers`).  Names re-exported from them are looked up
by `__getattr__` on each read, never stored here."""

import importlib.util
import sys

__version__ = "0.1.0"

from .algebra import FiniteAlgebra, ParseError, PreconditionUnmet, UnaryMap, \
    load_algebra, parse_algebra, serialize_algebra
from .classify import ClassificationReport, Verdict, check_pseudo_be, \
    check_pseudo_bck, classify

_OWNER = {name: module for module, names in (
    ("quantifiers", "MonadicPair build_from_sigma build_from_tau check_monadic compose_pairs "
                    "enumerate_mop fixed_set"),
    ("deduction", "Congruence DeductiveSystem correspondence_report enumerate_congruences "
                  "enumerate_ds generated_ds quotient theta_from_ds"),
    ("laws", "SearchSpec catalog search_counterexample verify_suite")) for name in names.split()}
for _name in ("quantifiers", "deduction", "laws"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

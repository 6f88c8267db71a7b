"""Finite-model workbench for pseudo BE-algebras."""

__version__ = "0.1.0"

from .algebra import FiniteAlgebra, ParseError, PreconditionUnmet, UnaryMap, \
    load_algebra, parse_algebra, serialize_algebra
from .classify import ClassificationReport, Verdict, check_pseudo_be, \
    check_pseudo_bck, classify
from .quantifiers import MonadicPair, build_from_sigma, build_from_tau, \
    check_monadic, compose_pairs, enumerate_mop, fixed_set
from .deduction import Congruence, DeductiveSystem, correspondence_report, \
    enumerate_congruences, enumerate_ds, generated_ds, quotient, theta_from_ds
from .laws import SearchSpec, catalog, search_counterexample, verify_suite

"""Span and count recording around psbe's public functions.

The tracer rebinds each traced function at every module attribute that
holds it (``classify`` is imported by name into ``laws``, ``quantifiers``,
``deduction`` and ``cli``; ``laws`` reaches ``deduction`` through the
module), so calls made inside ``verify_suite`` or ``search_counterexample``
are attributed too.  Nothing under ``src/psbe`` is edited.

A span is ``[name, start_ns, end_ns, parent, job, tag]``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run
ends.  Very hot leaf functions (``check_monadic``, ``is_compatible``) are
counted, not spanned, so that the tracer does not dominate their cost.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

NAME, START, END, PARENT, JOB, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def spanned(self, name, fn, on_result=None, tag=None):
        """Wrap fn so that each enabled call records a span.

        on_result(counts, result) adds counts taken from the return value;
        tag(args) labels the span (the law family for evaluate_law)."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1,
                   self.job, tag(args) if tag else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Wrap fn so that each enabled call is counted, without a span."""
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, modules, wrappers):
        """wrappers maps each original function to its wrapper; every
        attribute of every module that is bound to an original is
        rebound to the wrapper."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                for original, wrapper in wrappers.items():
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- transport between processes -------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, doc: dict):
        """Append the spans and counts of a traced child process; its
        spans are attributed to the current job."""
        base = len(self.spans)
        for s in doc["spans"]:
            parent = s[PARENT] + base if s[PARENT] >= 0 else -1
            self.spans.append([s[NAME], s[START], s[END], parent, self.job,
                               s[TAG]])
        self.counts.update(doc["counts"])


def _add_len(key):
    def hook(counts, result):
        counts[key] += len(result)
    return hook


def _add_instances(counts, verdict):
    counts["laws.instances"] += verdict.instances


def _add_candidates(counts, result):
    counts["laws.search.candidates"] += result.visited


def _law_family(args):
    return args[0].id.split(".")[0]


def install_psbe(tracer: Tracer):
    """Trace psbe's public functions at every binding in the package.

    Modules are taken from sys.modules: the package attribute
    ``psbe.classify`` is the function, not the module."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "psbe" or name.startswith("psbe.")}
    algebra, classify, deduction, laws, quantifiers = (
        mods["psbe." + m] for m in ("algebra", "classify", "deduction",
                                    "laws", "quantifiers"))
    spanned = [
        (algebra.parse_algebra, "algebra.parse", None, None),
        (classify.classify, "classify", None, None),
        (classify.check_pseudo_be, "classify.check_pseudo_be", None, None),
        (classify.check_pseudo_bck, "classify.check_pseudo_bck", None, None),
        (quantifiers.enumerate_mop, "quantifiers.enumerate_mop",
         _add_len("quantifiers.mop.pairs"), None),
        (quantifiers.is_monadic, "quantifiers.is_monadic", None, None),
        (deduction.enumerate_ds, "deduction.enumerate_ds", None, None),
        (deduction.monadic_ds, "deduction.monadic_ds", None, None),
        (deduction.enumerate_congruences, "deduction.enumerate_congruences",
         _add_len("deduction.congruences"), None),
        (deduction.generated_ds, "deduction.generated_ds", None, None),
        (deduction.theta_from_ds, "deduction.theta_from_ds", None, None),
        (deduction.quotient, "deduction.quotient", None, None),
        (laws.catalog, "laws.catalog", None, None),
        (laws.verify_suite, "laws.verify_suite", None, None),
        (laws.evaluate_law, "laws.evaluate_law", _add_instances, _law_family),
        (laws.search_counterexample, "laws.search", _add_candidates, None),
    ]
    wrappers = {fn: tracer.spanned(name, fn, hook, tag)
                for fn, name, hook, tag in spanned}
    wrappers[quantifiers.check_monadic] = tracer.counted(
        "quantifiers.check_monadic.calls", quantifiers.check_monadic)
    wrappers[deduction.is_compatible] = tracer.counted(
        "deduction.partitions_scanned", deduction.is_compatible)
    tracer.install(mods.values(), wrappers)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children (overlaps counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False

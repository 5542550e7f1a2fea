"""Layer tracing from outside the package.

A :class:`Tracer` wraps the public functions of each coxorbits module in
timing shims.  Every call records a span (name, start, end, parent) in flat
arrays; self time is a span's duration minus the durations of its direct
children.  Wrappers replace the function at every import site: each
``coxorbits.*`` module attribute that is the original function object is
swapped, so ``hurwitz.full_reflection_length`` and
``campaigns.build_group`` are timed as well as the defining module's own
name.  ``uninstall`` puts every original object back.

``scalars`` is deliberately not wrapped: per-operation spans would cost more
than the arithmetic they time.  Its cost shows inside the ``linalg`` and
``groups`` spans.
"""
from __future__ import annotations

import importlib
import sys
import weakref
from array import array
from collections import defaultdict
from functools import cached_property
from time import perf_counter

# (module, attribute) pairs wrapped as plain callables.
FUNCTIONS = [
    ("linalg", "rank"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_square"),
    ("groups", "build_group"),
    ("absorder", "reflection_length"),
    ("absorder", "absolute_leq"),
    ("absorder", "below_some_quasi_coxeter"),
    ("absorder", "classify_element"),
    ("absorder", "full_reflection_length"),
    ("absorder", "parabolic_closure"),
    ("absorder", "reflections_fixing"),
    ("absorder", "length_table"),
    ("absorder", "quasi_coxeter_elements"),
    ("hurwitz", "enumerate_factorizations"),
    ("hurwitz", "enumerate_full_factorizations"),
    ("hurwitz", "partition_into_orbits"),
    ("hurwitz", "orbit_invariant"),
    ("hurwitz", "hurwitz_transitive_on_reduced"),
    ("hurwitz", "verify_conjecture"),
    ("gensets", "analyze_genset"),
    ("campaigns", "run_campaign"),
]
# Generator functions: each ``next`` is a span, so the consumer's work
# between items is not charged to the generator.
GENERATORS = [("absorder", "reduced_factorizations")]
# CoxeterGroup methods, and lazily computed table properties.
METHODS = ["elements", "closure", "generates_whole"]
PROPERTIES = ["refl_conj_table", "refl_mult_table"]

# The per-layer metrics a traced run reports, in output order.
LAYER_METRICS = [
    *(f"linalg.{f}.{s}" for f in ("rank", "kernel_basis", "solve_square")
      for s in ("calls", "self_s")),
    "groups.build_group.calls", "groups.build_group.self_s",
    "groups.build_group.roots",
    "groups.refl_conj_table.self_s",
    "groups.elements.self_s", "groups.elements.count",
    "groups.refl_mult_table.self_s",
    "groups.closure.calls", "groups.closure.self_s", "groups.closure.elements",
    "groups.generates_whole.calls", "groups.generates_whole.self_s",
    "groups.generates_whole.true_ratio",
    *(f"absorder.{f}.{s}" for f in (
        "reflection_length", "absolute_leq", "below_some_quasi_coxeter",
        "classify_element", "full_reflection_length", "parabolic_closure",
        "reflections_fixing", "reduced_factorizations")
      for s in ("calls", "self_s")),
    "absorder.length_table.self_s", "absorder.quasi_coxeter_elements.self_s",
    "hurwitz.enumerate_factorizations.calls",
    "hurwitz.enumerate_factorizations.self_s",
    "hurwitz.enumerate_factorizations.tuples",
    "hurwitz.enumerate_full_factorizations.calls",
    "hurwitz.enumerate_full_factorizations.self_s",
    "hurwitz.enumerate_full_factorizations.kept_ratio",
    "hurwitz.partition_into_orbits.calls",
    "hurwitz.partition_into_orbits.self_s",
    "hurwitz.partition_into_orbits.orbits",
    *(f"hurwitz.{f}.{s}" for f in (
        "orbit_invariant", "hurwitz_transitive_on_reduced", "verify_conjecture")
      for s in ("calls", "self_s")),
    "gensets.analyze_genset.calls", "gensets.analyze_genset.self_s",
    "campaigns.run_campaign.calls", "campaigns.run_campaign.self_s",
    "campaigns.items", "campaigns.report_bytes",
]

LAYER_UNITS = {
    "self_s": "s", "true_ratio": "ratio", "kept_ratio": "ratio",
    "report_bytes": "bytes",
}


def metric_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def self_times(names, starts, ends, parents, excluded=None) -> dict[str, float]:
    """Total self time per span name.  A span's self time is its duration
    minus the durations of its direct children and minus its ``excluded``
    time (span index to seconds spent outside the package while it was the
    innermost open span); spans are properly nested because every call runs
    on one thread."""
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    for i, seconds in (excluded or {}).items():
        child[i] += seconds
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += ends[i] - starts[i] - child[i]
    return dict(out)


class _TimedIterator:
    """Wraps a generator so that each ``next`` is one span."""

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        index = self._tracer._open(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer._close(index)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self._label: list[str] = []
        self._label_id: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.excluded: dict[int, float] = defaultdict(float)
        self._materialized = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._label_id.get(name)
        if nid is None:
            nid = self._label_id[name] = len(self._label)
            self._label.append(name)
        index = len(self.starts)
        self.names.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent outside the package, such as a speed
        probe, out of the self time of the innermost open span."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return _TimedIterator(self, name, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------

    def _after(self, name: str):
        c = self.counts

        def roots(w, *a, **k):
            c[name + ".roots"] += sum(
                len(f.roots) for f in w.factors if f.kind == "vector"
            )

        def elements(result, w, *a, **k):
            if w not in self._materialized:
                self._materialized.add(w)
                c[name + ".count"] += len(result)

        def closure(sub, *a, **k):
            c[name + ".elements"] += sub.order

        def generates(result, *a, **k):
            c[name + ".true"] += bool(result)

        def tuples(result, *a, **k):
            c[name + ".tuples"] += len(result)

        def orbits(result, *a, **k):
            c[name + ".orbits"] += len(result)

        def report(result, *a, **k):
            c["campaigns.items"] += result.checked
            c["campaigns.report_bytes"] += len(result.text.encode())

        return {
            "groups.build_group": roots,
            "groups.elements": elements,
            "groups.closure": closure,
            "groups.generates_whole": generates,
            "hurwitz.enumerate_factorizations": tuples,
            "hurwitz.partition_into_orbits": orbits,
            "campaigns.run_campaign": report,
        }.get(name)

    def _full_factorizations(self, name: str, fn):
        """``enumerate_full_factorizations`` with its kept share: tuples kept
        over tuples its inner enumeration produced."""
        enumerated = "hurwitz.enumerate_factorizations.tuples"

        def counted(*args, **kwargs):
            before = self.counts[enumerated]
            result = fn(*args, **kwargs)
            self.counts[name + ".enumerated"] += self.counts[enumerated] - before
            self.counts[name + ".kept"] += len(result)
            return result

        return self._timed(name, counted)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function at every ``coxorbits`` import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        groups = importlib.import_module("coxorbits.groups")
        for module in ("linalg", "absorder", "hurwitz", "gensets", "campaigns"):
            importlib.import_module(f"coxorbits.{module}")
        package = [
            m for n, m in sorted(sys.modules.items())
            if n == "coxorbits" or n.startswith("coxorbits.")
        ]
        for kind, table in (("function", FUNCTIONS), ("generator", GENERATORS)):
            for module, attr in table:
                name = f"{module}.{attr}"
                original = getattr(sys.modules[f"coxorbits.{module}"], attr)
                if kind == "generator":
                    wrapped = self._timed_generator(name, original)
                elif attr == "enumerate_full_factorizations":
                    wrapped = self._full_factorizations(name, original)
                else:
                    wrapped = self._timed(name, original, self._after(name))
                for site in package:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._patch(site, key, wrapped)
        cls = groups.CoxeterGroup
        for attr in METHODS:
            name = f"groups.{attr}"
            self._patch(cls, attr, self._timed(name, getattr(cls, attr), self._after(name)))
        for attr in PROPERTIES:
            prop = cached_property(self._timed(f"groups.{attr}", cls.__dict__[attr].func))
            prop.__set_name__(cls, attr)
            self._patch(cls, attr, prop)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def self_times(self) -> dict[str, float]:
        labelled = [self._label[i] for i in self.names]
        return self_times(
            labelled, self.starts, self.ends, self.parents, self.excluded
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every name in :data:`LAYER_METRICS`, zero where nothing ran."""
        selfs = self.self_times()
        c = self.counts
        out = {}
        for metric in LAYER_METRICS:
            base, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = selfs.get(base, 0.0)
            elif stat == "calls":
                out[metric] = self.calls.get(base, 0)
            elif stat == "true_ratio":
                calls = self.calls.get(base, 0)
                out[metric] = c[base + ".true"] / calls if calls else 0.0
            elif stat == "kept_ratio":
                seen = c[base + ".enumerated"]
                out[metric] = c[base + ".kept"] / seen if seen else 0.0
            else:
                out[metric] = c[metric]
        return out

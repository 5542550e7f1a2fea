"""Verification campaigns: sweep a whole group and report per-item verdicts.

A campaign pairs one group with one named check (length formulas, orbit
bijections, generating-set classification, and so on) and emits a JSON-lines
report: a versioned header, a timestamp, one record per item in canonical
order, and a summary footer.  Reports are deterministic for a fixed config:
items are enumerated up front and run one after another in that order.
Per-item budget caps mark items skipped instead of aborting the run.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import partial
from math import gcd, inf
from typing import Callable

from . import absorder, gensets, hurwitz
from .budget import Budget
from .errors import CapExceeded, TypeMismatch
from .groups import (
    CoxeterGroup, DihedralFactor, GroupElement, breadth_first, build_group
)

FORMAT_VERSION = 1

#: (item key fields, worker returning (passed, payload))
Item = tuple[dict, Callable[[Budget | None], tuple[bool, dict]]]


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign invocation: the group, the check, and the knobs."""

    group: str
    campaign: str
    offsets: tuple[int, ...] = (0, 2)
    max_elements: int | None = None
    max_tuples: int | None = None
    max_mem_mb: float | None = None
    timeout_s: float | None = None

    def __post_init__(self):
        if self.campaign not in CAMPAIGN_NAMES:
            raise ValueError(
                f"unknown campaign {self.campaign!r}; choose from {CAMPAIGN_NAMES}"
            )
        for cap in ("max_elements", "max_tuples", "max_mem_mb", "timeout_s"):
            value = getattr(self, cap)
            # false for nan and inf; unlike math.isfinite, safe on huge ints
            if value is not None and not 0 < value < inf:
                raise ValueError(f"{cap} must be finite and positive, got {value}")
        # a factorization's excess over the reflection length is even, so
        # an odd offset has no factorizations and its items would pass empty;
        # a repeated offset repeats its records, and no offset passes no items
        if not self.offsets or len(set(self.offsets)) < len(self.offsets):
            raise ValueError(f"offsets must be nonempty and distinct, got {self.offsets}")
        for offset in self.offsets:
            if offset < 0 or offset % 2:
                raise ValueError(f"offsets must be even and nonnegative, got {offset}")

    def item_budget(self) -> Budget | None:
        """A fresh budget per item, or None when every cap is unlimited.

        ``max_tuples`` caps both the enumerated tuples and the
        factorizations that orbits cover, each counted on its own (see
        :class:`Budget`).
        """
        caps = (self.max_tuples, self.max_mem_mb, self.timeout_s)
        if all(x is None for x in caps):
            return None
        return Budget(
            max_tuples=self.max_tuples,
            max_mem_mb=self.max_mem_mb,
            timeout_s=self.timeout_s,
        )

    def config_record(self) -> dict:
        """The config echoed into the report header: every field, so a
        stored report names everything needed to reproduce it."""
        return {**asdict(self), "offsets": list(self.offsets)}


@dataclass(frozen=True)
class Report:
    """A finished campaign: the emitted lines plus the tallies."""

    lines: tuple[str, ...]
    checked: int
    passed: int
    failed: int
    skipped: int

    @property
    def exit_status(self) -> int:
        return 0 if self.failed == 0 else 1

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.text)


def _encode(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def comparable_lines(text: str) -> list[str]:
    """Report lines that participate in golden comparison: everything except
    the timestamp record."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            out.append(line)
            continue
        if isinstance(record, dict) and "timestamp" in record:
            continue
        out.append(line)
    return out


def golden_diff(report_text: str, golden_text: str) -> str | None:
    """None when the two reports agree outside their timestamps, otherwise a
    short description of the first difference."""
    got = comparable_lines(report_text)
    want = comparable_lines(golden_text)
    if got == want:
        return None
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {i + 1} differs:\n  got:  {a}\n  want: {b}"
    return f"line count differs: got {len(got)}, want {len(want)}"


# -- shared helpers --------------------------------------------------------


def _bfs_lengths(w: CoxeterGroup) -> list[int]:
    """Cayley-graph distances from the identity over the reflection
    generators, independent of the rank-based length formula."""
    table = w.refl_mult_table
    dist = [-1] * len(w.elements())
    start = w.element_ids()[w.identity.comps]
    layers = breadth_first(set(), [start], lambda layer: (
        row[e] for e in layer for row in table
    ))
    for d, layer in enumerate(layers):
        for e in layer:
            dist[e] = d
    return dist


def _charge(budget: Budget | None, cap: str, amount: int = 1) -> None:
    if budget is not None:
        budget.charge(cap, amount)


def _warm_tables(w: CoxeterGroup) -> None:
    """Build the shared lazy tables before the first item, so per-item time
    is per-item work."""
    w.refl_conj_table
    w.reflection_serializations
    w.simple_reflection_ids
    absorder.length_table(w)


# -- campaign item builders ------------------------------------------------


def _items_carter(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    ids = w.element_ids()
    table = w.refl_mult_table
    dist = _bfs_lengths(w)
    n_refl = w.num_reflections

    def check(g, budget):
        _charge(budget, "max_states", n_refl)
        length = absorder.reflection_length(g)
        e = ids[g.comps]
        bfs = dist[e]
        below_by_length = {
            t for t in range(n_refl) if dist[table[t][e]] == dist[e] - 1
        }
        fixing = absorder.reflections_fixing(g)
        # the parabolic closure, closed here on the reflections just found
        closure = w.closure([w.reflection(t) for t in fixing])
        ok = (
            length == bfs
            and below_by_length == set(fixing) == set(closure.reflection_ids)
        )
        return ok, {
            "length": length,
            "bfs_length": bfs,
            "reflections_below": len(below_by_length),
        }

    return _items_per_element(w, check)


def _items_pqc(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    _warm_tables(w)
    absorder.quasi_coxeter_elements(w)
    n = w.rank

    def check(g, budget):
        cls = absorder.classify_element(g, budget=budget)
        pqc = cls.is_parabolic_quasi_coxeter
        transitive = hurwitz.hurwitz_transitive_on_reduced(g, budget=budget)
        below = absorder.below_some_quasi_coxeter(g)
        full = absorder.full_reflection_length(g, budget=budget)
        by_full = full == 2 * n - cls.length
        ok = pqc == transitive == below == by_full
        return ok, {
            "length": cls.length,
            "pqc": pqc,
            "hurwitz_transitive_reduced": transitive,
            "below_quasi_coxeter": below,
            "full_length": full,
        }

    return _items_per_element(w, check)


def _orbit_record(length: int, orbit: hurwitz.HurwitzOrbit) -> dict:
    return {
        "length": length,
        "orbit_size": orbit.size,
        "subgroup_order": orbit.invariant.subgroup_order,
        "subgroup_key": orbit.invariant.subgroup_key,
        "class_multiset": list(orbit.invariant.class_multiset),
        "representative": list(orbit.representative.factors),
    }


def _items_per_element(
    w: CoxeterGroup,
    check: Callable[[GroupElement, Budget | None], tuple[bool, dict]],
) -> list[Item]:
    """One item per element, in canonical element order, run as
    ``check(g, budget)``."""
    return [
        ({"item": index, "element": g.serialize()}, partial(check, g))
        for index, g in enumerate(w.elements())
    ]


def _items_per_pqc_length(
    w: CoxeterGroup,
    cfg: CampaignConfig,
    check: Callable[[GroupElement, int, Budget | None], tuple[bool, dict]],
) -> list[Item]:
    """One item per (parabolic quasi-Coxeter element, offset), in canonical
    element order, run as ``check(g, l(g) + offset, budget)``."""
    _warm_tables(w)
    items = []
    for g in w.elements():
        cls = absorder.classify_element(g)
        if not cls.is_parabolic_quasi_coxeter:
            continue
        for offset in cfg.offsets:
            length = cls.length + offset
            key = {"item": len(items), "element": g.serialize(), "length": length}
            items.append((key, partial(check, g, length)))
    return items


def _items_conjecture(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    def work(g, length, budget):
        report = hurwitz.verify_conjecture(g, length, budget=budget)
        return report.bijection, {
            "num_factorizations": report.num_factorizations,
            "num_orbits": len(report.orbits),
            "orbits": [_orbit_record(length, o) for o in report.orbits],
        }

    return _items_per_pqc_length(w, cfg, work)


def _items_min_full(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    _warm_tables(w)

    def check(g, budget):
        full = absorder.full_reflection_length(g, budget=budget)
        orbits = hurwitz.partition_into_orbits(
            g, full, budget=budget, full_only=True
        )
        total = sum(o.size for o in orbits)
        # pass when distinct orbits carry distinct invariants: the class
        # multiset can differ between orbits (-1 in I2(6) has two)
        invariants = {o.invariant for o in orbits}
        return len(invariants) == len(orbits), {
            "full_length": full,
            "num_orbits": len(orbits),
            "num_factorizations": total,
        }

    return _items_per_element(w, check)


def _items_lr(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    def work(g, length, budget):
        orbits = hurwitz.partition_into_orbits(g, length, budget=budget)
        with_witness = sum(1 for o in orbits if o.lr_witness is not None)
        total = sum(o.size for o in orbits)
        return with_witness == len(orbits), {
            "num_factorizations": total,
            "num_orbits": len(orbits),
            "orbits_with_witness": with_witness,
        }

    return _items_per_pqc_length(w, cfg, work)


def _prime_powers(m: int) -> list[int]:
    """The prime-power components of ``m``, by increasing prime."""
    powers = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            pk = 1
            while m % d == 0:
                pk *= d
                m //= d
            powers.append(pk)
        d += 1
    if m > 1:
        powers.append(m)
    return powers


def _min_min_expected(w: CoxeterGroup) -> bool:
    """The classification's prediction: false exactly when some dihedral
    factor has three or more distinct prime factors."""
    return not any(
        isinstance(f, DihedralFactor) and len(_prime_powers(f.m)) >= 3
        for f in w.factors
    )


def _items_min_min(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    def work(budget):
        report = gensets.check_min_equals_min(w, budget=budget)
        expected = _min_min_expected(w)
        return report.holds == expected, {
            "holds": report.holds,
            "expected": expected,
            "mode": report.mode,
            "counterexamples": [list(c) for c in report.counterexamples],
            "orbits_checked": report.orbits_checked,
        }

    return [({"item": 0, "group": w.name}, work)]


def _coprime_splits(m: int) -> list[tuple[int, int, int]]:
    """All ways to write m as a product of three pairwise-coprime parts > 1,
    as ascending triples: the prime-power components distributed over three
    nonempty blocks."""
    powers = _prime_powers(m)
    splits = set()
    for assignment in itertools.product(range(3), repeat=len(powers)):
        if set(assignment) != {0, 1, 2}:
            continue
        parts = [1, 1, 1]
        for pk, block in zip(powers, assignment):
            parts[block] *= pk
        splits.add(tuple(sorted(parts)))
    return sorted(splits)


def _items_crt(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    if len(w.factors) != 1 or not isinstance(w.factors[0], DihedralFactor):
        raise TypeMismatch(
            f"the dihedral-crt campaign needs an I2(m) group, not {w.name}"
        )
    m = w.factors[0].m
    items = []
    for index, (p, q, r) in enumerate(_coprime_splits(m)):

        def work(budget, p=p, q=q, r=r):
            _charge(budget, "max_tuples")
            triple = gensets.crt_construct(m, p, q, r)
            profile = tuple(gcd(a, m) for a in triple.values)
            lines = gensets.realize_triple(w, triple)
            refl = [w.reflection(t) for t in lines]
            whole = w.closure(refl).order == 2 * m
            pair_orders = []
            pairs_ok = True
            for (i, j), part in zip(((0, 1), (0, 2), (1, 2)), (p, q, r)):
                order = w.closure([refl[i], refl[j]]).order
                pair_orders.append(order)
                pairs_ok = pairs_ok and order == 2 * m // part
            ok = (
                profile == (p, q, r)
                and gensets.dihedral_generates(triple)
                and whole
                and pairs_ok
                and all(
                    not gensets.dihedral_pair_generates(triple, pr)
                    for pr in ((1, 2), (1, 3), (2, 3))
                )
            )
            return ok, {
                "triple": list(triple.values),
                "gcds": list(profile),
                "lines": list(lines),
                "pair_orders": pair_orders,
            }

        items.append(({"item": index, "split": [p, q, r]}, work))
    return items


def _items_class_multiset(w: CoxeterGroup, cfg: CampaignConfig) -> list[Item]:
    def work(budget):
        report = gensets.genset_class_multiset_invariance(w, budget=budget)
        return report.holds, {
            "holds": report.holds,
            "generating_orbits": report.generating_orbits,
            "num_multisets": len(report.multisets),
        }

    return [({"item": 0, "group": w.name}, work)]


_CAMPAIGNS = {
    "carter": _items_carter,
    "pqc-characterization": _items_pqc,
    "conjecture": _items_conjecture,
    "min-full-transitivity": _items_min_full,
    "lr-normal-form": _items_lr,
    "min-equals-min": _items_min_min,
    "dihedral-crt": _items_crt,
    "class-multiset": _items_class_multiset,
}
CAMPAIGN_NAMES = tuple(_CAMPAIGNS)


# -- the runner ------------------------------------------------------------


def run_campaign(cfg: CampaignConfig) -> Report:
    """Run one campaign and return its report.

    ``max_elements`` caps the group, not an item: a campaign that lists the
    whole group raises :class:`CapExceeded` before any item when the group
    is larger.  The other caps are per item.  Items run in enumeration order, each with a fresh budget; the
    deadline is checked once more after an item returns, so an item that
    never charges its budget still cannot overrun ``timeout_s``.
    """
    cap = cfg.max_elements
    w = build_group(cfg.group) if cap is None else build_group(cfg.group, cap=cap)
    items = _CAMPAIGNS[cfg.campaign](w, cfg)

    def run_item(item: Item) -> dict:
        key, work = item
        budget = cfg.item_budget()
        try:
            passed, payload = work(budget)
            _charge(budget, "max_tuples", 0)
        except CapExceeded as e:
            return {**key, "status": "skip", "cap": e.cap}
        return {**key, "status": "pass" if passed else "fail", **payload}

    records = [run_item(item) for item in items]

    passed = sum(1 for r in records if r["status"] == "pass")
    failed = sum(1 for r in records if r["status"] == "fail")
    skipped = sum(1 for r in records if r["status"] == "skip")
    lines = [
        _encode({"format": FORMAT_VERSION, "config": cfg.config_record()}),
        _encode(
            {
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                )
            }
        ),
        *(_encode(r) for r in records),
        _encode(
            {
                "summary": {
                    "checked": len(records),
                    "passed": passed,
                    "failed": failed,
                    "skipped": skipped,
                }
            }
        ),
    ]
    return Report(
        lines=tuple(lines),
        checked=len(records),
        passed=passed,
        failed=failed,
        skipped=skipped,
    )

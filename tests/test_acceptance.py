"""End-to-end acceptance checks.

Ten headline behaviors, one test each, verified exhaustively at desk scale.
Each test prints a single ``[PASS]``/``[FAIL]`` line with its scope and
elapsed time (visible under ``pytest -s``); the assertions make pytest agree
with the printed verdict.
"""
import time

import pytest

from coxorbits.campaigns import (
    CampaignConfig,
    comparable_lines,
    run_campaign,
)
from coxorbits.gensets import (
    analyze_genset,
    check_min_equals_min,
    crt_construct,
    dihedral_generates,
    dihedral_pair_generates,
    extract_minimum_subset,
    genset_class_multiset_invariance,
    graph_generation_test,
    realize_triple,
    reflections_of_graph,
    signed_graph_of,
)

from conftest import cached_group

import itertools

DIHEDRAL_SMALL = [f"I2({m})" for m in range(3, 13)]


def _finish(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({time.monotonic() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def _campaign(label: str, name: str, **kw):
    return run_campaign(CampaignConfig(group=label, campaign=name, **kw))


def _conjecture_offsets(label: str) -> tuple[int, ...]:
    return (0, 2, 4) if cached_group(label).rank == 2 else (0, 2)


CONJECTURE_SCOPE = ["A2", "A3", "B2"] + [
    f"I2({m})" for m in (3, 4, 5, 6, 8, 10, 12)
]


@pytest.fixture(scope="module")
def conjecture_reports():
    return {
        label: _campaign(
            label, "conjecture", offsets=_conjecture_offsets(label)
        )
        for label in CONJECTURE_SCOPE
    }


@pytest.fixture(scope="module")
def lr_reports():
    return {
        label: _campaign(
            label, "lr-normal-form", offsets=_conjecture_offsets(label)
        )
        for label in CONJECTURE_SCOPE
    }


def test_criterion_01_dihedral_triple_example():
    t0 = time.monotonic()
    w = cached_group("I2(30)")
    ids = (0, 2, 27)
    report = analyze_genset(w, ids)
    orders = [
        w.closure([w.reflection(a), w.reflection(b)]).order
        for a, b in itertools.combinations(ids, 2)
    ]
    ok = (
        report.generates
        and report.is_minimal
        and not report.contains_minimum
        and orders == [30, 20, 12]
    )
    _finish(1, ok, f"I2(30) lines {ids}: minimal non-minimum, pair orders {orders}", t0)


def test_criterion_02_carter_exhaustive():
    t0 = time.monotonic()
    labels = ["A3", "B3", "H3", "D4"] + DIHEDRAL_SMALL
    bad = []
    total = 0
    for label in labels:
        report = _campaign(label, "carter")
        total += report.checked
        if report.failed or report.skipped:
            bad.append(label)
    _finish(2, not bad, f"{total} elements over {len(labels)} groups, disagreements {bad or 0}", t0)


def test_criterion_03_pqc_characterization():
    t0 = time.monotonic()
    labels = ["A3", "B2", "B3", "H3", "D4"] + DIHEDRAL_SMALL
    bad = []
    total = 0
    for label in labels:
        report = _campaign(label, "pqc-characterization")
        total += report.checked
        if report.failed or report.skipped:
            bad.append(label)
    _finish(3, not bad, f"four-way agreement on {total} elements, disagreements {bad or 0}", t0)


def test_criterion_04_conjecture_bijection(conjecture_reports):
    t0 = time.monotonic()
    bad = [
        label
        for label, report in conjecture_reports.items()
        if report.failed or report.skipped
    ]
    total = sum(r.checked for r in conjecture_reports.values())
    _finish(4, not bad, f"orbit-invariant bijection on {total} (element, length) items, violations {bad or 0}", t0)


def test_criterion_05_lr_witnesses(lr_reports):
    t0 = time.monotonic()
    bad = [
        label
        for label, report in lr_reports.items()
        if report.failed or report.skipped
    ]
    total = sum(r.checked for r in lr_reports.values())
    _finish(5, not bad, f"left-normal-shape witness in every orbit, {total} items, missing {bad or 0}", t0)


def test_criterion_06_min_equals_min_classification():
    t0 = time.monotonic()
    should_hold = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3", "F4"]
    should_hold += [f"I2({m})" for m in range(3, 33) if m != 30]
    bad = []
    for label in should_hold:
        if not check_min_equals_min(cached_group(label)).holds:
            bad.append(label)
    thirty = check_min_equals_min(cached_group("I2(30)"))
    if thirty.holds or not thirty.counterexamples:
        bad.append("I2(30)")
    ok = not bad
    _finish(6, ok, f"{len(should_hold)} groups hold, I2(30) fails with witness {list(thirty.counterexamples[:1])}, errors {bad or 0}", t0)


def test_criterion_07_crt_construction():
    t0 = time.monotonic()
    bad = []
    for m, p, q, r in [
        (30, 2, 3, 5),
        (42, 2, 3, 7),
        (60, 4, 3, 5),
        (66, 2, 3, 11),
        (70, 2, 5, 7),
        (105, 3, 5, 7),
    ]:
        triple = crt_construct(m, p, q, r)
        w = cached_group(f"I2({m})")
        lines = realize_triple(w, triple)
        refl = [w.reflection(t) for t in lines]
        ok_m = (
            dihedral_generates(triple)
            and not any(
                dihedral_pair_generates(triple, pr)
                for pr in ((1, 2), (1, 3), (2, 3))
            )
            and w.closure(refl).order == 2 * m
            and all(
                w.closure([refl[i], refl[j]]).order < 2 * m
                for i, j in ((0, 1), (0, 2), (1, 2))
            )
        )
        if not ok_m:
            bad.append(m)
    _finish(7, not bad, f"six moduli, gcd profiles and closures agree, failures {bad or 0}", t0)


def test_criterion_08_graph_criteria_oracle():
    t0 = time.monotonic()
    scope = [
        ("A1", "A"), ("A2", "A"), ("A3", "A"), ("A4", "A"), ("A5", "A"),
        ("B2", "B"), ("B3", "B"), ("B4", "B"),
        ("D4", "D"),
    ]
    mismatches = 0
    extract_bad = 0
    subsets_checked = 0
    for label, family in scope:
        w = cached_group(label)
        n_refl = w.num_reflections
        for k in range(w.rank + 3):
            for ids in itertools.combinations(range(n_refl), k):
                graph = signed_graph_of(w, ids)
                predicted = graph_generation_test(graph, family)
                subsets_checked += 1
                if predicted != w.generates_whole(ids):
                    mismatches += 1
                elif predicted:
                    sub = extract_minimum_subset(graph, family)
                    if len(sub.edges) != w.rank or not graph_generation_test(
                        sub, family
                    ):
                        extract_bad += 1
    ok = mismatches == 0 and extract_bad == 0
    _finish(8, ok, f"{subsets_checked} subsets, criterion mismatches {mismatches}, bad extractions {extract_bad}", t0)


def test_criterion_09_class_multiset():
    t0 = time.monotonic()
    labels = ["A3", "B2", "B3", "D4", "F4"] + DIHEDRAL_SMALL
    bad = [
        label
        for label in labels
        if not genset_class_multiset_invariance(cached_group(label)).holds
    ]
    _finish(9, not bad, f"{len(labels)} groups, rank-size generating sets share one class multiset, failures {bad or 0}", t0)


def test_criterion_10_determinism_across_runs():
    t0 = time.monotonic()
    cases = [
        ("A2", "carter", {}),
        ("B2", "pqc-characterization", {}),
        ("B2", "conjecture", {"offsets": (0, 2, 4)}),
        ("I2(5)", "min-full-transitivity", {}),
        ("B2", "lr-normal-form", {"offsets": (0, 2, 4)}),
        ("I2(30)", "min-equals-min", {}),
        ("I2(30)", "dihedral-crt", {}),
        ("B3", "class-multiset", {}),
    ]
    unstable = []
    for label, name, kw in cases:
        first = _campaign(label, name, **kw)
        second = _campaign(label, name, **kw)
        if comparable_lines(first.text) != comparable_lines(second.text):
            unstable.append((label, name))
    _finish(10, not unstable, f"all 8 campaigns byte-identical across two runs, unstable {unstable or 0}", t0)

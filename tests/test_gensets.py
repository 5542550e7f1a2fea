"""Minimal-versus-minimum machinery: generic reports, dihedral gcd and CRT
arithmetic, signed-graph criteria, and the class-multiset sweep.

Every specialized criterion is cross-checked against exact subgroup closures
on groups small enough to sweep exhaustively.
"""
import itertools
from functools import lru_cache
from math import gcd

import pytest

from coxorbits.budget import Budget
from coxorbits.errors import (
    BadFactorization,
    CapExceeded,
    IndexOutOfRange,
    NotDistinct,
    NotGenerating,
    TypeMismatch,
)
from coxorbits.gensets import (
    DihedralTriple,
    SignedGraph,
    analyze_genset,
    check_min_equals_min,
    conjugacy_orbit_reps,
    crt_construct,
    dihedral_generates,
    dihedral_pair_generates,
    dihedral_pair_subgroup_order,
    dihedral_triple_of,
    extract_minimum_subset,
    genset_class_multiset_invariance,
    graph_generation_test,
    realize_triple,
    reflections_of_graph,
    signed_graph_of,
)

from conftest import cached_group


def closure_order(w, ids):
    return w.closure([w.reflection(t) for t in ids]).order


# -- analyze_genset --------------------------------------------------------


def test_simples_are_minimum():
    w = cached_group("A3")
    report = analyze_genset(w, w.simple_reflection_ids)
    assert report.generates
    assert report.is_minimal
    assert report.contains_minimum
    assert report.witness == tuple(sorted(w.simple_reflection_ids))


def test_all_reflections_not_minimal():
    w = cached_group("A3")
    report = analyze_genset(w, range(w.num_reflections))
    assert report.generates
    assert not report.is_minimal
    assert report.contains_minimum
    assert report.witness is not None
    assert len(report.witness) == 3
    assert w.generates_whole(report.witness)


def test_non_generating_subset_report():
    w = cached_group("A3")
    report = analyze_genset(w, w.simple_reflection_ids[:2])
    assert not report.generates
    assert not report.is_minimal
    assert not report.contains_minimum
    assert report.witness is None


def test_generates_flag_matches_closure_exhaustively():
    w = cached_group("B2")
    for k in range(5):
        for ids in itertools.combinations(range(4), k):
            report = analyze_genset(w, ids)
            assert report.generates == (closure_order(w, ids) == 8)
            if report.contains_minimum:
                assert report.generates


def test_analyze_witness_is_the_minimality_tests_subset():
    """Not minimal and no generating pair: the witness is the first
    generating one-out subset, which the minimality test already found,
    so no one-out subset is tested twice (13 tests before, 10 now)."""
    w = cached_group("I2(30)")
    budget = Budget()
    report = analyze_genset(w, [0, 2, 12, 27], budget=budget)
    assert (report.generates, report.is_minimal, report.contains_minimum) == (
        True, False, False
    )
    assert report.witness == (0, 2, 27)
    assert budget.spent == {"max_tuples": 10}


def test_analyze_budget():
    w = cached_group("A3")
    with pytest.raises(CapExceeded) as e:
        analyze_genset(w, range(6), budget=Budget(max_tuples=1))
    assert e.value.cap == "max_tuples"
    budget = Budget()
    analyze_genset(w, range(6), budget=budget)
    assert budget.spent == {"max_tuples": 2}


def closure_oracle(w):
    """The four answers of a ``GenSetReport`` from their definitions, with
    generation decided by element closures (memoized per subset): minimal
    means no proper subset generates, and the witness is the first
    generating rank-size subset in lexicographic order, else the first
    generating one-out subset, dropping the least reflection first."""
    generates = lru_cache(maxsize=None)(
        lambda ids: closure_order(w, ids) == w.census_order
    )

    def answers(ids):
        if not generates(ids):
            return (False, False, False, None)
        proper = (
            sub for k in range(len(ids)) for sub in itertools.combinations(ids, k)
        )
        minimal = not any(generates(sub) for sub in proper)
        ranked = (s for s in itertools.combinations(ids, w.rank) if generates(s))
        one_outs = (ids[:i] + ids[i + 1 :] for i in range(len(ids)))
        witness = next(ranked, None)
        contains_minimum = witness is not None
        if witness is None:
            witness = next((s for s in one_outs if generates(s)), None)
        return (True, minimal, contains_minimum, witness)

    return answers


def report_answers(report):
    return (
        report.generates, report.is_minimal, report.contains_minimum, report.witness
    )


@pytest.mark.parametrize("label", ["A3", "B2", "I2(6)", "A2xI2(5)"])
def test_analyze_matches_closure_oracle(label):
    w = cached_group(label)
    oracle = closure_oracle(w)
    for k in range(w.rank + 3):
        for ids in itertools.combinations(range(w.num_reflections), k):
            assert report_answers(analyze_genset(w, ids)) == oracle(ids), ids


def test_analyze_matches_closure_oracle_i2_30():
    """Every set of at most four reflections of I2(30) through line 0: 4090
    sets, among them the minimal triples that no pair inside generates."""
    w = cached_group("I2(30)")
    oracle = closure_oracle(w)
    checked = 0
    for k in range(4):
        for rest in itertools.combinations(range(1, 30), k):
            ids = (0,) + rest
            assert report_answers(analyze_genset(w, ids)) == oracle(ids), ids
            checked += 1
    assert checked == 4090


@pytest.mark.parametrize(
    "label, ids, witness, lex_first_one_out",
    [
        ("I2(30)", (0, 2, 5, 8), (0, 5, 8), (0, 2, 5)),
        ("I2(42)", (0, 2, 6, 9), (2, 6, 9), (0, 2, 9)),
    ],
)
def test_analyze_one_out_witness_drops_least_first(
    label, ids, witness, lex_first_one_out
):
    """Without a generating pair, the witness is the first generating one-out
    subset in the order that drops ``ids[0]`` first, which need not be the
    lexicographically first generating one-out subset."""
    w = cached_group(label)
    report = analyze_genset(w, ids)
    assert report_answers(report) == (True, False, False, witness)
    assert report_answers(report) == closure_oracle(w)(ids)
    one_outs = sorted(itertools.combinations(ids, len(ids) - 1))
    assert next(s for s in one_outs if w.generates_whole(s)) == lex_first_one_out


@pytest.mark.parametrize(
    "label, ids, tests",
    [("A3", (0, 1, 2), 1), ("A3", tuple(range(6)), 2), ("I2(30)", (0, 2, 27), 4)],
)
def test_analyze_runs_no_test_the_rank_answers(label, ids, tests):
    """Fewer than rank reflections never generate, so a generating rank-size
    set needs one test and the one-out subsets of a (rank+1)-size set are
    not tested apart from its rank-size subsets (5, 3 and 7 tests before)."""
    budget = Budget()
    analyze_genset(cached_group(label), ids, budget=budget)
    assert budget.spent == {"max_tuples": tests}


# -- conjugacy orbit sweeps ------------------------------------------------


def test_orbit_reps_partition_all_pairs():
    w = cached_group("B3")
    total = 0
    reps = []
    for rep, orbit_size in conjugacy_orbit_reps(w, 2):
        total += orbit_size
        reps.append(rep)
    assert total == 36  # C(9, 2)
    assert reps == sorted(reps)


def test_orbit_reps_generation_is_invariant():
    w = cached_group("A3")
    conj = w.refl_conj_table
    s = w.simple_reflection_ids[0]
    for rep, _ in conjugacy_orbit_reps(w, 3):
        image = tuple(sorted(conj[t][s] for t in rep))
        assert w.generates_whole(rep) == w.generates_whole(image)


def test_orbit_reps_budget():
    w = cached_group("B3")
    with pytest.raises(CapExceeded):
        list(conjugacy_orbit_reps(w, 2, budget=Budget(max_tuples=3)))


# -- minimum equals minimal ------------------------------------------------


@pytest.mark.parametrize(
    "label", ["A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(12)", "I2(16)"]
)
def test_min_equals_min_holds(label):
    report = check_min_equals_min(cached_group(label))
    assert report.holds
    assert report.counterexamples == ()
    assert report.orbits_checked > 0


def test_min_equals_min_fails_for_thirty():
    w = cached_group("I2(30)")
    report = check_min_equals_min(w)
    assert not report.holds
    assert report.counterexamples
    first = report.counterexamples[0]
    assert len(first) == 3
    assert w.generates_whole(first)
    for pair in itertools.combinations(first, 2):
        assert not w.generates_whole(pair)


def test_counterexamples_have_three_prime_profile():
    w = cached_group("I2(30)")
    report = check_min_equals_min(w)
    for ids in report.counterexamples:
        triple = dihedral_triple_of(*(w.reflection(t) for t in ids))
        profile = sorted(gcd(a, 30) for a in triple.values)
        assert all(p > 1 for p in profile)
        assert gcd(gcd(profile[0], profile[1]), profile[2]) == 1


# -- dihedral triples ------------------------------------------------------


def test_triple_of_three_line_example():
    # lines 0, 2 and 27 = -3 in I2(30): generate, minimally, yet no pair does
    w = cached_group("I2(30)")
    r = [w.reflection(t) for t in (0, 2, 27)]
    triple = dihedral_triple_of(*r)
    assert triple.values == (28, 27, 5)
    assert sum(triple.values) == 60
    assert [gcd(a, 30) for a in triple.values] == [2, 3, 5]
    assert dihedral_generates(triple)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert not dihedral_pair_generates(triple, pair)
    assert dihedral_pair_subgroup_order(triple, (1, 2)) == 30
    assert dihedral_pair_subgroup_order(triple, (1, 3)) == 20
    assert dihedral_pair_subgroup_order(triple, (2, 3)) == 12


def test_pair_orders_match_closures():
    w = cached_group("I2(30)")
    ids = (0, 2, 27)
    triple = dihedral_triple_of(*(w.reflection(t) for t in ids))
    pair_of = {(1, 2): (0, 2), (1, 3): (0, 27), (2, 3): (2, 27)}
    for pair, lines in pair_of.items():
        assert closure_order(w, lines) == dihedral_pair_subgroup_order(triple, pair)
    report = analyze_genset(w, ids)
    assert report.generates and report.is_minimal and not report.contains_minimum


def test_triple_validation():
    w = cached_group("I2(12)")
    r0, r1 = w.reflection(0), w.reflection(1)
    with pytest.raises(NotDistinct):
        dihedral_triple_of(r0, r1, w.reflection(0))
    rot = r0 * r1
    with pytest.raises(TypeMismatch):
        dihedral_triple_of(r0, r1, rot)
    with pytest.raises(TypeMismatch):
        dihedral_triple_of(*(cached_group("A2").reflection(t) for t in (0, 1, 2)))
    with pytest.raises(BadFactorization):
        DihedralTriple(m=12, a12=3, a13=3, a23=3)
    with pytest.raises(BadFactorization):
        DihedralTriple(m=6, a12=6, a13=3, a23=3)


@pytest.mark.parametrize("m", [5, 6, 8, 9, 12])
def test_gcd_rule_matches_closure(m):
    w = cached_group(f"I2({m})")
    refl = [w.reflection(t) for t in range(m)]
    for lines in itertools.combinations(range(m), 3):
        triple = dihedral_triple_of(*(refl[k] for k in lines))
        assert sum(triple.values) == 2 * m
        assert dihedral_generates(triple) == w.generates_whole(lines)
    for k, l in itertools.combinations(range(m), 2):
        assert closure_order(w, (k, l)) == 2 * m // gcd(l - k, m)


@pytest.mark.parametrize("m", [12, 30])
def test_realize_round_trip(m):
    w = cached_group(f"I2({m})")
    for a12 in range(1, m):
        for a13 in range(max(1, m + 1 - a12), m):
            a23 = 2 * m - a12 - a13
            if not 1 <= a23 <= m - 1:
                continue
            triple = DihedralTriple(m=m, a12=a12, a13=a13, a23=a23)
            lines = realize_triple(w, triple)
            back = dihedral_triple_of(*(w.reflection(t) for t in lines))
            assert back == triple


def test_crt_construct_thirty():
    triple = crt_construct(30, 2, 3, 5)
    assert triple.values == (14, 21, 25)
    assert [gcd(a, 30) for a in triple.values] == [2, 3, 5]
    assert dihedral_generates(triple)


@pytest.mark.parametrize(
    "m,p,q,r",
    [
        (30, 2, 3, 5),
        (42, 2, 3, 7),
        (60, 4, 3, 5),
        (66, 2, 3, 11),
        (70, 2, 5, 7),
        (105, 3, 5, 7),
    ],
)
def test_crt_construct_profiles_and_closures(m, p, q, r):
    triple = crt_construct(m, p, q, r)
    assert sum(triple.values) == 2 * m
    assert tuple(gcd(a, m) for a in triple.values) == (p, q, r)
    assert dihedral_generates(triple)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert not dihedral_pair_generates(triple, pair)
    w = cached_group(f"I2({m})")
    lines = realize_triple(w, triple)
    assert closure_order(w, lines) == 2 * m
    expected = {(0, 1): p, (0, 2): q, (1, 2): r}
    for (i, j), part in expected.items():
        assert closure_order(w, (lines[i], lines[j])) == 2 * m // part


def test_crt_construct_rejects():
    with pytest.raises(BadFactorization):
        crt_construct(30, 2, 3, 6)
    with pytest.raises(BadFactorization):
        crt_construct(60, 2, 5, 6)
    with pytest.raises(BadFactorization):
        crt_construct(30, 1, 5, 6)


# -- signed graphs ---------------------------------------------------------


def test_signed_graph_of_b3():
    w = cached_group("B3")
    g = signed_graph_of(w, range(9))
    assert g.n == 3
    assert sorted(g.loops) == [0, 1, 2]
    off_diagonal = [(i, j, s) for i, j, s in g.edges if i != j]
    assert sorted(off_diagonal) == [
        (0, 1, -1),
        (0, 1, 1),
        (0, 2, -1),
        (0, 2, 1),
        (1, 2, -1),
        (1, 2, 1),
    ]


def test_signed_graph_of_a3_is_complete():
    w = cached_group("A3")
    g = signed_graph_of(w, range(6))
    assert g.n == 4
    assert g.loops == ()
    assert sorted(g.edges) == [
        (i, j, 1) for i, j in itertools.combinations(range(4), 2)
    ]


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_graph_round_trip(label):
    w = cached_group(label)
    n = w.num_reflections
    subsets = [tuple(range(n))] + list(itertools.combinations(range(n), 2))
    for ids in subsets:
        g = signed_graph_of(w, ids)
        assert reflections_of_graph(w, g) == tuple(sorted(ids))


def test_signed_graph_of_rejects_out_of_range_ids():
    w = cached_group("A3")
    for ids in ([-1], [6]):
        with pytest.raises(IndexOutOfRange):
            signed_graph_of(w, ids)


def test_graph_type_mismatch():
    with pytest.raises(TypeMismatch):
        signed_graph_of(cached_group("H3"), range(3))
    with pytest.raises(TypeMismatch):
        signed_graph_of(cached_group("A3"), range(3), family="B")
    loopy = SignedGraph(3, ((0, 0, 1), (0, 1, 1), (1, 2, 1)))
    with pytest.raises(TypeMismatch):
        graph_generation_test(loopy, "D")
    with pytest.raises(TypeMismatch):
        graph_generation_test(loopy, "E")
    with pytest.raises(TypeMismatch):
        SignedGraph(2, ((0, 0, -1),))
    with pytest.raises(TypeMismatch):
        SignedGraph(2, ((0, 3, 1),))


def test_graph_criterion_matches_closure_a3():
    w = cached_group("A3")
    for k in range(7):
        for ids in itertools.combinations(range(6), k):
            predicted = graph_generation_test(signed_graph_of(w, ids), "A")
            assert predicted == w.generates_whole(ids)


def test_graph_criterion_matches_closure_b3():
    w = cached_group("B3")
    for k in range(10):
        for ids in itertools.combinations(range(9), k):
            predicted = graph_generation_test(signed_graph_of(w, ids), "B")
            assert predicted == w.generates_whole(ids)


def test_graph_criterion_matches_closure_d4():
    w = cached_group("D4")
    for k in range(7):
        for ids in itertools.combinations(range(12), k):
            predicted = graph_generation_test(signed_graph_of(w, ids), "D")
            assert predicted == w.generates_whole(ids)


def test_extract_minimum_a3():
    w = cached_group("A3")
    g = signed_graph_of(w, range(6))
    sub = extract_minimum_subset(g, "A")
    assert len(sub.edges) == 3
    assert set(sub.edges) <= set(g.edges)
    assert graph_generation_test(sub, "A")
    assert closure_order(w, reflections_of_graph(w, sub)) == 24


def test_extract_minimum_b3():
    w = cached_group("B3")
    g = signed_graph_of(w, range(9))
    sub = extract_minimum_subset(g, "B")
    assert len(sub.edges) == 3
    assert len(sub.loops) == 1
    assert set(sub.edges) <= set(g.edges)
    assert closure_order(w, reflections_of_graph(w, sub)) == 48


def test_extract_minimum_d4():
    w = cached_group("D4")
    g = signed_graph_of(w, range(12))
    sub = extract_minimum_subset(g, "D")
    assert len(sub.edges) == 4
    assert sub.loops == ()
    assert graph_generation_test(sub, "D")
    assert closure_order(w, reflections_of_graph(w, sub)) == 192


def test_extract_minimum_d4_two_cycle():
    g = SignedGraph(4, ((0, 1, 1), (0, 1, -1), (1, 2, 1), (2, 3, 1)))
    sub = extract_minimum_subset(g, "D")
    assert set(sub.edges) == set(g.edges)


def test_extract_refuses_non_generating():
    disconnected = SignedGraph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(NotGenerating):
        extract_minimum_subset(disconnected, "A")
    no_loop = SignedGraph(3, ((0, 1, 1), (1, 2, 1)))
    with pytest.raises(NotGenerating):
        extract_minimum_subset(no_loop, "B")
    balanced = SignedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    with pytest.raises(NotGenerating):
        extract_minimum_subset(balanced, "D")


# -- class multisets -------------------------------------------------------


def test_class_multiset_single_class_trivial():
    report = genset_class_multiset_invariance(cached_group("A3"))
    assert report.holds
    assert len(report.multisets) == 1
    assert report.generating_orbits >= 1


def test_class_multiset_b3_mixes_classes():
    w = cached_group("B3")
    report = genset_class_multiset_invariance(w)
    assert report.holds
    labels = w.refl_class_labels
    serial = w.reflection_serializations
    expected = tuple(
        sorted(serial[labels[t]] for t in w.simple_reflection_ids)
    )
    assert report.multisets == (expected,)


@pytest.mark.parametrize("label", ["B2", "I2(5)", "I2(6)", "I2(12)"])
def test_class_multiset_dihedral(label):
    assert genset_class_multiset_invariance(cached_group(label)).holds


def test_class_multiset_matches_unreduced_sweep():
    w = cached_group("B2")
    labels = w.refl_class_labels
    serial = w.reflection_serializations
    brute = set()
    for ids in itertools.combinations(range(4), 2):
        if w.generates_whole(ids):
            brute.add(tuple(sorted(serial[labels[t]] for t in ids)))
    report = genset_class_multiset_invariance(w)
    assert set(report.multisets) == brute

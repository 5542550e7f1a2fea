"""Reflection length, absolute order, parabolic closures and the
quasi-Coxeter classifiers, checked against independent oracles:

* length: geometric codimension vs breadth-first Cayley distance,
* reduced factorizations: pruned search vs brute-force product filtering,
* the factorization walker: empty at impossible lengths, equal to the
  enumeration and to product filtering elsewhere, and lazy under a budget,
* parabolic closure membership vs fixed-space containment of matrices,
* below-a-quasi-Coxeter-element and whole parabolic closure vs their
  definitions (absolute order, element closures),
* full reflection length vs the shortest factorization whose element
  closure is the whole group.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_length_table,
    brute_reduced_factorizations,
    cached_group,
    kernel_contains,
)
from coxorbits import absorder
from coxorbits.absorder import (
    absolute_leq,
    classify_element,
    factorizations,
    full_reflection_length,
    is_parabolic,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    parabolic_closure,
    quasi_coxeter_elements,
    reduced_factorizations,
    reflection_length,
)
from coxorbits.budget import Budget
from coxorbits.errors import CapExceeded, GroupMismatch
from coxorbits.hurwitz import enumerate_factorizations


def coxeter_element(w):
    g = w.identity
    for s in w.simple_reflection_ids:
        g = g * w.reflection(s)
    return g


# -- reflection length -----------------------------------------------------


@pytest.mark.parametrize("label", ["A3", "B3", "I2(7)", "I2(12)", "A2xA1", "A1xI2(5)"])
def test_length_matches_bfs_oracle(label):
    w = cached_group(label)
    carter = absorder.length_table(w)
    bfs = bfs_length_table(label)
    assert list(bfs) == carter


def test_length_of_special_elements():
    w = cached_group("A3")
    assert reflection_length(w.identity) == 0
    for t in w.reflection_ids():
        assert reflection_length(w.reflection(t)) == 1
    assert reflection_length(coxeter_element(w)) == 3
    b2 = cached_group("B2")
    minus_one = coxeter_element(b2) * coxeter_element(b2)
    assert reflection_length(minus_one) == 2


def test_length_subadditive_and_inverse_invariant():
    w = cached_group("B3")
    els = w.elements()
    for g in els[::7]:
        assert reflection_length(g.inverse()) == reflection_length(g)
        for h in els[::11]:
            assert reflection_length(g * h) <= reflection_length(g) + reflection_length(h)


# -- absolute order --------------------------------------------------------


def test_absolute_order_basics():
    w = cached_group("A3")
    c = coxeter_element(w)
    assert absolute_leq(w.identity, c)
    assert absolute_leq(c, c)
    assert not absolute_leq(c, w.identity)
    t = w.reflection(0)
    assert absolute_leq(t, c) == (reflection_length(t.inverse() * c) == 2)


def test_absolute_order_cross_group():
    with pytest.raises(GroupMismatch):
        absolute_leq(cached_group("A2").identity, cached_group("B2").identity)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_absolute_order_transitive(data):
    w = cached_group("B2")
    els = w.elements()
    u = data.draw(st.sampled_from(els))
    v = data.draw(st.sampled_from(els))
    x = data.draw(st.sampled_from(els))
    if absolute_leq(u, v) and absolute_leq(v, x):
        assert absolute_leq(u, x)


def test_reflections_below_equal_parabolic_closure():
    """Three routes to "t lies below g": absolute order, matrix fixed-space
    containment, membership in the parabolic closure."""
    w = cached_group("B3")
    for g in w.elements()[::5]:
        closure = parabolic_closure(g)
        gm = g.matrix()
        for t in w.reflection_ids():
            r = w.reflection(t)
            below = absolute_leq(r, g)
            contains = kernel_contains(r.matrix(), gm)
            member = r in closure
            assert below == contains == member


# -- parabolic closures ----------------------------------------------------


def test_parabolic_closure_examples():
    w = cached_group("A3")
    assert parabolic_closure(w.identity).order == 1
    t = w.reflection(0)
    assert parabolic_closure(t).order == 2
    c = coxeter_element(w)
    assert parabolic_closure(c).is_whole_group


def test_parabolic_closure_dihedral():
    w = cached_group("I2(12)")
    r0, r1 = w.reflection(0), w.reflection(1)
    rot = r0 * r1  # a rotation: fixes only the origin
    assert parabolic_closure(rot).is_whole_group
    assert parabolic_closure(r0).order == 2
    assert parabolic_closure(w.identity).order == 1


def test_parabolic_closure_contains_element():
    for label in ["A3", "B3", "I2(9)"]:
        w = cached_group(label)
        for g in w.elements()[::7]:
            assert g in parabolic_closure(g)


def test_is_parabolic_standard_and_not():
    a3 = cached_group("A3")
    s = [a3.reflection(t) for t in a3.simple_reflection_ids]
    assert is_parabolic(a3.closure([]))
    assert is_parabolic(a3.closure(s))
    assert is_parabolic(a3.closure(s[:2]))
    assert is_parabolic(a3.closure([s[0]]))
    # disconnected support can still be parabolic
    assert is_parabolic(a3.closure([s[0], s[2]]))
    # any single reflection generates a parabolic
    b2 = cached_group("B2")
    for t in b2.reflection_ids():
        assert is_parabolic(b2.closure([b2.reflection(t)]))


def test_klein_subgroup_of_b2_not_parabolic():
    b2 = cached_group("B2")
    # find the two orthogonal "diagonal" reflections: their product is -1
    refl = [b2.reflection(t) for t in b2.reflection_ids()]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(refl, 2)
        if (a * b).order() == 2
    ]
    assert pairs
    for a, b in pairs:
        sub = b2.closure([a, b])
        assert sub.order == 4
        assert not is_parabolic(sub)


def test_coordinate_flips_of_b3_not_parabolic():
    b3 = cached_group("B3")
    flips = [
        b3.reflection(t)
        for t in b3.reflection_ids()
        if all(
            (b3.reflection(t) * b3.reflection(u)).order() <= 2
            for u in b3.reflection_ids()
            if u != t
        )
    ]
    # no reflection commutes with everything in B3; build the flip group by roots
    f = b3.factors[0]
    coord = [
        t
        for t in range(f.num_reflections)
        if sum(1 for c in f.root_vector(t) if c) == 1
    ]
    assert len(coord) == 3
    sub = b3.closure([b3.reflection(t) for t in coord])
    assert sub.order == 8
    assert not is_parabolic(sub)
    # but it contains -1 whose closure is all of B3
    minus = [g for g in sub.elements if reflection_length(g) == 3]
    assert any(parabolic_closure(g).is_whole_group for g in minus)


def test_parabolics_closed_under_intersection_sample():
    w = cached_group("A3")
    s = [w.reflection(t) for t in w.simple_reflection_ids]
    p1 = w.closure(s[:2]).elements
    p2 = w.closure(s[1:]).elements
    inter = p1 & p2
    sub = w.closure([g for g in inter])
    assert is_parabolic(sub)


# -- reduced factorizations ------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "B3", "I2(5)"])
def test_reduced_factorizations_match_brute_force(label):
    w = cached_group(label)
    sample = [w.identity, w.reflection(0), coxeter_element(w)]
    for g in sample:
        k = reflection_length(g)
        ours = list(reduced_factorizations(g))
        brute = brute_reduced_factorizations(g, k)
        assert ours == sorted(brute)
        assert ours == sorted(set(ours))


def test_reduced_factorization_counts_frozen():
    # classical counts: (n+1)^(n-1) for A_n, n^n for B_n Coxeter elements
    a3 = cached_group("A3")
    assert sum(1 for _ in reduced_factorizations(coxeter_element(a3))) == 16
    b3 = cached_group("B3")
    assert sum(1 for _ in reduced_factorizations(coxeter_element(b3))) == 27
    a2 = cached_group("A2")
    assert sum(1 for _ in reduced_factorizations(coxeter_element(a2))) == 3
    i5 = cached_group("I2(5)")
    assert sum(1 for _ in reduced_factorizations(coxeter_element(i5))) == 5


def test_reduced_factorizations_multiply_back():
    w = cached_group("B3")
    g = coxeter_element(w)
    for fact in itertools.islice(reduced_factorizations(g), 40):
        prod = w.identity
        for t in fact:
            prod = prod * w.reflection(t)
        assert prod == g
        assert len(fact) == reflection_length(g)


def test_reduced_factorizations_budget():
    w = cached_group("B3")
    with pytest.raises(CapExceeded):
        list(reduced_factorizations(coxeter_element(w), Budget(max_tuples=10)))


@pytest.mark.parametrize("label", ["A3", "B3", "I2(5)", "A2xI2(5)"])
def test_factorizations_empty_at_impossible_lengths(label):
    w = cached_group(label)
    for g in w.elements():
        k = reflection_length(g)
        assert list(factorizations(g, 0)) == ([()] if k == 0 else [])
        for n in range(k + 4):
            if n < k or (n - k) % 2:
                assert list(factorizations(g, n)) == [], (g, n)


@pytest.mark.parametrize("label", ["A2", "B2", "I2(5)"])
def test_factorizations_match_enumeration_and_brute_force(label):
    w = cached_group(label)
    for g in w.elements():
        k = reflection_length(g)
        for n in (k, k + 2):
            ours = list(factorizations(g, n))
            assert ours == enumerate_factorizations(g, n)
            assert ours == sorted(brute_reduced_factorizations(g, n))


def test_factorizations_are_lazy():
    # the first factorization costs one root-to-leaf path, 8 * 12 tuples
    w = cached_group("D4")
    cap = 200
    first = next(factorizations(w.identity, 8, Budget(max_tuples=cap)))
    assert first == (0,) * 8
    with pytest.raises(CapExceeded):
        enumerate_factorizations(w.identity, 8, Budget(max_tuples=cap))


# -- quasi-Coxeter classification ------------------------------------------


def test_every_element_of_type_a_is_pqc():
    w = cached_group("A3")
    for g in w.elements():
        assert is_parabolic_quasi_coxeter(g)


def test_pqc_counts_dihedral():
    # identity + all reflections + rotations with exponent coprime to m
    for m, expected in [(5, 10), (6, 9), (12, 17)]:
        w = cached_group(f"I2({m})")
        count = sum(1 for g in w.elements() if is_parabolic_quasi_coxeter(g))
        assert count == expected


def test_pqc_count_b2_matches_i24():
    b2 = cached_group("B2")
    i24 = cached_group("I2(4)")
    nb = sum(1 for g in b2.elements() if is_parabolic_quasi_coxeter(g))
    ni = sum(1 for g in i24.elements() if is_parabolic_quasi_coxeter(g))
    assert nb == ni == 7


def test_minus_one_in_b2_b3_not_pqc():
    for label, power in [("B2", 2), ("B3", 3)]:
        w = cached_group(label)
        c = coxeter_element(w)
        minus = w.identity
        for _ in range(power):
            minus = minus * c
        assert reflection_length(minus) == w.rank
        assert (minus * minus).is_identity
        res = classify_element(minus, strict=True)
        assert not res.is_parabolic_quasi_coxeter
        assert not res.is_quasi_coxeter
        assert res.all_factorizations_agree
        assert res.closure_is_whole  # its parabolic closure is everything


def test_coxeter_elements_are_quasi_coxeter():
    for label in ["A3", "B3", "D4", "H3", "I2(11)"]:
        w = cached_group(label)
        res = classify_element(coxeter_element(w), strict=True)
        assert res.is_quasi_coxeter
        assert res.is_parabolic_quasi_coxeter
        assert res.all_factorizations_agree
        assert res.witness is not None


def test_strict_and_witness_modes_agree():
    w = cached_group("B3")
    for g in w.elements()[::6]:
        assert (
            classify_element(g, strict=True).is_parabolic_quasi_coxeter
            == classify_element(g).is_parabolic_quasi_coxeter
        )


def test_quasi_coxeter_elements_cache():
    w = cached_group("A3")
    qc = quasi_coxeter_elements(w)
    # in the symmetric group the quasi-Coxeter elements are the long cycles
    assert len(qc) == 6
    assert all(g.order() == 4 for g in qc)
    assert quasi_coxeter_elements(w) is qc


def test_below_some_quasi_coxeter_in_a3():
    w = cached_group("A3")
    for g in w.elements():
        assert absorder.below_some_quasi_coxeter(g)


def test_below_some_quasi_coxeter_dihedral():
    w = cached_group("I2(6)")
    bad = [g for g in w.elements() if not absorder.below_some_quasi_coxeter(g)]
    # exactly the rotations of non-coprime exponent sit below no qC element
    assert len(bad) == 3


ORACLE_GROUPS = ["A3", "B3", "H3", "D4", "I2(5)", "I2(6)", "A2xI2(5)", "B2xA1"]


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_below_some_quasi_coxeter_matches_absolute_order(label):
    """The cached down-set agrees with the definition: some quasi-Coxeter
    element lies above ``g`` in the geometric absolute order."""
    w = cached_group(label)
    qc = quasi_coxeter_elements(w)
    for g in w.elements():
        expected = any(absolute_leq(g, c) for c in qc)
        assert absorder.below_some_quasi_coxeter(g) == expected, g


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_closure_is_whole_matches_element_closure(label):
    w = cached_group(label)
    for g in w.elements():
        expected = parabolic_closure(g).is_whole_group
        assert classify_element(g).closure_is_whole == expected, g


# -- full reflection length ------------------------------------------------


def test_full_length_of_quasi_coxeter_is_rank():
    for label in ["A3", "B3", "I2(7)"]:
        w = cached_group(label)
        assert full_reflection_length(coxeter_element(w)) == w.rank


def test_full_length_frozen_examples():
    # -1 in B2 and B3 is not quasi-Coxeter: defect two
    b2 = cached_group("B2")
    minus2 = coxeter_element(b2) * coxeter_element(b2)
    assert full_reflection_length(minus2) == 4
    b3 = cached_group("B3")
    c = coxeter_element(b3)
    minus3 = c * c * c
    assert full_reflection_length(minus3) == 5


def test_full_length_identity():
    # the identity needs a whole generating set: 2n - 0 when it is pqc
    a2 = cached_group("A2")
    assert full_reflection_length(a2.identity) == 4
    a1 = cached_group("A1")
    assert full_reflection_length(a1.identity) == 2
    assert full_reflection_length(a1.reflection(0)) == 1


def test_full_length_reflections():
    w = cached_group("A2")
    for t in w.reflection_ids():
        # t, u, u with distinct u generates A2: length 3 = 2n - l
        assert full_reflection_length(w.reflection(t)) == 3


def test_full_length_parity_and_bound():
    w = cached_group("B2")
    for g in w.elements():
        fl = full_reflection_length(g)
        lr = reflection_length(g)
        assert fl >= lr
        assert (fl - lr) % 2 == 0
        assert fl <= lr + 2 * w.rank


def test_full_length_matches_pqc_formula():
    """The defect formula: full length is 2n - l exactly for the parabolic
    quasi-Coxeter elements."""
    for label in ["A3", "B2", "I2(6)"]:
        w = cached_group(label)
        n = w.rank
        for g in w.elements():
            fl = full_reflection_length(g)
            pqc = is_parabolic_quasi_coxeter(g)
            assert (fl == 2 * n - reflection_length(g)) == pqc


def brute_full_length(g, closure_orders: dict) -> int:
    """Oracle: the least length ``l, l+2, ...`` at which some factorization
    of ``g`` has an element closure of the group's order."""
    w = g.group
    length = reflection_length(g)
    while True:
        for fact in enumerate_factorizations(g, length):
            key = frozenset(fact)
            if key not in closure_orders:
                refl = [w.reflection(t) for t in key]
                closure_orders[key] = w.closure(refl).order
            if closure_orders[key] == w.census_order:
                return length
        length += 2


# H3 has rank 3, so its length bound 3 takes in all 120 elements
@pytest.mark.parametrize(
    "label, max_length", [("B3", None), ("A2xI2(5)", None), ("H3", 3)]
)
def test_full_length_matches_brute_force(label, max_length):
    w = cached_group(label)
    orders: dict = {}
    for g in w.elements():
        if max_length is None or reflection_length(g) <= max_length:
            assert full_reflection_length(g) == brute_full_length(g, orders), g


def test_full_length_budget():
    w = cached_group("B3")
    with pytest.raises(CapExceeded):
        c = coxeter_element(w)
        full_reflection_length(c * c * c, Budget(max_tuples=5))

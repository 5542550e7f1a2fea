"""Reflection length, absolute order, parabolic closures and the
quasi-Coxeter classifiers, checked against independent oracles:

* length: geometric codimension vs breadth-first Cayley distance,
* fixed spaces: the root-cycle route vs the span route (elimination),
* reduced factorizations: pruned search vs brute-force product filtering,
* the factorization walker: empty at impossible lengths, raising at a
  negative one, equal to the enumeration and to product filtering
  elsewhere, and lazy under a budget,
* factorization codes: ``decode`` inverts ``encode``, code order is
  lexicographic order, and the decoded codes equal product filtering,
* the walk's size: its code count and ``max_tuples`` charge equal what
  the walker yields and charges,
* parabolic closure membership vs fixed-space containment of matrices,
* below-a-quasi-Coxeter-element and whole parabolic closure vs their
  definitions (absolute order, element closures),
* full factorization codes and the full reflection length vs the
  factorizations whose element closure is the whole group, and the full
  reflection length's state search vs the first length at which full
  factorization codes exist,
* the full reflection length's ``max_tuples`` charge vs a search without
  memo, on a cold and on a warm group alike.
"""
import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_length_table,
    brute_reduced_factorizations,
    cached_group,
    kills,
)
from coxorbits import absorder, gensets
from coxorbits.absorder import (
    absolute_leq,
    classify_element,
    decode,
    encode,
    factorization_codes,
    factorizations,
    full_factorization_codes,
    full_reflection_length,
    is_parabolic,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    parabolic_closure,
    quasi_coxeter_elements,
    reduced_factorizations,
    reflection_length,
    walk_size,
)
from coxorbits.budget import Budget
from coxorbits.errors import BadFactorization, CapExceeded, GroupMismatch
from coxorbits.groups import DihedralFactor, VectorFactor, build_group
from coxorbits.hurwitz import enumerate_factorizations
from coxorbits.linalg import Matrix, kernel_basis
from coxorbits.scalars import Scalar


def coxeter_element(w):
    g = w.identity
    for s in w.simple_reflection_ids:
        g = g * w.reflection(s)
    return g


def factorization_verdicts(g) -> set[bool]:
    """The verdicts, one per reduced factorization of ``g``, on whether it
    generates the parabolic closure; they provably agree, so the set holds
    one.  The closure's reflections are those in some reduced
    factorization: a Hurwitz move brings any factor to the front, and the
    first factors are the ``t`` with ``l(t g) < l(g)``.  Factors in the
    closure generate it exactly when their reflection closure is all of
    them."""
    w = g.group
    facts = list(reduced_factorizations(g))
    below = frozenset(itertools.chain.from_iterable(facts))
    return {w.reflection_closure(f) == below for f in facts}


# -- reflection length -----------------------------------------------------


@pytest.mark.parametrize("label", ["A3", "B3", "I2(7)", "I2(12)", "A2xA1", "A1xI2(5)"])
def test_length_matches_bfs_oracle(label):
    w = cached_group(label)
    carter = absorder.length_table(w)
    bfs = bfs_length_table(label)
    assert list(bfs) == carter


@pytest.mark.parametrize(
    "label", ["B3", "H3", "D4", "F4", "B2xA1", "A2xI2(5)", "I2(7)"]
)
def test_length_table_matches_geometric_length(label):
    """The Cayley distance over T equals the codimension of the fixed space
    (Carter's lemma) on every element."""
    w = cached_group(label)
    assert absorder.length_table(w) == [reflection_length(g) for g in w.elements()]


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
    """Four routes to "t lies below g", on every element of the
    vector-realized groups (``matrix()`` refuses dihedral factors): absolute
    order, matrix fixed-space containment, membership in the parabolic
    closure, and the length drop ``l(t g) = l(g) - 1`` read from the tables.
    The fixed-space test is :func:`conftest.kernel_contains` with each
    reflection's ``M - I`` built once per group and each element's kernel
    basis once per element."""
    for label in ["A3", "B3", "H3", "D4", "B2xA1"]:
        w = cached_group(label)
        ids = w.element_ids()
        refls = [(t, w.reflection(t)) for t in w.reflection_ids()]
        matrices = [r.matrix() for _, r in refls]
        ident = Matrix.identity(matrices[0].n_rows)
        diffs = [rm - ident for rm in matrices]
        for g in w.elements():
            closure = parabolic_closure(g)
            fixed = kernel_basis(g.matrix() - ident)
            lowering = set(absorder._lowering_reflections(w, ids[g.comps]))
            for (t, r), diff in zip(refls, diffs):
                below = absolute_leq(r, g)
                contains = kills(diff, fixed)
                member = r in closure
                assert below == contains == member == (t in lowering)


@pytest.mark.parametrize("label", ["I2(5)xA2", "B2xI2(6)", "I2(8)"])
def test_fixed_space_on_dihedral_factors(label):
    """Codimension and fixing reflections from one geometric pass against
    the length table and the length-drop rule, on groups with a dihedral
    factor, whose rotations move the whole plane; the matrix oracle cannot
    reach them."""
    w = cached_group(label)
    ids = w.element_ids()
    lengths = absorder.length_table(w)
    assert absorder.fixed_space(w.identity) == (0, ())
    for g in w.elements():
        e = ids[g.comps]
        lowering = tuple(sorted(absorder._lowering_reflections(w, e)))
        assert absorder.fixed_space(g) == (lengths[e], lowering), (label, g)


def span_route(g) -> tuple[int, tuple[int, ...]]:
    """The codimension of ``Fix(g)`` and the reflections fixing it, by
    elimination: a basis of each factor's moved space, and one span test
    per root."""
    w = g.group
    bases = absorder._moved_bases(w, [g.comps])
    fixing = tuple(
        w.global_reflection_id(fi, t)
        for fi, (f, basis) in enumerate(zip(w.factors, bases))
        for t in range(f.num_reflections)
        if f.in_span(basis, f.root_vector(t))
    )
    return sum(map(len, bases)), fixing


@pytest.mark.parametrize(
    "label",
    ["A3", "B3", "H3", "D4", "F4", "B2xA1", "A2xI2(5)", "I2(8)", "E7", "E8", "H4"],
)
def test_fixed_space_matches_span_route(label):
    """The cycle route of ``fixed_space`` against the span route, on every
    element, and on seeded random words in the reflections on E7, E8 and
    H4, whose element tables are refused or slow to build."""
    w = cached_group(label)
    if label in ("E7", "E8", "H4"):
        rng = random.Random(f"fixed-{label}")
        elements = []
        for _ in range(150):
            g = w.identity
            for _ in range(rng.randint(0, 2 * w.rank)):
                g = g * w.reflection(rng.randrange(w.num_reflections))
            elements.append(g)
    else:
        elements = w.elements()
    for g in elements:
        assert absorder.fixed_space(g) == span_route(g), (label, g)


def test_classify_element_reads_only_the_tables(monkeypatch):
    """Once the length and multiplication tables exist, classification
    never enters the fixed-space span routine of either factor kind."""
    groups = [cached_group("B3"), cached_group("I2(6)")]
    for w in groups:
        absorder.length_table(w)
        w.refl_mult_table

    def refuse(*args):
        raise AssertionError("span routine entered")

    monkeypatch.setattr(VectorFactor, "span_insert", refuse)
    monkeypatch.setattr(DihedralFactor, "span_insert", refuse)
    for w in groups:
        for g in w.elements():
            pqc = classify_element(g).is_parabolic_quasi_coxeter
            assert factorization_verdicts(g) == {pqc}


def test_fixed_space_geometry_runs_on_integers(monkeypatch):
    """Once the groups are built, lengths, fixing reflections, parabolicity
    and the rank of a reflection set create no ``Scalar``: the span routine
    runs on integer lattice coordinates."""
    groups = [cached_group(label) for label in ["B3", "H3", "D4", "A2xI2(5)"]]
    for w in groups:
        w.elements()

    def refuse(*args):
        raise AssertionError("Scalar created")

    monkeypatch.setattr(Scalar, "__init__", refuse)
    for w in groups:
        for g in w.elements():
            absorder.reflection_length(g)
            fixing = absorder.reflections_fixing(g)
            is_parabolic(w.closure([w.reflection(t) for t in fixing]))
            gensets._reflection_set_rank(w, fixing)


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
    # no reflection commutes with everything in B3; build the flip group by
    # roots: the coordinate flips e_i are B3's short roots, of norm 1
    f = b3.factors[0]

    def norm(v):
        return sum((a * b for a, b in zip(v, f.form.apply(v))), Scalar.zero())

    coord = [
        t
        for t in range(f.num_reflections)
        if norm(f.scalar_vector(f.root_vector(t))) == Scalar.one()
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


def test_negative_length_raises_in_the_walker():
    w = cached_group("A2")
    views = (factorization_codes, factorizations, full_factorization_codes, walk_size)
    for view in views:
        with pytest.raises(BadFactorization):
            list(view(w.identity, -1))


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


# -- factorization codes ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(0, 11), max_size=8))
def test_encode_decode_round_trip(n_refl, digits):
    fact = tuple(d % n_refl for d in digits)
    code = encode(fact, n_refl)
    assert 0 <= code < n_refl ** len(fact)
    assert decode(code, len(fact), n_refl) == fact


def test_code_order_is_lexicographic_order():
    # itertools.product lists tuples in lexicographic order
    for n_refl, length in ((1, 3), (2, 4), (3, 3), (5, 2), (12, 2)):
        tuples = itertools.product(range(n_refl), repeat=length)
        assert [encode(t, n_refl) for t in tuples] == list(range(n_refl**length))


@pytest.mark.parametrize("label", ["A2", "B2", "I2(5)", "A2xI2(5)"])
def test_factorization_codes_match_brute_force(label):
    """Decoded codes of every element at lengths 0, 1, 2, ``l``, ``l + 2``
    and ``l + 4``, which run the one-slot branch and the per-quotient pair
    lists.  Product filtering visits ``|T|**n`` tuples, so lengths above 6
    are left out: only A2xI2(5) (``|T| = 8``) loses ``l + 4`` for
    ``l = 3, 4``."""
    w = cached_group(label)
    n_refl = w.num_reflections
    by_length = defaultdict(list)
    for g in w.elements():
        k = reflection_length(g)
        for n in {0, 1, 2, k, k + 2, k + 4}:
            if n <= 6:
                by_length[n].append(g)
    for n in sorted(by_length):
        for g in by_length[n]:
            ours = [decode(c, n, n_refl) for c in factorization_codes(g, n)]
            assert ours == brute_reduced_factorizations(g, n), (g, n)


# -- the walk's size --------------------------------------------------------


def walked(g, n):
    """Oracle: walk the codes of ``g`` at length ``n`` under a budget and
    report their count and the ``max_tuples`` charged."""
    budget = Budget()
    codes = sum(1 for _ in factorization_codes(g, n, budget))
    return codes, budget.spent.get("max_tuples", 0)


@pytest.mark.parametrize("label", ["A3", "B3", "B2xA1", "I2(5)", "H3"])
def test_walk_size_matches_the_walker(label):
    """On every element at lengths 0, 1, ``l``, ``l + 2`` and ``l + 4``
    (H3 without ``l + 4``), the counted codes equal the walked ones,
    ``|T|`` times the visits equals the walker's charge, and charging
    ``walk_size`` spends the same."""
    offsets = (0, 2) if label == "H3" else (0, 2, 4)
    w = cached_group(label)
    n_refl = w.num_reflections
    for g in w.elements():
        k = reflection_length(g)
        for n in {0, 1, *(k + o for o in offsets)}:
            codes, charged = walked(g, n)
            size = walk_size(g, n)
            assert (size.codes, n_refl * size.visits) == (codes, charged), (g, n)
            budget = Budget()
            walk_size(g, n, budget)
            assert budget.spent.get("max_tuples", 0) == charged


def test_walk_size_defaults_to_the_reflection_length():
    w = cached_group("A3")
    c = coxeter_element(w)
    assert walk_size(c) == walk_size(c, 3)
    assert walk_size(c).codes == 16
    assert walk_size(w.identity, 0) == (1, 0)
    assert walk_size(w.reflection(0), 1) == (1, 1)
    assert walk_size(w.identity, 1) == (0, 0)


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
        res = classify_element(minus)
        assert not res.is_parabolic_quasi_coxeter
        assert not res.is_quasi_coxeter
        assert len(factorization_verdicts(minus)) == 1
        assert res.closure_is_whole  # its parabolic closure is everything


def test_coxeter_elements_are_quasi_coxeter():
    for label in ["A3", "B3", "D4", "H3", "I2(11)"]:
        w = cached_group(label)
        res = classify_element(coxeter_element(w))
        assert res.is_quasi_coxeter
        assert res.is_parabolic_quasi_coxeter
        assert len(factorization_verdicts(coxeter_element(w))) == 1
        assert res.witness is not None


def test_every_factorization_and_witness_search_agree():
    w = cached_group("B3")
    for g in w.elements()[::6]:
        pqc = classify_element(g).is_parabolic_quasi_coxeter
        assert (True in factorization_verdicts(g)) == pqc


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


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "I2(5)"])
def test_full_factorization_codes_match_element_closure(label):
    """The kept codes are those whose factors' element closure is all of W,
    at lengths ``l`` and ``l + 2``, in increasing order."""
    w = cached_group(label)
    n_refl = w.num_reflections
    orders: dict = {}
    for g in w.elements():
        k = reflection_length(g)
        for n in (k, k + 2):
            kept = []
            for code in factorization_codes(g, n):
                key = frozenset(decode(code, n, n_refl))
                if key not in orders:
                    orders[key] = w.closure([w.reflection(t) for t in key]).order
                if orders[key] == w.census_order:
                    kept.append(code)
            assert list(full_factorization_codes(g, n)) == kept, (g, n)


def test_full_length_budget():
    w = cached_group("B3")
    with pytest.raises(CapExceeded):
        c = coxeter_element(w)
        full_reflection_length(c * c * c, Budget(max_tuples=5))


def first_full_length(g) -> int:
    """Oracle: the least length ``l, l+2, ...`` at which
    ``full_factorization_codes`` yields."""
    length = reflection_length(g)
    while next(full_factorization_codes(g, length), None) is None:
        length += 2
    return length


@pytest.mark.parametrize("label", ["D4", "A4", "B2xA1"])
def test_full_length_matches_full_factorization_codes(label):
    w = cached_group(label)
    for g in w.elements():
        assert full_reflection_length(g) == first_full_length(g), g


def plain_search_expansions(g, length) -> tuple[bool, int]:
    """Oracle for the charge: a depth-first search over factor prefixes
    without memo, in the walker's order, that decides generation by
    ``generates_whole`` on the prefix and stops at the first success.
    Returns whether it succeeded and how many prefixes it expanded."""
    w = g.group
    lengths = absorder.length_table(w)
    mult = w.refl_mult_table

    def search(q, remaining, prefix):
        if prefix and w.generates_whole(prefix):
            return lengths[q] <= remaining, 0
        if remaining == 0:
            return False, 0
        expanded = 1
        for t in range(w.num_reflections):
            if lengths[mult[t][q]] < remaining:
                found, below = search(mult[t][q], remaining - 1, prefix | {t})
                expanded += below
                if found:
                    return True, expanded
        return False, expanded

    return search(w.element_ids()[g.comps], length, frozenset())


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_full_length_charges_a_plain_search(label):
    """Each length tried charges ``|T|`` per prefix a memo-free search
    expands, up to its first success."""
    w = cached_group(label)
    for g in w.elements():
        expected = 0
        length = reflection_length(g)
        while True:
            found, expanded = plain_search_expansions(g, length)
            expected += w.num_reflections * expanded
            if found:
                break
            length += 2
        budget = Budget()
        assert full_reflection_length(g, budget) == length, g
        assert budget.spent.get("max_tuples", 0) == expected, g


def test_full_length_charge_does_not_depend_on_the_memo():
    """The same budgeted call charges the same on a fresh group and on one
    whose search memo is warm, and the same cap stops both."""
    warm = cached_group("B3")
    for g in warm.elements():
        full_reflection_length(g)

    def minus_one(w):
        c = coxeter_element(w)
        return c * c * c

    cold, warm_budget = Budget(), Budget()
    full_reflection_length(minus_one(build_group("B3")), cold)
    full_reflection_length(minus_one(warm), warm_budget)
    assert cold.spent == warm_budget.spent
    cap = cold.spent["max_tuples"] // 2
    for w in (build_group("B3"), warm):
        with pytest.raises(CapExceeded):
            full_reflection_length(minus_one(w), Budget(max_tuples=cap))

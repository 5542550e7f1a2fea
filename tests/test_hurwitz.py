"""Hurwitz moves, orbits, invariants and the orbit/invariant bijection.

The left-moves-only BFS is cross-checked against a two-sided walk using the
public move API, and enumeration against brute-force product filtering."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_reduced_factorizations, cached_group
from coxorbits import build_group, hurwitz
from coxorbits.absorder import encode, is_parabolic_quasi_coxeter, reflection_length
from coxorbits.budget import Budget
from coxorbits.errors import (
    BadFactorization,
    CapExceeded,
    IndexOutOfRange,
    ShapeNotFound,
)
from coxorbits.hurwitz import (
    Factorization,
    enumerate_factorizations,
    enumerate_full_factorizations,
    find_lr_witness,
    hurwitz_move,
    hurwitz_orbit,
    hurwitz_transitive_on_min_full,
    hurwitz_transitive_on_reduced,
    is_lr_shape,
    orbit_invariant,
    partition_into_orbits,
    verify_conjecture,
)


def coxeter_element(w):
    g = w.identity
    for s in w.simple_reflection_ids:
        g = g * w.reflection(s)
    return g


def two_sided_orbit(fact: Factorization) -> set[tuple[int, ...]]:
    """Oracle: orbit closure using both move directions via the public API."""
    seen = {fact.factors}
    frontier = [fact]
    while frontier:
        new = []
        for f in frontier:
            for i in range(1, len(f.factors)):
                for direction in ("left", "right"):
                    g = hurwitz_move(f, i, direction)
                    if g.factors not in seen:
                        seen.add(g.factors)
                        new.append(g)
        frontier = new
    return seen


# -- moves -----------------------------------------------------------------


def test_move_example_in_a2():
    w = cached_group("A2")
    # reflections 0, 1 are the simple transpositions; 2 is their conjugate
    f = Factorization(w, (0, 1))
    assert hurwitz_move(f, 1).factors == (1, 2)
    assert hurwitz_move(f, 1, "right").factors == (2, 0)


def test_move_fixes_doubled_pair():
    w = cached_group("A2")
    f = Factorization(w, (1, 1))
    assert hurwitz_move(f, 1).factors == (1, 1)


def test_move_index_errors():
    w = cached_group("A2")
    f = Factorization(w, (0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        hurwitz_move(f, 0)
    with pytest.raises(IndexOutOfRange):
        hurwitz_move(f, 3)
    with pytest.raises(ValueError):
        hurwitz_move(f, 1, "sideways")


def test_bad_reflection_index_rejected():
    w = cached_group("A2")
    with pytest.raises(IndexOutOfRange):
        Factorization(w, (0, 7))


factors_st = st.lists(
    st.integers(min_value=0, max_value=5), min_size=2, max_size=5
)


@settings(max_examples=80, deadline=None)
@given(factors_st, st.data())
def test_moves_preserve_product_and_invert(factors, data):
    w = cached_group("A3")
    f = Factorization(w, tuple(factors))
    prod = f.product()
    i = data.draw(st.integers(min_value=1, max_value=len(factors) - 1))
    left = hurwitz_move(f, i)
    assert left.product() == prod
    assert hurwitz_move(left, i, "right").factors == f.factors
    right = hurwitz_move(f, i, "right")
    assert right.product() == prod
    assert hurwitz_move(right, i).factors == f.factors


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3))
def test_braid_relation(factors):
    w = cached_group("A3")
    f = Factorization(w, tuple(factors))

    def seq(f, moves):
        for i in moves:
            f = hurwitz_move(f, i)
        return f.factors

    assert seq(f, [1, 2, 1]) == seq(f, [2, 1, 2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4))
def test_distant_moves_commute(factors):
    w = cached_group("A3")
    f = Factorization(w, tuple(factors))
    a = hurwitz_move(hurwitz_move(f, 1), 3)
    b = hurwitz_move(hurwitz_move(f, 3), 1)
    assert a.factors == b.factors


def test_move_stays_inside_dihedral_conventions():
    w = cached_group("I2(7)")
    f = Factorization(w, (2, 5))
    prod = f.product()
    assert hurwitz_move(f, 1).product() == prod
    # conjugation of line 2 by line 5 lands on line 2*5-2 = 8 = 1 (mod 7)
    assert hurwitz_move(f, 1).factors == (5, 1)


# -- enumeration -----------------------------------------------------------


@pytest.mark.parametrize(
    "label,extra", [("A2", 2), ("B2", 2), ("I2(5)", 2), ("A3", 2)]
)
def test_enumeration_matches_brute_force(label, extra):
    w = cached_group(label)
    for g in [w.identity, w.reflection(0), coxeter_element(w)]:
        base = reflection_length(g)
        for n in (base, base + extra):
            ours = enumerate_factorizations(g, n)
            brute = brute_reduced_factorizations(g, n)
            assert ours == sorted(brute)


def test_enumeration_empty_for_wrong_length():
    w = cached_group("A2")
    c = coxeter_element(w)  # length 2
    assert enumerate_factorizations(c, 1) == []
    assert enumerate_factorizations(c, 3) == []
    assert enumerate_factorizations(c, 0) == []


def test_enumeration_budget():
    w = cached_group("A3")
    with pytest.raises(CapExceeded):
        enumerate_factorizations(
            coxeter_element(w), 5, Budget(max_tuples=20)
        )


def test_full_factorizations_subset():
    w = cached_group("A2")
    t = w.reflection(0)
    alln = enumerate_factorizations(t, 3)
    full = enumerate_full_factorizations(t, 3)
    assert set(full) <= set(alln)
    # (t, u, u) with u another reflection generates; (t, t, t) does not
    assert (0, 1, 1) in full
    assert (0, 0, 0) not in full
    assert all(w.generates_whole(set(f)) for f in full)


# -- orbits ----------------------------------------------------------------


def test_orbit_of_three_cycle_in_a2():
    w = cached_group("A2")
    c = coxeter_element(w)
    orbit = hurwitz_orbit(Factorization(w, enumerate_factorizations(c)[0]))
    assert orbit.size == 3
    assert orbit.invariant.subgroup_order == 6


def test_orbit_of_doubled_reflection_is_singleton():
    w = cached_group("A3")
    orbit = hurwitz_orbit(Factorization(w, (4, 4)))
    assert orbit.size == 1
    assert orbit.representative.factors == (4, 4)
    assert orbit.invariant.subgroup_order == 2


def test_orbit_of_a3_coxeter_is_all_sixteen():
    w = cached_group("A3")
    c = coxeter_element(w)
    facts = enumerate_factorizations(c)
    assert len(facts) == 16
    orbit = hurwitz_orbit(Factorization(w, facts[-1]))
    assert orbit.size == 16
    assert orbit.representative.factors == facts[0]


@pytest.mark.parametrize(
    "label,fact",
    [
        ("A2", (0, 1, 2, 1)),
        ("B2", (0, 1, 2, 3)),
        ("I2(5)", (0, 2, 4)),
        ("A2xA1", (0, 3, 1)),
    ],
)
def test_left_only_walk_matches_two_sided_oracle(label, fact):
    w = cached_group(label)
    f = Factorization(w, fact)
    orbit = hurwitz_orbit(f)
    oracle = two_sided_orbit(f)
    assert orbit.size == len(oracle)
    assert orbit.representative.factors == min(oracle)


@pytest.mark.parametrize("label", ["A2", "B2", "I2(5)", "A2xA1"])
def test_orbit_from_every_member_matches_two_sided_oracle(label):
    """From every factorization of every element at lengths ``l`` and
    ``l + 2``, the walk on codes finds the oracle orbit's size and least
    member, and a witness exactly when some member leads with doubled
    pairs."""
    w = cached_group(label)
    for g in w.elements():
        k = reflection_length(g)
        for n in (k, k + 2):
            oracles: dict = {}
            for fact in enumerate_factorizations(g, n):
                if fact not in oracles:
                    members = two_sided_orbit(Factorization(w, fact))
                    oracles.update(dict.fromkeys(members, members))
                oracle = oracles[fact]
                orbit = hurwitz_orbit(Factorization(w, fact))
                assert orbit.size == len(oracle)
                assert orbit.representative.factors == min(oracle)
                shaped = [
                    m for m in oracle
                    if all(m[2 * j] == m[2 * j + 1] for j in range((n - k) // 2))
                ]
                assert (orbit.lr_witness is None) == (not shaped)
                assert orbit.lr_witness is None or orbit.lr_witness in shaped


def test_invariant_constant_on_orbits():
    w = cached_group("B2")
    for fact in [(0, 1), (0, 1, 2), (0, 0, 1, 2)]:
        f = Factorization(w, fact)
        inv = orbit_invariant(w, fact)
        for member in two_sided_orbit(f):
            assert orbit_invariant(w, member) == inv


def test_factorization_budget_totals_frozen():
    """The walker charges ``max_tuples`` with ``|T|`` per node and per leaf,
    and an orbit walk charges ``max_states`` per layer; these totals were
    recorded from the tuple-based walker and orbit walk before codes."""
    for label, length, tuples, states in (
        ("B3", 5, 29250, 2430),
        ("A3", 5, 5394, 640),
        ("I2(12)", 6, 3257436, 248832),
    ):
        w = cached_group(label)
        c = coxeter_element(w)
        spent = Budget()
        enumerate_factorizations(c, length, spent)
        assert spent.spent == {"max_tuples": tuples}
        spent = Budget()
        partition_into_orbits(c, length, spent)
        assert spent.spent == {"max_tuples": tuples, "max_states": states}


def test_orbit_budget():
    w = cached_group("A3")
    c = coxeter_element(w)
    with pytest.raises(CapExceeded):
        hurwitz_orbit(
            Factorization(w, enumerate_factorizations(c)[0]),
            Budget(max_tuples=3),
        )


# -- partitions and the bijection ------------------------------------------


def test_partition_identity_a1():
    w = cached_group("A1")
    orbits = partition_into_orbits(w.identity, 2)
    assert len(orbits) == 1
    assert orbits[0].representative.factors == (0, 0)


def test_partition_length_two_a1xa1():
    # the 4 reflection pairs split into 3 orbits, by product: the identity
    # owns the two singletons, the long element the swapped pair
    w = cached_group("A1xA1")
    id_orbits = partition_into_orbits(w.identity, 2)
    assert sorted(o.size for o in id_orbits) == [1, 1]
    long = w.reflection(0) * w.reflection(1)
    long_orbits = partition_into_orbits(long, 2)
    assert [o.size for o in long_orbits] == [2]
    invs = {o.invariant for o in id_orbits + long_orbits}
    assert len(invs) == 3


def test_partition_identity_a2_length4():
    w = cached_group("A2")
    report = verify_conjecture(w.identity, 4)
    assert is_parabolic_quasi_coxeter(w.identity)
    assert report.bijection
    assert report.num_factorizations == 27
    sizes = sorted(o.size for o in report.orbits)
    assert sizes == [1, 1, 1, 24]


def test_partition_minus_one_b2_two_orbits():
    w = cached_group("B2")
    c = coxeter_element(w)
    minus = c * c
    orbits = partition_into_orbits(minus, 2)
    assert len(orbits) == 2
    assert all(o.size == 2 for o in orbits)
    keys = {o.invariant.subgroup_key for o in orbits}
    assert len(keys) == 2  # two different Klein subgroups


def test_conjecture_b2_coxeter_length4():
    w = cached_group("B2")
    report = verify_conjecture(coxeter_element(w), 4)
    assert is_parabolic_quasi_coxeter(coxeter_element(w))
    assert report.bijection


def test_conjecture_dihedral_rotations():
    w = cached_group("I2(8)")
    r0, r1 = w.reflection(0), w.reflection(1)
    rho1 = r1 * r0  # generator rotation: quasi-Coxeter
    for n in (2, 4):
        report = verify_conjecture(rho1, n)
        assert is_parabolic_quasi_coxeter(rho1)
        assert report.bijection
    rho2 = rho1 * rho1  # gcd(2,8) > 1: not pqc; verdict recorded as data
    report = verify_conjecture(rho2, 2)
    assert not is_parabolic_quasi_coxeter(rho2)
    assert report.num_factorizations == 8


def test_orbit_records_cover_all_factorizations():
    w = cached_group("A3")
    c = coxeter_element(w)
    orbits = partition_into_orbits(c, 5)
    total = sum(o.size for o in orbits)
    assert total == len(enumerate_factorizations(c, 5))
    reps = [o.representative.factors for o in orbits]
    assert reps == sorted(reps)
    # at length 5, 240 of the 256 factorizations of this B2 reflection
    # generate B2, and they fall into two orbits
    t = cached_group("B2").reflection(2)
    full_orbits = partition_into_orbits(t, 5, full_only=True)
    assert len(full_orbits) == 2
    total = sum(o.size for o in full_orbits)
    assert total == len(enumerate_full_factorizations(t, 5)) == 240
    reps = [o.representative.factors for o in full_orbits]
    assert reps == sorted(reps)
    for o in full_orbits:
        assert o.representative.factors == min(two_sided_orbit(o.representative))


def test_partition_rejects_an_orbit_outside_its_ground_set(monkeypatch):
    w = cached_group("A2")
    blocks = hurwitz._orbit_blocks

    def inflated_blocks(w, e, n):
        found = blocks(w, e, n)
        if n < 4:  # the levels below stay exact, and so does the memo
            return found
        # one orbit claims a member that the enumeration never yields
        return found._replace(sizes=[found.sizes[0] + 1, *found.sizes[1:]])

    monkeypatch.setattr(hurwitz, "_orbit_blocks", inflated_blocks)
    with pytest.raises(BadFactorization):
        partition_into_orbits(coxeter_element(w), 4)


@pytest.mark.parametrize(
    "label,part,parts",
    [("A3", 0, 1), ("B3", 0, 1), ("B2xA1", 0, 1), ("I2(5)", 0, 1)]
    + [("H3", part, 8) for part in range(8)],
)
def test_block_partition_matches_two_sided_oracle(label, part, parts):
    """On every element (H3's split in eight parts) at lengths ``l`` and
    ``l + 2``, the block partition has the oracle orbits' sizes and least
    members, and its witness is the least member of the oracle orbit that
    leads with doubled pairs."""
    w = cached_group(label)
    for g in w.elements()[part::parts]:
        k = reflection_length(g)
        for n in (k, k + 2):
            for orbit in partition_into_orbits(g, n):
                oracle = two_sided_orbit(orbit.representative)
                assert orbit.size == len(oracle)
                assert orbit.representative.factors == min(oracle)
                shaped = [
                    m for m in oracle
                    if all(m[2 * j] == m[2 * j + 1] for j in range((n - k) // 2))
                ]
                assert orbit.lr_witness == min(shaped, default=None)


def test_block_partition_matches_walks_on_d4():
    """At length ``l + 2`` on every element of D4, the code walk from each
    orbit's representative finds the orbit's size."""
    w = cached_group("D4")
    for g in w.elements():
        n = reflection_length(g) + 2
        for orbit in partition_into_orbits(g, n):
            start = encode(orbit.representative.factors, w.num_reflections)
            seen, _ = hurwitz._walk_orbit(w, start, n, None, None)
            assert len(seen) == orbit.size


@pytest.mark.parametrize("label", ["B3", "H3"])
def test_block_partition_independent_of_element_order(label):
    """The block memo fills in whatever order elements are asked for: on
    two freshly built groups, forward and reverse element order give the
    same partitions."""

    def partitions(order):
        w = build_group(label)
        found = {}
        for g in order(w.elements()):
            k = reflection_length(g)
            found[g.serialize()] = [
                (o.representative.factors, o.size, o.invariant, o.lr_witness)
                for n in (k, k + 2)
                for o in partition_into_orbits(g, n)
            ]
        return found

    assert partitions(list) == partitions(lambda els: els[::-1])


def test_partition_rejects_negative_length():
    w = cached_group("A2")
    with pytest.raises(BadFactorization):
        partition_into_orbits(w.identity, -1)
    with pytest.raises(BadFactorization):
        partition_into_orbits(w.identity, -1, full_only=True)
    for enumerate_ in (enumerate_factorizations, enumerate_full_factorizations):
        with pytest.raises(BadFactorization):
            enumerate_(w.identity, -1)


# -- transitivity ----------------------------------------------------------


def test_transitivity_on_reduced():
    a3 = cached_group("A3")
    assert hurwitz_transitive_on_reduced(a3.reflection(0))
    assert hurwitz_transitive_on_reduced(coxeter_element(a3))
    b3 = cached_group("B3")
    c3 = coxeter_element(b3)
    minus = c3 * c3 * c3
    assert not hurwitz_transitive_on_reduced(minus)


def test_transitivity_on_min_full():
    a2 = cached_group("A2")
    assert hurwitz_transitive_on_min_full(coxeter_element(a2))
    assert hurwitz_transitive_on_min_full(a2.reflection(0))
    b2 = cached_group("B2")
    assert hurwitz_transitive_on_min_full(b2.identity)


# -- left normal shape -----------------------------------------------------


def test_lr_shape_predicate():
    w = cached_group("A2")
    assert is_lr_shape(Factorization(w, (0, 1)))  # reduced: zero pairs
    assert is_lr_shape(Factorization(w, (0, 0, 0, 0)))
    assert is_lr_shape(Factorization(w, (1, 1, 0, 2)))
    assert not is_lr_shape(Factorization(w, (0, 1, 0, 1)))


def test_reduced_factorization_is_its_own_witness():
    w = cached_group("A3")
    c = coxeter_element(w)
    f = Factorization(w, enumerate_factorizations(c)[0])
    assert find_lr_witness(f).factors == f.factors


def test_every_length4_factorization_of_a2_cycle_has_witness():
    w = cached_group("A2")
    c = coxeter_element(w)
    for fact in enumerate_factorizations(c, 4):
        witness = find_lr_witness(Factorization(w, fact))
        assert is_lr_shape(witness)
        assert witness.product() == c


def test_partition_attaches_witnesses():
    w = cached_group("B2")
    for orbit in partition_into_orbits(coxeter_element(w), 4):
        assert orbit.lr_witness is not None
        wt = Factorization(w, orbit.lr_witness)
        assert is_lr_shape(wt)


@pytest.mark.parametrize("label", ["B3", "D4"])
def test_orbit_bijection_at_reduced_length(label):
    """At reduced length, orbits of every parabolic quasi-Coxeter element
    match their invariants one-to-one, also beyond rank 2 and type A."""
    from coxorbits.absorder import classify_element

    w = cached_group(label)
    checked = 0
    for g in w.elements():
        cls = classify_element(g)
        if not cls.is_parabolic_quasi_coxeter:
            continue
        report = verify_conjecture(g, cls.length)
        assert report.bijection, g.serialize()
        checked += 1
    assert checked > w.rank

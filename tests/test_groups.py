"""Group construction: labels, censuses, root systems, element arithmetic,
closures and conjugacy.  Matrix action and permutation action are compared
against each other as independent routes."""
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cached_group,
    conjugacy_class,
    element_closure,
    fixed_space_codim,
    geometric_reflection_perm,
    gram_matrix,
    scalar_reflection,
    scalar_root_system,
)
from coxorbits import build_group
from coxorbits.absorder import parabolic_closure, reflections_fixing
from coxorbits.errors import (
    CapExceeded,
    GroupMismatch,
    IndexOutOfRange,
    ParseError,
    UnsupportedType,
)
from coxorbits.groups import (
    CoxeterGroup,
    GroupElement,
    VectorFactor,
    breadth_first,
    reflection_subgroup,
)
from coxorbits.linalg import Matrix, rank
from coxorbits.roots import IrreducibleDatum, cartan_matrix, census, parse_datum
from coxorbits.scalars import PHI, Scalar


# -- labels ----------------------------------------------------------------


@pytest.mark.parametrize(
    "label", ["A1", "A3", "B2", "D4", "E6", "F4", "H3", "I2(5)", "A2xA1", "B2xI2(7)"]
)
def test_parse_round_trip(label):
    assert parse_datum(label).label == label


@pytest.mark.parametrize(
    "bad",
    ["", "A0", "B1", "D3", "E5", "E9", "F3", "H5", "I2(2)", "I2()", "a3", "A3x", "xA3", "C3", "A3 "],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_datum(bad)


@pytest.mark.parametrize(
    "label,order,nrefl",
    [
        ("A1", 2, 1),
        ("A3", 24, 6),
        ("A5", 720, 15),
        ("B2", 8, 4),
        ("B4", 384, 16),
        ("D4", 192, 12),
        ("E6", 51840, 36),
        ("E7", 2903040, 63),
        ("E8", 696729600, 120),
        ("F4", 1152, 24),
        ("H3", 120, 15),
        ("H4", 14400, 60),
        ("I2(7)", 14, 7),
        ("I2(30)", 60, 30),
        ("A2xA1", 12, 4),
        ("A2xI2(5)", 60, 8),
    ],
)
def test_census(label, order, nrefl):
    assert census(parse_datum(label)) == (order, nrefl)


# -- root systems ----------------------------------------------------------


@pytest.mark.parametrize(
    "label,num_roots",
    [
        ("A1", 2),
        ("A3", 12),
        ("B3", 18),
        ("D4", 24),
        ("F4", 48),
        ("H3", 30),
        ("H4", 120),
        ("E6", 72),
        ("E7", 126),
        ("E8", 240),
    ],
)
def test_root_counts_match_census(label, num_roots):
    ir = parse_datum(label).factors[0]
    f = VectorFactor(ir)
    assert len(f.roots) == num_roots
    assert f.num_reflections == census(parse_datum(label))[1]
    # exactly half the roots are positive
    assert 2 * len(f.positive_roots) == len(f.roots)


def test_simple_roots_independent_and_seeded_first():
    for label in ["A4", "B3", "D4", "F4", "H3", "E6"]:
        f = VectorFactor(parse_datum(label).factors[0])
        simples = [f.scalar_vector(v) for v in f.roots[: f.rank]]
        assert rank(Matrix.from_columns(simples)) == f.rank
        assert simples == list(Matrix.identity(f.rank).rows)


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B4", "D4", "D5", "D6", "E6", "E7", "E8",
     "F4", "H3", "H4", "B2xA2xH3"],
)
def test_lattice_roots_match_scalar_closure(label):
    # the root order fixes every serialization, so every report byte
    for ir in parse_datum(label).factors:
        f = VectorFactor(ir)
        roots, positive, neg_of = scalar_root_system(ir)
        assert tuple(f.scalar_vector(v) for v in f.roots) == roots
        assert f.positive_roots == positive
        assert f.neg_of == neg_of
        # the simple reflections, the only ones built from coordinates; the
        # others are checked by test_reflection_perms_match_geometry
        index = {v: i for i, v in enumerate(roots)}
        for t, alpha in enumerate(positive[: f.rank]):
            reflect = scalar_reflection(gram_matrix(ir), roots[alpha])
            assert f.refl_comp(t) == tuple(index[reflect(v)] for v in roots)


#: The Coxeter diagrams, written out independently of the Gram matrices:
#: each bonded pair of simple reflections with the order ``m_ij`` of their
#: product; every pair not listed commutes (``m_ij = 2``).
_DIAGRAMS = {
    "A4": {(0, 1): 3, (1, 2): 3, (2, 3): 3},
    "B4": {(0, 1): 3, (1, 2): 3, (2, 3): 4},
    "D5": {(0, 1): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3},
    "E6": {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3},
    "E7": {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3},
    "E8": {
        (0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
    },
    "F4": {(0, 1): 3, (1, 2): 4, (2, 3): 3},
    "H3": {(0, 1): 5, (1, 2): 3},
    "H4": {(0, 1): 5, (1, 2): 3, (2, 3): 3},
}


@pytest.mark.parametrize("label", sorted(_DIAGRAMS))
def test_simple_reflections_realize_the_coxeter_diagram(label):
    f = VectorFactor(parse_datum(label).factors[0])
    ident = f.identity_comp()
    for i, j in itertools.combinations(range(f.rank), 2):
        # the order of s_i s_j, from the root permutations alone
        prod = f.mult_comp(f.refl_comp(i), f.refl_comp(j))
        power, order = prod, 1
        while power != ident:
            power = f.mult_comp(power, prod)
            order += 1
        assert order == _DIAGRAMS[label].get((i, j), 2), (i, j)


def test_negation_is_a_root_involution():
    f = VectorFactor(IrreducibleDatum("B", 3))
    for i, n in enumerate(f.neg_of):
        assert f.neg_of[n] == i
        assert i != n
    # every reflection permutation commutes with negation
    for t in range(f.num_reflections):
        p = f.refl_comp(t)
        for i in range(len(f.roots)):
            assert p[f.neg_of[i]] == f.neg_of[p[i]]


def test_reflection_fixes_its_root_line_only_in_h3():
    f = VectorFactor(IrreducibleDatum("H", 3))
    for t in range(f.num_reflections):
        p = f.refl_comp(t)
        idx = f.positive_roots[t]
        assert p[idx] == f.neg_of[idx]
        assert f.fixed_comp(p) == (1, [t])
        assert fixed_space_codim(f.matrix_comp(p)) == 1


_CARTAN_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
)


@pytest.mark.parametrize("label", _CARTAN_LABELS)
def test_cartan_integers_match_the_gram_route(label):
    """The diagram's Cartan integers, as pairs ``(p, q)`` for
    ``p + q*phi``, against ``2 G_ij / G_jj`` of the ``Scalar`` Gram matrix."""
    ir = parse_datum(label).factors[0]
    g = gram_matrix(ir).rows
    two = Scalar.from_int(2)
    for i, row in enumerate(cartan_matrix(ir)):
        for j, (p, q) in enumerate(row):
            expected = two * g[i][j] / g[j][j]
            assert Scalar.from_int(p) + Scalar.from_int(q) * PHI == expected, (i, j)


@pytest.mark.parametrize("label", _CARTAN_LABELS)
def test_packed_root_sums_are_exact(label):
    """Packed root coordinates add field by field.  The field width holds
    ``len(roots) * max|c|`` with two bits to spare, and on seeded multisets
    of up to ``len(roots)`` roots every field of the packed sum reads back
    as the coordinate sum, which is zero exactly when the packed sum is.
    The multisets include the largest coordinate taken ``len(roots)``
    times with either sign, few distinct roots repeated, whose sums grow
    large, and roots taken with their negatives, which sum to zero."""
    f = cached_group(label).factors[0]
    n, width = len(f.roots), len(f.roots[0])
    top = max(abs(c) for v in f.roots for c in v)
    assert n * top < 1 << (f._bits - 2)
    extreme = next(i for i, v in enumerate(f.roots) if top in v)
    multisets = [[extreme] * n, [f.neg_of[extreme]] * n]
    rng = random.Random(f"pack-{label}")
    for _ in range(60):
        pool = rng.sample(range(n), rng.randint(1, min(4, n)))
        multisets.append([rng.choice(pool) for _ in range(rng.randint(1, n))])
        half = [rng.randrange(n) for _ in range(rng.randint(1, n // 2))]
        multisets.append(half + [f.neg_of[i] for i in half])
    for ids in multisets:
        total = [sum(c) for c in zip(*(f.roots[i] for i in ids))]
        packed = sum(f._packed[i] for i in ids)
        assert [f._field(packed, i) for i in range(width)] == total, ids
        assert (packed == 0) == (not any(total)), ids


@pytest.mark.parametrize(
    "label", ["A3", "B3", "D5", "F4", "H3", "H4", "E8", "A2xI2(5)"]
)
def test_build_creates_no_scalar(label, monkeypatch):
    """A build, root system and every reflection included, runs on
    integers: the Cartan integers come from the diagram."""

    def refuse(*args):
        raise AssertionError("Scalar created")

    monkeypatch.setattr(Scalar, "__init__", refuse)
    assert build_group(label).num_reflections == census(parse_datum(label))[1]


# -- group arithmetic ------------------------------------------------------


@pytest.mark.parametrize(
    "label", ["A1", "A3", "B3", "D4", "H3", "I2(5)", "I2(12)", "A2xA1", "A2xI2(5)"]
)
def test_materialized_order_matches_census(label):
    w = build_group(label)
    assert len(w.elements()) == w.census_order
    # serializations are pairwise distinct (canonical order is real)
    texts = [g.serialize() for g in w.elements()]
    assert len(set(texts)) == len(texts)
    assert texts == sorted(texts)


def test_reflections_have_order_two_and_codim_one():
    w = build_group("B3")
    for t in w.reflection_ids():
        r = w.reflection(t)
        assert r.order() == 2
        assert (r * r).is_identity
        assert fixed_space_codim(r.matrix()) == 1


def test_codim_one_elements_are_exactly_reflections():
    w = build_group("A3")
    refl = {w.reflection(t) for t in w.reflection_ids()}
    for g in w.elements():
        codim = fixed_space_codim(g.matrix())
        assert (codim == 1) == (g in refl)


def test_matrix_agrees_with_root_permutation():
    for label in ["A3", "B3", "H3"]:
        w = build_group(label)
        f = w.factors[0]
        for g in w.elements()[:40]:
            m = g.matrix()
            p = g.comps[0]
            for i, v in enumerate(f.roots):
                assert m.apply(f.scalar_vector(v)) == f.scalar_vector(f.roots[p[i]])


def test_matrix_of_product_is_product_of_matrices():
    w = build_group("B2")
    els = w.elements()
    for g in els:
        for h in els[:4]:
            assert (g * h).matrix() == g.matrix() * h.matrix()


def test_dihedral_has_no_matrix():
    w = build_group("I2(5)")
    with pytest.raises(UnsupportedType):
        w.identity.matrix()


words_st = st.lists(st.integers(min_value=0, max_value=5), max_size=8)


@settings(max_examples=60, deadline=None)
@given(words_st, words_st)
def test_group_axioms_on_words(wa, wb):
    w = build_group("A3")
    refl = [w.reflection(t) for t in w.reflection_ids()]

    def word(ws):
        g = w.identity
        for t in ws:
            g = g * refl[t]
        return g

    g, h = word(wa), word(wb)
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert (g * g.inverse()).is_identity
    assert g * (h * h.inverse()) == g


def test_cross_group_mixing_raises():
    a = build_group("A2")
    b = build_group("A2")
    with pytest.raises(GroupMismatch):
        a.identity * b.identity


def test_element_equality_is_group_identity_and_comps():
    a = build_group("A2")
    b = build_group("A2")
    g = a.reflection(0)
    assert g == a.reflection(0) and hash(g) == hash(a.reflection(0))
    assert g.comps == b.reflection(0).comps and g != b.reflection(0)
    assert g != a.reflection(1) and g != g.comps
    with pytest.raises(AttributeError):
        g.comps = a.identity.comps
    with pytest.raises(AttributeError):
        g.extra = 1


def test_reflection_index_range():
    w = build_group("A2")
    with pytest.raises(IndexOutOfRange):
        w.reflection(3)
    with pytest.raises(IndexOutOfRange):
        w.reflection(-1)


# -- dihedral specifics ----------------------------------------------------


def test_dihedral_composition_rules():
    w = build_group("I2(30)")
    r = [w.reflection(t) for t in w.reflection_ids()]
    # two reflections compose to a rotation by twice the angle between them
    g = r[2] * r[0]
    assert g.comps[0] == (2, 0)
    assert g.order() == 15
    # conjugating a line by another reflects its index
    assert (r[5] * r[1] * r[5]).comps[0] == (9, 1)
    assert w.conj_refl(1, 5) == 9


def test_dihedral_rotation_orders():
    w = build_group("I2(12)")
    r0, r1 = w.reflection(0), w.reflection(1)
    rot = r1 * r0
    assert rot.order() == 12


def test_dihedral_simple_reflections_generate():
    w = build_group("I2(7)")
    sub = w.closure([w.reflection(0), w.reflection(1)])
    assert sub.is_whole_group


# -- subgroups, closure, conjugacy -----------------------------------------


def test_closure_trivial_and_single():
    w = build_group("A3")
    triv = w.closure([])
    assert triv.order == 1
    one = w.closure([w.reflection(0)])
    assert one.order == 2


def test_closure_of_simples_is_whole_group():
    for label in ["A3", "B3", "I2(9)", "A2xA1"]:
        w = build_group(label)
        sub = w.closure([w.reflection(t) for t in w.simple_reflection_ids])
        assert sub.is_whole_group
        assert w.generates_whole(w.simple_reflection_ids)


def test_generates_whole_matches_closure_order():
    w = build_group("B3")
    ids = list(w.reflection_ids())
    for pair in itertools.combinations(ids, 2):
        sub = w.closure([w.reflection(t) for t in pair])
        assert w.generates_whole(pair) == sub.is_whole_group


@pytest.mark.parametrize("label", ["A2xI2(5)", "B2xA1", "I2(12)"])
def test_reflection_closure_matches_element_closure(label):
    """Every subset of size at most rank+1: the conjugation closure is the
    reflection set of the element-closure subgroup."""
    w = build_group(label)
    for size in range(w.rank + 2):
        for ids in itertools.combinations(w.reflection_ids(), size):
            sub = w.closure([w.reflection(t) for t in ids])
            assert w.reflection_closure(ids) == set(sub.reflection_ids), ids


def test_reflection_closure_matches_element_closure_sampled_h3():
    w = build_group("H3")
    rng = random.Random(2209)
    for _ in range(60):
        ids = rng.sample(range(w.num_reflections), rng.randint(1, w.rank + 1))
        sub = w.closure([w.reflection(t) for t in ids])
        assert w.reflection_closure(ids) == set(sub.reflection_ids), ids
        assert w.generates_whole(ids) == sub.is_whole_group


def _assert_closure_routes_agree(w, gen_sets):
    """Close each generator list on the component route, then again on the
    element-id route once ``w``'s multiplication table exists."""
    by_comps = [w.closure(gens) for gens in gen_sets]
    assert "refl_mult_table" not in w.__dict__
    w.refl_mult_table
    cached = {id(g) for g in w.elements()}
    for gens, a in zip(gen_sets, by_comps):
        b = w.closure(gens)
        assert a == b, gens
        assert (a.order, a.reflection_ids, a.canonical_key) == (
            b.order, b.reflection_ids, b.canonical_key
        ), gens
        # the id route makes no element: its members are the cached ones
        assert {id(g) for g in b.elements} <= cached


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "A2xA1", "I2(5)"])
def test_closure_routes_agree(label):
    """Every reflection subset of size at most rank+1, each group built
    fresh so the first pass has no table."""
    w = build_group(label)
    gen_sets = [
        [w.reflection(t) for t in ids]
        for size in range(w.rank + 2)
        for ids in itertools.combinations(w.reflection_ids(), size)
    ]
    _assert_closure_routes_agree(w, gen_sets)


def test_closure_routes_agree_sampled_h3():
    w = build_group("H3")
    rng = random.Random(1991)
    gen_sets = [
        [w.reflection(t) for t in rng.sample(range(w.num_reflections), k)]
        for k in (rng.randint(1, w.rank + 1) for _ in range(60))
    ]
    _assert_closure_routes_agree(w, gen_sets)


def test_closure_routes_agree_on_non_reflections():
    """Generators that are not reflections: the intersection of two rank-2
    parabolics (identity and a reflection), a Coxeter element, and products
    of two reflections."""
    w = build_group("A3")
    s = [w.reflection(t) for t in w.simple_reflection_ids]
    inter = w.closure(s[:2]).elements & w.closure(s[1:]).elements
    gen_sets = [
        sorted(inter, key=lambda g: g.serialize()),
        [s[0] * s[1] * s[2]],
        [s[0] * s[1], s[2]],
        [w.identity, s[0] * s[2], s[1] * s[2]],
    ]
    _assert_closure_routes_agree(w, gen_sets)


@pytest.mark.parametrize("label", ["B3", "H3", "D4", "A2xI2(5)"])
def test_id_closures_match_element_closure_oracle(label):
    """The parabolic closure of every element, on the table route, against
    the element-multiplication closure: order, reflections, key (SHA-256 of
    the sorted serializations) and membership of every element."""
    w = cached_group(label)
    w.refl_mult_table
    elems = w.elements()
    oracles: dict[tuple[int, ...], frozenset] = {}
    for g in elems:
        fixing = reflections_fixing(g)
        sub = parabolic_closure(g)
        if fixing not in oracles:
            oracles[fixing] = element_closure(w, [w.reflection(t) for t in fixing])
        oracle = oracles[fixing]
        payload = "|".join(sorted(x.serialize() for x in oracle))
        assert sub.order == len(oracle), (label, g)
        assert sub.reflection_ids == tuple(
            t for t in w.reflection_ids() if w.reflection(t) in oracle
        ), (label, g)
        assert sub.canonical_key == hashlib.sha256(payload.encode()).hexdigest()
        assert [x in sub for x in elems] == [x in oracle for x in elems], (label, g)


@pytest.mark.parametrize("label", ["B3", "H3", "D4", "A2xI2(5)"])
def test_reflection_subgroup_memo_matches_fresh_closure(label):
    """The memoized subgroup of every element's parabolic closure against a
    fresh closure on all of its reflections: members, order, reflections
    and key, on a cold group (no table, component route), on a warm one
    (id route, memo hits) and after the memos are cleared."""
    w = build_group(label)
    fixing = [frozenset(reflections_fixing(g)) for g in w.elements()]

    def check():
        for refls in fixing:
            sub = reflection_subgroup(w, refls)
            fresh = w.closure([w.reflection(t) for t in sorted(refls)])
            assert (sub.members, sub.order, sub.reflection_ids, sub.canonical_key) == (
                fresh.members, fresh.order, fresh.reflection_ids, fresh.canonical_key
            ), (label, sorted(refls))

    check()
    assert "refl_mult_table" not in w.__dict__
    w.refl_mult_table
    check()
    w.memos.clear()
    check()
    assert len(w.memos["reflection_subgroup"]) == len(set(fixing))


@pytest.mark.parametrize("label", ["B3", "H3"])
def test_id_closures_build_no_group_element(label, monkeypatch):
    """Once the tables exist, a closure and its ``order``, ``==``, ``hash``,
    ``in`` and ``reflection_ids`` make no :class:`GroupElement`."""
    w = build_group(label)
    w.refl_mult_table
    elems = w.elements()
    fixing = [reflections_fixing(g) for g in elems[::3]]
    gen_sets = [[w.reflection(t) for t in ids] for ids in fixing]
    made = []
    init = GroupElement.__init__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted_init)
    for ids, gens in zip(fixing, gen_sets):
        sub = w.closure(gens)
        again = w.closure(gens[::-1])
        assert sub == again and hash(sub) == hash(again)
        assert sub.order == sum(x in sub for x in elems)
        assert sub.reflection_ids == tuple(sorted(w.reflection_closure(ids)))
    assert made == []
    w.reflection(0)  # the counter sees the elements that are made
    assert made == [1]


def test_e7_closures_build_no_table():
    w = build_group("E7")
    s = [w.reflection(t) for t in w.simple_reflection_ids]
    pair_orders = []
    for i, j in itertools.combinations(range(w.rank), 2):
        m = (s[i] * s[j]).order()
        assert w.closure([s[i], s[j]]).order == 2 * m
        pair_orders.append(m)
    # the E7 diagram is a tree: 6 of its 21 pairs are joined
    assert sorted(pair_orders) == [2] * 15 + [3] * 6
    assert parabolic_closure(s[0] * s[1]).order == 2 * (s[0] * s[1]).order()
    # E7 numbers no elements, so a subgroup holds its members' components
    sub = w.closure(s[:3])
    simple = w.simple_reflection_ids[:3]
    assert sub.reflection_ids == tuple(sorted(w.reflection_closure(simple)))
    assert s[0] * s[2] in sub and s[3] not in sub
    payload = "|".join(sorted(x.serialize() for x in sub.elements))
    assert sub.canonical_key == hashlib.sha256(payload.encode()).hexdigest()
    assert "refl_mult_table" not in w.__dict__
    assert "_whole_group" not in w.__dict__


# -- the breadth-first primitive ---------------------------------------------

# b and c both lead to d, and d and e both lead to f, so a layer's expansion
# repeats states; g is unreachable from a
GRAPH = {
    "a": ["b", "c"],
    "b": ["d", "a"],
    "c": ["d", "e"],
    "d": ["f"],
    "e": ["f", "c"],
    "f": [],
    "g": ["a"],
}


def _search(seen, seeds):
    calls = []

    def expand(layer):
        calls.append(list(layer))
        return (y for x in layer for y in GRAPH[x])

    return breadth_first(seen, seeds, expand), calls


def test_breadth_first_layers():
    seen = set()
    layers, calls = _search(seen, ["a"])
    assert list(layers) == [["a"], ["b", "c"], ["d", "e"], ["f"]]
    assert seen == {"a", "b", "c", "d", "e", "f"}
    # one expand call per layer, the last of which finds nothing new
    assert calls == [["a"], ["b", "c"], ["d", "e"], ["f"]]


def test_breadth_first_seeds_first_in_given_order():
    seen = set()
    layers, _ = _search(seen, ["c", "a"])
    got = list(layers)
    assert got == [["c", "a"], ["d", "e", "b"], ["f"]]
    flat = [x for layer in got for x in layer]
    assert len(flat) == len(set(flat)) == len(seen)


def test_breadth_first_skips_states_already_seen():
    seen = {"d"}
    layers, _ = _search(seen, ["a"])
    assert list(layers) == [["a"], ["b", "c"], ["e"], ["f"]]
    assert seen == {"a", "b", "c", "d", "e", "f"}


def test_breadth_first_is_lazy():
    layers, calls = _search(set(), ["a"])
    assert next(layers) == ["a"]
    assert calls == []
    assert next(layers) == ["b", "c"]
    assert calls == [["a"]]


def test_reflection_closure_rejects_bad_ids():
    w = build_group("B3")
    for bad in (-1, w.num_reflections):
        with pytest.raises(IndexOutOfRange):
            w.generates_whole([bad])
        with pytest.raises(IndexOutOfRange):
            w.reflection_closure([0], [bad])
        with pytest.raises(IndexOutOfRange, match=rf"index {bad} "):
            w.reflection_closure([0, bad, -2])
        with pytest.raises(IndexOutOfRange, match=rf"index {bad} "):
            w.reflection_closure([0, bad], [-2])
        with pytest.raises(IndexOutOfRange):
            w.conj_refl(bad, 0)
        with pytest.raises(IndexOutOfRange):
            w.conj_refl(0, bad)
        with pytest.raises(IndexOutOfRange):
            w.locate_reflection(bad)


def test_closure_cap_raises():
    w = build_group("A3", cap=10)
    with pytest.raises(CapExceeded):
        w.closure([w.reflection(t) for t in w.simple_reflection_ids])


def test_whole_group_cap_and_unsupported():
    small_cap = CoxeterGroup(parse_datum("A4"), cap=100)
    with pytest.raises(CapExceeded):
        small_cap.elements()
    for label in ["E7", "E8"]:
        w = build_group(label)
        with pytest.raises(UnsupportedType):
            w.elements()
        # roots still available
        assert w.factors[0].num_reflections == w.num_reflections


def test_subgroup_identity_by_elements():
    w = build_group("A3")
    a = w.closure([w.reflection(0), w.reflection(1)])
    gens_swapped = w.closure([w.reflection(1), w.reflection(0)])
    assert a == gens_swapped
    assert a.canonical_key == gens_swapped.canonical_key
    b = w.closure([w.reflection(0)])
    assert a != b
    assert a.canonical_key != b.canonical_key


def test_subgroup_reflection_ids():
    w = build_group("A3")
    sub = w.closure([w.reflection(t) for t in w.simple_reflection_ids[:2]])
    # an A2 parabolic contains 3 reflections
    assert len(sub.reflection_ids) == 3


def test_conjugacy_classes_of_reflections():
    w = build_group("B3")
    sizes = set()
    seen = set()
    for t in w.reflection_ids():
        cls = conjugacy_class(w.reflection(t))
        sizes.add(len(cls))
        seen.update(cls)
    # B3 reflections split into the 6 "diagonal" and 3 "coordinate" ones
    assert sizes == {6, 3}
    assert len(seen) == 9
    labels = w.refl_class_labels
    assert len(set(labels)) == 2


def test_conjugacy_single_class_in_a3():
    w = build_group("A3")
    assert len(set(w.refl_class_labels)) == 1
    cls = conjugacy_class(w.reflection(0))
    assert len(cls) == 6


@pytest.mark.parametrize(
    "label, classes",
    [("A3", 5), ("B3", 10), ("H3", 10), ("D4", 13), ("B2xA1", 10)],
)
def test_class_labels_match_multiplication_oracle(label, classes):
    """Each element's class label is the least id of its class, as the
    element-multiplication oracle closes it; the counts are the groups'
    numbers of conjugacy classes."""
    w = cached_group(label)
    ids = w.element_ids()
    labels = w.class_labels
    for g in w.elements():
        cls = conjugacy_class(g)
        assert labels[ids[g.comps]] == min(ids[x.comps] for x in cls)
    assert len(set(labels)) == classes


def test_refl_tables_consistent():
    # the product groups matter: conjugating by the other factor's simple
    # reflections fixes a reflection, and every row must still be reached
    for label in ["A3", "B3", "D4", "H3", "F4", "A2xI2(5)", "A1xI2(5)"]:
        w = build_group(label)
        elems = w.elements()
        ids = w.element_ids()
        table = w.refl_mult_table
        assert len(table) == w.num_reflections
        for t in range(w.num_reflections):
            r = w.reflection(t)
            assert table[t] == [ids[(r * g).comps] for g in elems], (label, t)
        for a in range(w.num_reflections):
            ta = w.reflection(a)
            for b in range(w.num_reflections):
                tb = w.reflection(b)
                expected = tb * ta * tb
                assert w.reflection(w.refl_conj_table[a][b]) == expected


_EVERY = ["A1", "A5", "B4", "D4", "D6", "E6", "F4", "H3", "H4", "B2xA2xH3"]


@pytest.mark.parametrize(
    "label, step", [(label, 1) for label in _EVERY] + [("E7", 10), ("E8", 10)]
)
def test_reflection_perms_match_geometry(label, step):
    # every 10th reflection of E7 and E8 keeps the test cheap
    w = cached_group(label)
    for t in range(0, w.num_reflections, step):
        fi, local = w.locate_reflection(t)
        f = w.factors[fi]
        assert w.reflection(t).comps[fi] == f.refl_comp(local)
        ir = w.datum.factors[fi]
        assert f.refl_comp(local) == geometric_reflection_perm(ir, f, local), (label, t)


@pytest.mark.parametrize("label", ["B3", "H3", "F4", "A2xI2(5)"])
def test_only_simple_reflections_use_coordinates(label, monkeypatch):
    counts = {"action": 0, "multiply": 0}
    action = VectorFactor._simple_action
    multiply = CoxeterGroup.multiply_comps

    def counted_action(self, i):
        counts["action"] += 1
        return action(self, i)

    def counted_multiply(self, g, h):
        counts["multiply"] += 1
        return multiply(self, g, h)

    monkeypatch.setattr(VectorFactor, "_simple_action", counted_action)
    monkeypatch.setattr(CoxeterGroup, "multiply_comps", counted_multiply)
    w = build_group(label)
    vector_rank = sum(f.rank for f in w.factors if f.kind == "vector")
    assert counts["action"] == vector_rank
    # one product per element and simple reflection, made by the closure
    # pass that numbers the elements; the tables reuse them
    w.elements()
    assert counts["multiply"] == len(w.simple_reflection_ids) * w.census_order
    counts["multiply"] = 0
    w.refl_conj_table
    w.refl_mult_table
    assert counts["action"] == vector_rank
    assert counts["multiply"] == 0


def test_product_group_components():
    w = build_group("A2xI2(5)")
    assert w.census_order == 60
    assert w.num_reflections == 8
    assert len(w.elements()) == 60
    # reflections of the two factors commute
    t_vec = w.reflection(0)
    t_dih = w.reflection(5)
    assert t_vec * t_dih == t_dih * t_vec
    assert w.conj_refl(0, 5) == 0

"""Hurwitz action on reflection factorizations.

A factorization of ``g`` is a tuple of global reflection indices whose
product (left to right) is ``g``.  The braid move at position ``i`` sends

    (..., t_i, t_{i+1}, ...)  ->  (..., t_{i+1}, t_{i+1} t_i t_{i+1}, ...)

and its inverse conjugates the other way.  Both preserve the product, the
multiset-span and the generated subgroup, so orbit walks can stay inside the
set of factorizations of one element.

The public API speaks in tuples; the engine works on codes, each
factorization one integer in base ``N = |T|`` with the first factor most
significant (:func:`~coxorbits.absorder.encode`), so integer order is
lexicographic order.  A left move at position ``i`` reads the pair
``(a, b)`` as one base-``N**2`` digit and adds a per-group table entry times
that digit's place value, with no tuple built.  Single orbits (the
element-level API) are walked breadth-first using left moves only: on a
finite set the monoid generated by bijections is the group they generate,
so inverse moves reach nothing new.
Left normal shape is a digit test too: the leading digits must be doubled
pairs ``a N + a``.

A partition does not walk factorizations.  Write ``X_n(e)`` for the
factorizations with ``n`` factors of the element with id ``e``; it is the
disjoint union of the blocks ``{t} x X_{n-1}(t e)``.  The moves
``sigma_2 .. sigma_{n-1}`` fix the first factor, so their orbits are the
blocks ``{t} x O`` with ``O`` a Hurwitz orbit one level down.  The move
``sigma_1`` commutes with ``sigma_3 .. sigma_{n-1}`` and leaves the tail
alone, so it maps each sub-block ``{t1} x {t2} x Q`` (``Q`` an orbit of
``X_{n-2}(t2 t1 e)``) onto ``{t2} x {t2 t1 t2} x Q``; one edge per sub-block
joins the blocks into the orbits (:func:`_orbit_blocks`, memoized per
group).  The pairs of one ``sigma_1``-cycle ``(a, b) -> (b, b a b) -> ..``
share the product ``a b``, hence ``Q``, so their edges form a ring and the
cycle's greatest pair gives none (:func:`_sigma1_marks`).  The partition
counts its ground set without walking it, by
:func:`~coxorbits.absorder.walk_size`; it checks that the orbits cover it
and that each representative and witness multiplies to ``g``.  Moves keep
the generated subgroup, so the full factorizations are a union of orbits,
kept by one generation test per orbit.  Only representatives and witnesses
are decoded.  Transitivity on reduced factorizations is one orbit or none.

Every orbit carries its invariant: the content-addressed key of the subgroup
generated by the factors, together with the multiset of conjugacy classes
(within that subgroup) of the factors.  The invariant is constant along an
orbit; how finely it separates orbits is exactly what the partition
campaigns measure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

from .absorder import (
    decode,
    encode,
    factorizations,
    full_factorization_codes,
    full_reflection_length,
    length_table,
    reflection_length,
    walk_size,
)
from .budget import Budget
from .errors import BadFactorization, IndexOutOfRange, ShapeNotFound
from .groups import CoxeterGroup, GroupElement, close_reflections, per_group


@dataclass(frozen=True)
class Factorization:
    """A reflection factorization: global reflection ids, product untracked
    until asked."""

    group: CoxeterGroup
    factors: tuple[int, ...]

    def __post_init__(self):
        self.group.check_reflection_ids(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> GroupElement:
        g = self.group.identity
        for t in self.factors:
            g = g * self.group.reflection(t)
        return g


@dataclass(frozen=True)
class OrbitInvariant:
    """The orbit invariant: which subgroup the factors generate, and the
    multiset of its conjugacy classes the factors fall into.

    Classes are computed inside the generated subgroup, not inside the whole
    group, and labelled by the lexicographically minimal serialization of
    their members, so labels are intrinsic to the subgroup."""

    subgroup_key: str
    subgroup_order: int
    class_multiset: tuple[str, ...]


@dataclass(frozen=True)
class HurwitzOrbit:
    """One Hurwitz orbit: minimal member, size, invariant, and (when one
    exists) a member in left normal shape."""

    representative: Factorization
    size: int
    invariant: OrbitInvariant
    lr_witness: tuple[int, ...] | None


def hurwitz_move(
    fact: Factorization, i: int, direction: str = "left"
) -> Factorization:
    """Apply the braid move at position ``i`` (1-based, acting on entries
    ``i`` and ``i+1`` of the tuple).

    The left move sends ``(.., a, b, ..)`` to ``(.., b, b a b, ..)``; the
    right move is its inverse, ``(.., a b a, a, ..)``.  In B2, reflections 2
    and 3 are ``s_1 s_0 s_1`` and ``s_0 s_1 s_0``:

    >>> f = Factorization(CoxeterGroup("B2"), (0, 1))
    >>> hurwitz_move(f, 1).factors, hurwitz_move(f, 1, "right").factors
    ((1, 2), (3, 0))
    """
    t = fact.factors
    if not 1 <= i <= len(t) - 1:
        raise IndexOutOfRange(f"move position {i} not in [1, {len(t) - 1}]")
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    conj = fact.group.refl_conj_table
    a, b = t[i - 1], t[i]
    if direction == "right":
        pair = (conj[b][a], a)
    else:
        pair = (b, conj[a][b])
    return Factorization(fact.group, t[: i - 1] + pair + t[i + 1 :])


def orbit_invariant(w: CoxeterGroup, factors: tuple[int, ...]) -> OrbitInvariant:
    """Invariant of the orbit through ``factors`` (computable at any member).

    The class of a factor inside the generated subgroup is its conjugation
    closure under the support, labelled by its least serialization.  All
    but the multiset depends on the generated subgroup alone
    (:func:`_support_data`)."""
    key, order, labels = _support_data(w, w.reflection_closure(factors))
    return OrbitInvariant(
        subgroup_key=key,
        subgroup_order=order,
        class_multiset=tuple(sorted(labels[t] for t in factors)),
    )


@per_group
def _support_data(
    w: CoxeterGroup, refls: frozenset[int]
) -> tuple[str, int, dict[int, str]]:
    """The key and order of the reflection subgroup whose reflections are
    ``refls``, and the class label within it of each of them.  A reflection
    subgroup is fixed by its reflection set (Dyer, *Reflection subgroups of
    Coxeter systems*, 1990), so supports that generate the same subgroup
    share one entry, and this memo closes each subgroup once, by the
    unmemoized :func:`~coxorbits.groups.close_reflections`.  A class is the
    closure of a member under conjugation by ``refls``, which generate the
    subgroup; each class is closed once."""
    sub = close_reflections(w, refls)
    serial = w.reflection_serializations
    labels: dict[int, str] = {}
    for t in sorted(refls):
        if t not in labels:
            members = w.reflection_closure([t], refls)
            labels.update(dict.fromkeys(members, min(serial[x] for x in members)))
    return sub.canonical_key, sub.order, labels


@per_group
def _move_deltas(w: CoxeterGroup) -> list[int]:
    """What a left move adds to a pair's two-digit code:
    ``(a, b) -> (b, b a b)`` adds ``(b - a) N + (conj[a][b] - b)`` to
    ``a N + b``, where ``N = |T|``."""
    conj = w.refl_conj_table
    n_refl = w.num_reflections
    return [
        (b - a) * n_refl + conj[a][b] - b
        for a in range(n_refl)
        for b in range(n_refl)
    ]


@per_group
def _sigma1_marks(w: CoxeterGroup) -> list[bytes]:
    """``marks[a][b]`` is 1 when ``(a, b)`` is the greatest pair (as the
    code ``a N + b``) of its cycle under ``sigma_1: (a, b) -> (b, b a b)``,
    and 0 otherwise.  The cycle keeps the product ``a b`` and has length
    its order (Baumeister-Gobet-Roberts-Wegener, *On the Hurwitz action in
    finite Coxeter groups*, 2017): a fixed ``(a, a)`` is marked, and of a
    commuting pair ``(a, b), (b, a)`` the greater."""
    conj = w.refl_conj_table
    n_refl = w.num_reflections
    marks = [bytearray(n_refl) for _ in range(n_refl)]
    seen = [bytearray(n_refl) for _ in range(n_refl)]
    for a0 in range(n_refl):
        for b0 in range(n_refl):
            if seen[a0][b0]:
                continue
            top = a, b = a0, b0
            while not seen[a][b]:
                seen[a][b] = 1
                top = max(top, (a, b))
                a, b = b, conj[a][b]
            marks[top[0]][top[1]] = 1
    return [bytes(row) for row in marks]


@per_group
def _shared_row(w: CoxeterGroup, row: tuple[int, ...]) -> tuple[int, ...]:
    """The first row equal to ``row`` that was passed here, so equal
    :class:`_Blocks` index rows, most of them empty, are one object."""
    return row


def _lr_shape(n_refl: int, base_length: int) -> Callable[[int], bool]:
    """The left-normal-shape test on codes of factorizations whose product
    has reflection length ``base_length``: the digits before the last
    ``base_length`` are doubled pairs, that is, each base-``N**2`` digit of
    ``code // N**base_length`` is ``a N + a``, a multiple of ``N + 1``
    (reflection length keeps the parity of the factor count)."""
    scale = n_refl**base_length
    square = n_refl * n_refl
    double = n_refl + 1

    def doubled_lead(code: int) -> bool:
        prefix = code // scale
        while prefix:
            prefix, pair = divmod(prefix, square)
            if pair % double:
                return False
        return True

    return doubled_lead


def _walk_factorization(
    fact: Factorization, budget: Budget | None
) -> tuple[set[int], tuple[int, ...] | None]:
    """Breadth-first orbit of ``fact`` under left moves, on codes (see
    :func:`~coxorbits.absorder.encode`): the orbit's codes and the first
    member found in left normal shape, decoded (``None`` when there is
    none).  Each layer charges ``max_states`` with its size.  A left move
    at position ``i`` reads the pair ``c // s_i % N**2`` with
    ``s_i = N**(length - 2 - i)`` and adds its move delta times ``s_i``.

    It serves :func:`hurwitz_orbit` and :func:`find_lr_witness`, which need
    no element table and so work on E7 and E8 too, where
    :func:`_orbit_blocks` cannot run.  It is written out rather than run on
    ``groups.breadth_first``: that primitive calls ``expand`` on each layer
    and rebuilds the layer as a list of the states not seen, while here the
    seen test, the layer list and the shape test share one pass over the
    moves (on the primitive, with tuple states, the ``orbits`` benchmark ran
    4 % slower end to end and 8 % slower at the 90th-percentile item, when
    partitions still walked their orbits).
    """
    w, length, n_refl = fact.group, len(fact), fact.group.num_reflections
    in_shape = _lr_shape(n_refl, reflection_length(fact.product()))
    delta = _move_deltas(w)
    square = n_refl * n_refl
    scales = [n_refl ** (length - 2 - i) for i in range(length - 1)]
    start = encode(fact.factors, n_refl)
    witness = start if in_shape(start) else None
    seen = {start}
    add = seen.add
    frontier = [start]
    while frontier:
        if budget is not None:
            budget.charge("max_states", len(frontier))
        new = []
        push = new.append
        for c in frontier:
            for s in scales:
                nc = c + delta[c // s % square] * s
                if nc not in seen:
                    add(nc)
                    push(nc)
                    if witness is None and in_shape(nc):
                        witness = nc
        frontier = new
    return seen, None if witness is None else decode(witness, length, n_refl)


def hurwitz_orbit(
    fact: Factorization,
    budget: Budget | None = None,
) -> HurwitzOrbit:
    """The full orbit through ``fact``, with representative, size, invariant
    and a left-normal-shape witness when one exists.

    >>> orbit = hurwitz_orbit(Factorization(CoxeterGroup("B2"), (0, 1)))
    >>> orbit.representative.factors, orbit.size, orbit.lr_witness
    ((0, 1), 4, (0, 1))
    """
    w = fact.group
    seen, witness = _walk_factorization(fact, budget)
    least = decode(min(seen), len(fact), w.num_reflections)
    return HurwitzOrbit(
        representative=Factorization(w, least),
        size=len(seen),
        invariant=orbit_invariant(w, fact.factors),
        lr_witness=witness,
    )


def _ground_length(
    g: GroupElement, length: int | None, budget: Budget | None, full_only: bool
) -> int:
    """``length``, by default the reflection length of ``g``, or with
    ``full_only`` its full reflection length."""
    if length is not None:
        return length
    if full_only:
        return full_reflection_length(g, budget)
    w = g.group
    return length_table(w)[w.element_ids()[g.comps]]


def _product_id(w: CoxeterGroup, factors: tuple[int, ...]) -> int:
    """The element id of the product of ``factors``, folding
    ``refl_mult_table`` rows from the identity."""
    mult = w.refl_mult_table
    x = w.element_ids()[w.identity.comps]
    for t in reversed(factors):
        x = mult[t][x]
    return x


def enumerate_factorizations(
    g: GroupElement,
    length: int | None = None,
    budget: Budget | None = None,
) -> list[tuple[int, ...]]:
    """All reflection factorizations of ``g`` with the given number of
    factors (default: its reflection length), in lexicographic order; empty
    when no factorization of that length exists.  A negative length raises
    :class:`BadFactorization`.
    """
    return list(factorizations(g, length, budget))


def enumerate_full_factorizations(
    g: GroupElement,
    length: int | None = None,
    budget: Budget | None = None,
) -> list[tuple[int, ...]]:
    """Factorizations of ``g`` whose factors generate the whole group, at the
    given length (default: the minimum possible, the full reflection
    length)."""
    n = _ground_length(g, length, budget, full_only=True)
    n_refl = g.group.num_reflections
    codes = full_factorization_codes(g, n, budget)
    return [decode(code, n, n_refl) for code in codes]


class _Blocks(NamedTuple):
    """The Hurwitz orbits on ``X_n(e)``, numbered by their least codes:
    each orbit's least code, size and least left-normal-shape code (``None``
    when it has no such member), and ``index[t][j]``, the orbit holding
    ``{t} x (orbit j of X_{n-1}(t e))``.  The rows of ``index`` are shared
    tuples (:func:`_shared_row`)."""

    least: list[int]
    sizes: list[int]
    shaped: list[int | None]
    index: list[tuple[int, ...]]


#: The blocks of an empty ground set, shared by every ``(e, n)`` that has one.
_NO_BLOCKS = _Blocks((), (), (), ())


@per_group
def _orbit_blocks(w: CoxeterGroup, e: int, n: int) -> _Blocks:
    """The Hurwitz orbits on the factorizations with ``n >= 0`` factors of
    the element with id ``e``, from those one and two levels down; none
    when ``n < l(e)`` or ``n - l(e)`` is odd.

    The blocks ``{t} x O``, ``O`` an orbit of ``X_{n-1}(t e)``, are the
    orbits of ``sigma_2 .. sigma_{n-1}``.  For each ``t1``, ``t2`` and orbit
    ``q`` of ``X_{n-2}(t2 t1 e)``, ``sigma_1`` joins the block holding
    ``(t1, t2, q)`` to the one holding ``(t2, t2 t1 t2, q)``; the joined
    blocks are the orbits.  A marked pair (:func:`_sigma1_marks`) is
    skipped: the rest of its cycle already joins its sub-blocks.  Blocks
    come in increasing order of their least codes, and a union keeps the
    lesser root, so every parent pointer points down and an orbit's least
    block is its root and carries its least code.  At zero excess
    ``n - l(e)`` every member has left normal shape; otherwise the shaped
    members are ``(t, t, y)`` with ``y`` shaped in ``X_{n-2}(e)``.

    A child ``X_{n-1}(t e)`` is empty exactly when ``l(t e) > n - 1``, as
    its parity always matches; it is not asked for, so the memo holds no
    empty entry below the ones asked for from outside.

    This is a table build, so it charges no budget.  Its memo keeps a few
    integers per orbit of each ``(e, n)`` reached, never a factorization.
    """
    lengths = length_table(w)
    if n < lengths[e] or (n - lengths[e]) % 2:
        return _NO_BLOCKS
    if n == 0:  # the empty factorization of the identity
        return _Blocks([0], [1], [0], [])
    mult = w.refl_mult_table
    conj = w.refl_conj_table
    marks = _sigma1_marks(w)
    n_refl = w.num_reflections
    scale = n_refl ** (n - 1)
    children = [
        _NO_BLOCKS if lengths[x] > n - 1 else _orbit_blocks(w, x, n - 1)
        for x in (row[e] for row in mult)
    ]
    offset = list(accumulate((len(c.sizes) for c in children), initial=0))
    parent = list(range(offset[-1]))
    for t1, child in enumerate(children):
        row, skip, base = conj[t1], marks[t1], offset[t1]
        for t2, sub in enumerate(child.index):
            if sub and not skip[t2]:
                image = children[t2].index[row[t2]]
                shift = offset[t2]
                for j, k in zip(sub, image):
                    a = base + j
                    while parent[a] != a:  # find, halving the path
                        parent[a] = a = parent[parent[a]]
                    b = shift + k
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                    if a < b:
                        parent[b] = a
                    elif b < a:
                        parent[a] = b
    least: list[int] = []
    sizes: list[int] = []
    block_orbit: list[int] = []
    for t, child in enumerate(children):
        for j, size in enumerate(child.sizes):
            up = parent[len(block_orbit)]  # a lesser block of its orbit, or itself
            if up == len(block_orbit):  # the root is its orbit's least block
                block_orbit.append(len(least))
                least.append(t * scale + child.least[j])
                sizes.append(size)
            else:
                block_orbit.append(block_orbit[up])
                sizes[block_orbit[up]] += size
    index = [
        _shared_row(w, tuple(block_orbit[offset[t]: offset[t + 1]]))
        for t in range(n_refl)
    ]
    if n == lengths[e]:
        shaped: list[int | None] = list(least)
    else:
        shaped = [None] * len(least)
        lower = _orbit_blocks(w, e, n - 2)
        for t, child in enumerate(children):
            doubled = t * (scale + scale // n_refl)
            for j, y in zip(child.index[t], lower.shaped):
                if y is not None:
                    o = index[t][j]
                    if shaped[o] is None or doubled + y < shaped[o]:
                        shaped[o] = doubled + y
    return _Blocks(least, sizes, shaped, index)


def partition_into_orbits(
    g: GroupElement,
    length: int | None = None,
    budget: Budget | None = None,
    full_only: bool = False,
) -> list[HurwitzOrbit]:
    """Partition the factorizations of ``g`` at one length into Hurwitz
    orbits, sorted by their minimal representatives.

    The orbits come from :func:`_orbit_blocks`, with each orbit's least
    member as its representative and its least member in left normal
    shape as its witness; only these are decoded.  The ground set is
    counted, not walked: :func:`~coxorbits.absorder.walk_size` gives its
    size and charges ``max_tuples`` with the walker's total at once, and
    then each kept orbit charges ``max_states`` with its size.  Orbits
    whose sizes do not add up to that count, or whose representative or
    witness is not a factorization of ``g``, raise
    :class:`BadFactorization`, as does a negative length.

    With ``full_only`` only the factorizations whose factors generate the
    whole group are partitioned, at the full reflection length by
    default.  Moves keep the generated subgroup, so these are the orbits
    whose representative generates, one ``w.generates_whole`` test each.
    """
    w = g.group
    n_refl = w.num_reflections
    e = w.element_ids()[g.comps]
    n = _ground_length(g, length, budget, full_only)
    total = walk_size(g, n, budget).codes
    blocks = _orbit_blocks(w, e, n)
    if sum(blocks.sizes) != total:
        raise BadFactorization("orbits do not cover their ground set")
    orbits = []
    for least, size, shaped in zip(blocks.least, blocks.sizes, blocks.shaped):
        rep = decode(least, n, n_refl)
        if full_only and not w.generates_whole(rep):
            continue
        if budget is not None:
            budget.charge("max_states", size)
        witness = None if shaped is None else decode(shaped, n, n_refl)
        if any(_product_id(w, f) != e for f in (rep, witness) if f is not None):
            raise BadFactorization("an orbit lies outside its ground set")
        invariant = orbit_invariant(w, rep)
        orbits.append(HurwitzOrbit(Factorization(w, rep), size, invariant, witness))
    return orbits


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of checking, for one element and one length, that Hurwitz
    orbits (each represented by its least member) are in bijection with
    their invariants."""

    element: GroupElement
    length: int
    orbits: tuple[HurwitzOrbit, ...]
    num_factorizations: int
    bijection: bool


def verify_conjecture(
    g: GroupElement, length: int, budget: Budget | None = None
) -> ConjectureReport:
    """Partition all length-``length`` factorizations of ``g`` into orbits
    (:func:`partition_into_orbits`) and test that distinct orbits carry
    distinct invariants.

    The bijection is guaranteed when ``g`` is parabolic quasi-Coxeter; for
    other elements the verdict is data, not a theorem.  ``g`` is not
    classified here.
    """
    orbits = tuple(partition_into_orbits(g, length, budget))
    invariants = [o.invariant for o in orbits]
    return ConjectureReport(
        element=g,
        length=length,
        orbits=orbits,
        num_factorizations=sum(o.size for o in orbits),
        bijection=len(set(invariants)) == len(orbits),
    )


def hurwitz_transitive_on_reduced(
    g: GroupElement, budget: Budget | None = None
) -> bool:
    """Whether the Hurwitz action is transitive on the reduced reflection
    factorizations of ``g``: at most one orbit in :func:`_orbit_blocks`,
    which must cover the ground set that
    :func:`~coxorbits.absorder.walk_size` counts and charges.  Beyond one
    factorization, ``max_states`` is charged orbit 0's size, as a walk from
    the least factorization would."""
    w = g.group
    e = w.element_ids()[g.comps]
    n = length_table(w)[e]
    total = walk_size(g, n, budget).codes
    sizes = _orbit_blocks(w, e, n).sizes
    if sum(sizes) != total:
        raise BadFactorization("orbits do not cover their ground set")
    if budget is not None and total > 1:
        budget.charge("max_states", sizes[0])
    return len(sizes) <= 1


def find_lr_witness(
    fact: Factorization, budget: Budget | None = None
) -> Factorization:
    """A member of ``fact``'s orbit in left normal shape: leading doubled
    pairs followed by a reduced factorization of the product.

    Raises :class:`ShapeNotFound` if the orbit contains no such member.

    >>> find_lr_witness(Factorization(CoxeterGroup("B2"), (0, 1, 0, 0))).factors
    (0, 0, 3, 0)
    """
    _, witness = _walk_factorization(fact, budget)
    if witness is None:
        raise ShapeNotFound(
            f"no left-normal-shape member in the orbit of {fact.factors}"
        )
    return Factorization(fact.group, witness)


def is_lr_shape(fact: Factorization) -> bool:
    """Whether ``fact`` consists of doubled pairs followed by a reduced
    factorization of its product: the walk's shape test on its code.

    >>> w = CoxeterGroup("B2")
    >>> [is_lr_shape(Factorization(w, f)) for f in [(0, 0, 0, 1), (0, 1, 0, 0)]]
    [True, False]
    """
    n_refl = fact.group.num_reflections
    in_shape = _lr_shape(n_refl, reflection_length(fact.product()))
    return in_shape(encode(fact.factors, n_refl))

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
that digit's place value, with no tuple built.  Single orbits are walked
breadth-first using left moves only: on a finite set the monoid generated by
bijections is the group they generate, so inverse moves reach nothing new.
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
group).  The partition still enumerates its ground set with
:func:`~coxorbits.absorder.factorization_codes`, or
:func:`~coxorbits.absorder.full_factorization_codes` for full
factorizations, keeping only its count, and checks that the orbits cover
it.  Only representatives and witnesses are decoded.

Every orbit carries its invariant: the content-addressed key of the subgroup
generated by the factors, together with the multiset of conjugacy classes
(within that subgroup) of the factors.  The invariant is constant along an
orbit; how finely it separates orbits is exactly what the partition
campaigns measure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple

from .absorder import (
    decode,
    encode,
    factorization_codes,
    factorizations,
    full_factorization_codes,
    full_reflection_length,
    length_table,
    reflection_length,
)
from .budget import Budget
from .errors import BadFactorization, IndexOutOfRange, ShapeNotFound
from .groups import CoxeterGroup, GroupElement


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
    right move is its inverse, ``(.., a b a, a, ..)``.
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
    but the multiset depends on the support alone (:func:`_support_data`)."""
    key, order, labels = _support_data(w, frozenset(factors))
    return OrbitInvariant(
        subgroup_key=key,
        subgroup_order=order,
        class_multiset=tuple(sorted(labels[t] for t in factors)),
    )


def _support_data(
    w: CoxeterGroup, support: frozenset[int]
) -> tuple[str, int, dict[int, str]]:
    """The generated subgroup's key and order, and each support reflection's
    class label within it (cached per group and support)."""
    memo = w._cache.setdefault("support_data", {})
    if support not in memo:
        gens = sorted(support)
        sub = w.closure([w.reflection(t) for t in gens])
        serial = w.reflection_serializations
        labels = {
            t: min(serial[x] for x in w.reflection_closure([t], gens))
            for t in gens
        }
        memo[support] = (sub.canonical_key, sub.order, labels)
    return memo[support]


def _move_deltas(w: CoxeterGroup) -> list[int]:
    """What a left move adds to a pair's two-digit code (cached per group):
    ``(a, b) -> (b, b a b)`` adds ``(b - a) N + (conj[a][b] - b)`` to
    ``a N + b``, where ``N = |T|``."""
    if "move_deltas" not in w._cache:
        conj = w.refl_conj_table
        n_refl = w.num_reflections
        w._cache["move_deltas"] = [
            (b - a) * n_refl + conj[a][b] - b
            for a in range(n_refl)
            for b in range(n_refl)
        ]
    return w._cache["move_deltas"]


def _lr_shape(
    n_refl: int, length: int, base_length: int
) -> Callable[[int], bool] | None:
    """The left-normal-shape test on codes of ``length`` factors whose
    product has reflection length ``base_length``: the leading
    ``length - base_length`` digits are doubled pairs, that is, each
    base-``N**2`` digit of ``code // N**base_length`` is ``a N + a``, a
    multiple of ``N + 1``.  ``None`` when the excess is odd or negative,
    since then no member has the shape."""
    excess = length - base_length
    if excess < 0 or excess % 2:
        return None
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


def _walk_orbit(
    w: CoxeterGroup,
    start: int,
    length: int,
    budget: Budget | None,
    in_shape: Callable[[int], bool] | None,
) -> tuple[set[int], int | None]:
    """Breadth-first orbit of one coded factorization (see
    :func:`~coxorbits.absorder.encode`) of ``length`` factors under left
    moves.

    Returns the orbit's codes and the first member found that passes
    ``in_shape`` (``None`` when ``in_shape`` is ``None`` or nothing passes).
    A left move at position ``i`` reads the pair ``c // s_i % N**2`` with
    ``s_i = N**(length - 2 - i)`` and adds its move delta times ``s_i``.

    It serves :func:`hurwitz_orbit` and :func:`find_lr_witness`, which need
    no element table and so work on E7 and E8 too, where
    :func:`_orbit_blocks` cannot run, and :func:`_transitive`, where a block
    version measured slower on the ``classify`` benchmark (0.071-0.120 s
    against 0.064-0.093 s of item time, three runs each on a 2-core VM). It
    is written out rather than run on ``groups.breadth_first``: that
    primitive calls ``expand`` on each layer and rebuilds the layer as a
    list of the states not seen, while here the seen test, the layer list
    and the shape test share one pass over the moves (on the primitive, with
    tuple states, the ``orbits`` benchmark ran 4 % slower end to end and 8 %
    slower at the 90th-percentile item, when partitions still walked their
    orbits).
    """
    delta = _move_deltas(w)
    n_refl = w.num_reflections
    square = n_refl * n_refl
    scales = [n_refl ** (length - 2 - i) for i in range(length - 1)]
    witness = start if in_shape is not None and in_shape(start) else None
    looking = in_shape is not None and witness is None
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
                    if looking and in_shape(nc):
                        witness, looking = nc, False
        frontier = new
    return seen, witness


def _walk_factorization(
    fact: Factorization, budget: Budget | None
) -> tuple[set[int], tuple[int, ...] | None]:
    """:func:`_walk_orbit` from ``fact`` with the left-normal-shape test for
    its product: the orbit's codes and the decoded witness."""
    w, n, n_refl = fact.group, len(fact), fact.group.num_reflections
    in_shape = _lr_shape(n_refl, n, reflection_length(fact.product()))
    seen, witness = _walk_orbit(w, encode(fact.factors, n_refl), n, budget, in_shape)
    return seen, None if witness is None else decode(witness, n, n_refl)


def hurwitz_orbit(
    fact: Factorization,
    budget: Budget | None = None,
) -> HurwitzOrbit:
    """The full orbit through ``fact``, with representative, size, invariant
    and a left-normal-shape witness when one exists."""
    w = fact.group
    seen, witness = _walk_factorization(fact, budget)
    least = decode(min(seen), len(fact), w.num_reflections)
    return HurwitzOrbit(
        representative=Factorization(w, least),
        size=len(seen),
        invariant=orbit_invariant(w, fact.factors),
        lr_witness=witness,
    )


def _ground_set(
    g: GroupElement, length: int | None, budget: Budget | None, full_only: bool
) -> tuple[int, Iterator[int]]:
    """The length and the codes of the factorizations of ``g`` with
    ``length`` factors, lazily, in increasing (lexicographic) order.  With
    ``full_only`` only those whose factors generate the whole group, and the
    length defaults to the full reflection length."""
    if length is None:
        w = g.group
        length = (
            full_reflection_length(g, budget)
            if full_only
            else length_table(w)[w.element_ids()[g.comps]]
        )
    codes = full_factorization_codes if full_only else factorization_codes
    return length, codes(g, length, budget)


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
    n, codes = _ground_set(g, length, budget, full_only=True)
    n_refl = g.group.num_reflections
    return [decode(code, n, n_refl) for code in codes]


class _Blocks(NamedTuple):
    """The Hurwitz orbits on ``X_n(e)``, numbered by their least codes:
    each orbit's least code, size and least left-normal-shape code (``None``
    when it has no such member), and ``index[t][j]``, the orbit holding
    ``{t} x (orbit j of X_{n-1}(t e))``."""

    least: list[int]
    sizes: list[int]
    shaped: list[int | None]
    index: list[list[int]]


def _orbit_blocks(w: CoxeterGroup, e: int, n: int) -> _Blocks:
    """The Hurwitz orbits on the factorizations with ``n >= 0`` factors of
    the element with id ``e``, from those one and two levels down (cached
    per group); none when ``n < l(e)`` or ``n - l(e)`` is odd.

    The blocks ``{t} x O``, ``O`` an orbit of ``X_{n-1}(t e)``, are the
    orbits of ``sigma_2 .. sigma_{n-1}``.  For each ``t1``, ``t2`` and orbit
    ``q`` of ``X_{n-2}(t2 t1 e)``, ``sigma_1`` joins the block holding
    ``(t1, t2, q)`` to the one holding ``(t2, t2 t1 t2, q)``; the joined
    blocks are the orbits.  Blocks come in increasing order of their least
    codes, so an orbit's first block carries its least code.  At zero
    excess ``n - l(e)`` every member has left normal shape; otherwise the
    shaped members are ``(t, t, y)`` with ``y`` shaped in ``X_{n-2}(e)``.

    This is a table build, so it charges no budget.  Its memo keeps a few
    integers per orbit of each ``(e, n)`` reached, never a factorization.
    """
    memo = w._cache.setdefault("orbit_blocks", {})
    if (e, n) in memo:
        return memo[e, n]
    lengths = length_table(w)
    if n < lengths[e] or (n - lengths[e]) % 2:
        return _Blocks([], [], [], [])
    if n == 0:  # the empty factorization of the identity
        memo[e, n] = _Blocks([0], [1], [0], [])
        return memo[e, n]
    mult = w.refl_mult_table
    conj = w.refl_conj_table
    n_refl = w.num_reflections
    scale = n_refl ** (n - 1)
    children = [_orbit_blocks(w, mult[t][e], n - 1) for t in range(n_refl)]
    offset = list(accumulate((len(c.sizes) for c in children), initial=0))
    parent = list(range(offset[-1]))

    def find(b: int) -> int:
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    for t1, child in enumerate(children):
        row = conj[t1]
        for t2, sub in enumerate(child.index):
            if sub and t2 != t1:  # (t, t, q) is fixed by sigma_1
                image = children[t2].index[row[t2]]
                for q, j in enumerate(sub):
                    a = find(offset[t1] + j)
                    b = find(offset[t2] + image[q])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
    least: list[int] = []
    sizes: list[int] = []
    block_orbit: list[int] = []
    for t, child in enumerate(children):
        for j, size in enumerate(child.sizes):
            root = find(offset[t] + j)
            if root == len(block_orbit):  # the root is its orbit's least block
                block_orbit.append(len(least))
                least.append(t * scale + child.least[j])
                sizes.append(size)
            else:
                block_orbit.append(block_orbit[root])
                sizes[block_orbit[root]] += size
    index = [block_orbit[offset[t]: offset[t + 1]] for t in range(n_refl)]
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
    memo[e, n] = _Blocks(least, sizes, shaped, index)
    return memo[e, n]


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
    enumerated once, in increasing order, and only counted, charging
    ``max_tuples`` as it goes; the orbits kept are those whose least member
    it yields, and each charges ``max_states`` with its size.  Kept orbits
    that do not cover exactly the enumerated codes raise
    :class:`BadFactorization`, as does a negative length.

    With ``full_only`` the ground set is restricted to factorizations whose
    factors generate the whole group.  Moves keep the generated subgroup,
    so an orbit lies in it exactly when its least member does.
    """
    w = g.group
    n_refl = w.num_reflections
    n, codes = _ground_set(g, length, budget, full_only)
    blocks = _orbit_blocks(w, w.element_ids()[g.comps], n)
    first = {code: o for o, code in enumerate(blocks.least)}
    enumerated = 0
    kept = []
    for code in codes:
        enumerated += 1
        if code in first:
            kept.append(first[code])
    orbits = []
    for o in kept:
        size, shaped = blocks.sizes[o], blocks.shaped[o]
        if budget is not None:
            budget.charge("max_states", size)
        rep = decode(blocks.least[o], n, n_refl)
        orbits.append(
            HurwitzOrbit(
                representative=Factorization(w, rep),
                size=size,
                invariant=orbit_invariant(w, rep),
                lr_witness=None if shaped is None else decode(shaped, n, n_refl),
            )
        )
    if sum(o.size for o in orbits) != enumerated:
        raise BadFactorization("orbits do not cover their ground set")
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


def _transitive(
    w: CoxeterGroup, ground: tuple[int, Iterator[int]], budget: Budget | None
) -> bool:
    """Whether one orbit is all of the coded ground set.  Moves keep the
    product, the length and the generated subgroup, so the orbit of the
    first code never leaves the ground set and its size decides.  The
    ground set is counted, not kept."""
    n, codes = ground
    first = next(codes, None)
    total = sum(1 for _ in codes) + (first is not None)
    if total <= 1:
        return True
    seen, _ = _walk_orbit(w, first, n, budget, None)
    return len(seen) == total


def hurwitz_transitive_on_reduced(
    g: GroupElement, budget: Budget | None = None
) -> bool:
    """Whether the Hurwitz action is transitive on the reduced reflection
    factorizations of ``g``."""
    return _transitive(g.group, _ground_set(g, None, budget, False), budget)


def hurwitz_transitive_on_min_full(
    g: GroupElement, budget: Budget | None = None
) -> bool:
    """Whether the Hurwitz action is transitive on the minimum-length full
    reflection factorizations of ``g``."""
    return _transitive(g.group, _ground_set(g, None, budget, True), budget)


def find_lr_witness(
    fact: Factorization, budget: Budget | None = None
) -> Factorization:
    """A member of ``fact``'s orbit in left normal shape: leading doubled
    pairs followed by a reduced factorization of the product.

    Raises :class:`ShapeNotFound` if the orbit contains no such member.
    """
    _, witness = _walk_factorization(fact, budget)
    if witness is None:
        raise ShapeNotFound(
            f"no left-normal-shape member in the orbit of {fact.factors}"
        )
    return Factorization(fact.group, witness)


def is_lr_shape(fact: Factorization) -> bool:
    """Whether ``fact`` consists of doubled pairs followed by a reduced
    factorization of its product: the walk's shape test on its code."""
    n_refl = fact.group.num_reflections
    in_shape = _lr_shape(n_refl, len(fact), reflection_length(fact.product()))
    return in_shape is not None and in_shape(encode(fact.factors, n_refl))

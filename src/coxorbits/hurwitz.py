"""Hurwitz action on reflection factorizations.

A factorization of ``g`` is a tuple of global reflection indices whose
product (left to right) is ``g``.  The braid move at position ``i`` sends

    (..., t_i, t_{i+1}, ...)  ->  (..., t_{i+1}, t_{i+1} t_i t_{i+1}, ...)

and its inverse conjugates the other way.  Both preserve the product, the
multiset-span and the generated subgroup, so orbit walks can stay inside the
set of factorizations of one element.

The engine works on plain index tuples against a precomputed reflection
conjugation table, so a move is two table lookups and a slice.  Orbits are
walked breadth-first using left moves only: on a finite set the monoid
generated by bijections is the group they generate, so inverse moves reach
nothing new.

Every orbit carries its invariant: the content-addressed key of the subgroup
generated by the factors, together with the multiset of conjugacy classes
(within that subgroup) of the factors.  The invariant is constant along an
orbit; how finely it separates orbits is exactly what the partition
campaigns measure.
"""
from __future__ import annotations

from dataclasses import dataclass

from .absorder import (
    factorizations,
    full_reflection_length,
    generation_memo,
    is_parabolic_quasi_coxeter,
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
        n = self.group.num_reflections
        for t in self.factors:
            if not 0 <= t < n:
                raise IndexOutOfRange(f"reflection index {t} not in [0, {n})")

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
    closure under the support, labelled by its least serialization."""
    support = sorted(set(factors))
    sub = w.closure([w.reflection(t) for t in support])
    serial = w.reflection_serializations
    labels = {
        t: min(serial[x] for x in w.reflection_closure([t], support))
        for t in support
    }
    multiset = tuple(sorted(labels[t] for t in factors))
    return OrbitInvariant(
        subgroup_key=sub.canonical_key,
        subgroup_order=sub.order,
        class_multiset=multiset,
    )


def _doubled_pairs_lead(t: tuple[int, ...], base_length: int) -> bool:
    """Whether the first ``len(t) - base_length`` factors of ``t`` are
    doubled pairs (the excess must be even)."""
    excess = len(t) - base_length
    if excess % 2:
        return False
    return all(t[2 * k] == t[2 * k + 1] for k in range(excess // 2))


def _walk_orbit(
    w: CoxeterGroup,
    start: tuple[int, ...],
    budget: Budget | None,
    base_length: int | None,
) -> tuple[set[tuple[int, ...]], tuple[int, ...] | None]:
    """Breadth-first orbit of one factorization under left moves.

    Returns the orbit set and the first member found in left normal shape
    (``None`` when ``base_length`` is ``None`` or no member has the shape).
    """
    conj = w.refl_conj_table
    n = len(start)
    positions = range(n - 1)
    shape_witness = None

    def in_shape(t: tuple[int, ...]) -> bool:
        return base_length is not None and _doubled_pairs_lead(t, base_length)

    seen = {start}
    if in_shape(start):
        shape_witness = start
    frontier = [start]
    while frontier:
        if budget is not None:
            budget.charge("max_states", len(frontier))
        new = []
        for t in frontier:
            for i in positions:
                a, b = t[i], t[i + 1]
                nt = t[:i] + (b, conj[a][b]) + t[i + 2 :]
                if nt not in seen:
                    seen.add(nt)
                    new.append(nt)
                    if shape_witness is None and in_shape(nt):
                        shape_witness = nt
        frontier = new
    return seen, shape_witness


def hurwitz_orbit(
    fact: Factorization,
    budget: Budget | None = None,
) -> HurwitzOrbit:
    """The full orbit through ``fact``, with representative, size, invariant
    and a left-normal-shape witness when one exists."""
    w = fact.group
    base = reflection_length(fact.product())
    seen, witness = _walk_orbit(w, fact.factors, budget, base)
    return HurwitzOrbit(
        representative=Factorization(w, min(seen)),
        size=len(seen),
        invariant=orbit_invariant(w, fact.factors),
        lr_witness=witness,
    )


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
    if length is not None and length < 0:
        raise BadFactorization(f"no factorizations of length {length}")
    return list(factorizations(g, length, budget))


def enumerate_full_factorizations(
    g: GroupElement,
    length: int | None = None,
    budget: Budget | None = None,
) -> list[tuple[int, ...]]:
    """Factorizations of ``g`` whose factors generate the whole group, at the
    given length (default: the minimum possible, the full reflection
    length)."""
    if length is None:
        length = full_reflection_length(g, budget)
    whole = generation_memo(g.group)
    return [f for f in enumerate_factorizations(g, length, budget) if whole(f)]


def partition_into_orbits(
    g: GroupElement,
    length: int | None = None,
    budget: Budget | None = None,
    full_only: bool = False,
) -> list[HurwitzOrbit]:
    """Partition the factorizations of ``g`` at one length into Hurwitz
    orbits, sorted by their minimal representatives.

    With ``full_only`` the ground set is restricted to factorizations whose
    factors generate the whole group; moves never leave that set.
    """
    w = g.group
    if full_only:
        facts = enumerate_full_factorizations(g, length, budget)
    else:
        facts = enumerate_factorizations(g, length, budget)
    base = length_table(w)[w.element_ids()[g.comps]]
    remaining = set(facts)
    orbits = []
    for seed in facts:  # lex order; orbits appear by minimal member
        if seed not in remaining:
            continue
        seen, witness = _walk_orbit(w, seed, budget, base)
        if not seen <= remaining:
            raise BadFactorization("orbit escaped its enumeration ground set")
        remaining -= seen
        orbits.append(
            HurwitzOrbit(
                representative=Factorization(w, min(seen)),
                size=len(seen),
                invariant=orbit_invariant(w, seed),
                lr_witness=witness,
            )
        )
    return orbits


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of checking, for one element and one length, that Hurwitz
    orbits are in bijection with their invariants."""

    element: GroupElement
    length: int
    subject_is_pqc: bool
    orbits: tuple[HurwitzOrbit, ...]
    num_factorizations: int
    bijection: bool


def verify_conjecture(
    g: GroupElement, length: int, budget: Budget | None = None
) -> ConjectureReport:
    """Partition all length-``length`` factorizations of ``g`` into orbits
    and test that distinct orbits carry distinct invariants.

    The bijection is guaranteed when ``g`` is parabolic quasi-Coxeter; for
    other elements the verdict is data, not a theorem, and is recorded
    either way.
    """
    orbits = tuple(partition_into_orbits(g, length, budget))
    invariants = [o.invariant for o in orbits]
    return ConjectureReport(
        element=g,
        length=length,
        subject_is_pqc=is_parabolic_quasi_coxeter(g, budget=budget),
        orbits=orbits,
        num_factorizations=sum(o.size for o in orbits),
        bijection=len(set(invariants)) == len(orbits),
    )


def hurwitz_transitive_on_reduced(
    g: GroupElement, budget: Budget | None = None
) -> bool:
    """Whether the Hurwitz action is transitive on the reduced reflection
    factorizations of ``g``."""
    facts = enumerate_factorizations(g, None, budget)
    if len(facts) <= 1:
        return True
    seen, _ = _walk_orbit(g.group, facts[0], budget, None)
    return len(seen) == len(facts)


def hurwitz_transitive_on_min_full(
    g: GroupElement, budget: Budget | None = None
) -> bool:
    """Whether the Hurwitz action is transitive on the minimum-length full
    reflection factorizations of ``g``."""
    facts = enumerate_full_factorizations(g, None, budget)
    if len(facts) <= 1:
        return True
    seen, _ = _walk_orbit(g.group, facts[0], budget, None)
    return len(seen & set(facts)) == len(facts)


def find_lr_witness(
    fact: Factorization, budget: Budget | None = None
) -> Factorization:
    """A member of ``fact``'s orbit in left normal shape: leading doubled
    pairs followed by a reduced factorization of the product.

    Raises :class:`ShapeNotFound` if the orbit contains no such member.
    """
    w = fact.group
    base = reflection_length(fact.product())
    _, witness = _walk_orbit(w, fact.factors, budget, base)
    if witness is None:
        raise ShapeNotFound(
            f"no left-normal-shape member in the orbit of {fact.factors}"
        )
    return Factorization(w, witness)


def is_lr_shape(fact: Factorization) -> bool:
    """Whether ``fact`` consists of doubled pairs followed by a reduced
    factorization of its product."""
    return _doubled_pairs_lead(fact.factors, reflection_length(fact.product()))

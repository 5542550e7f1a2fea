"""Reflection length, absolute order and the quasi-Coxeter classification.

Reflection length is computed geometrically as the codimension of the fixed
space, never by graph search; the Cayley-graph distance is kept in a separate
module as an independent check.  Absolute order is the partial order
``u <= v  iff  l(u) + l(u^-1 v) = l(v)``.  All the geometry here runs on the
factors' span routine (see :mod:`~coxorbits.groups`), without branching on
the factor kind: lengths are moved-space dimensions, a reflection fixes a
common fixed space when its root lies in the sum of the moved spaces, and
root ranks are counted by inserting roots into the same basis.

Whole-group work reads lengths from ``length_table`` (one geometric length
per element, cached per group) through element ids.  "Below some
quasi-Coxeter element" is a cached down-set: the elements reached from the
quasi-Coxeter elements by left reflection multiplications that each drop
the length by one.  ``absolute_leq`` keeps the geometric definition, which
needs no element table.

The parabolic closure of an element is the pointwise stabilizer of its fixed
space, realized here as the subgroup generated by every reflection whose
hyperplane contains that fixed space.  An element is quasi-Coxeter when some
reduced reflection factorization of it generates the whole group, and
parabolic quasi-Coxeter when some reduced factorization generates a parabolic
subgroup; that subgroup is then necessarily the parabolic closure, since a
reduced factorization always generates a subgroup of the closure with the
same fixed space.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .budget import Budget
from .errors import GroupMismatch
from .groups import CoxeterGroup, GroupElement, Subgroup


def reflection_length(g: GroupElement) -> int:
    """Codimension of the fixed space of ``g`` (factor by factor, exact)."""
    return sum(
        f.fixed_codim_comp(c) for f, c in zip(g.group.factors, g.comps)
    )


def length_table(w: CoxeterGroup) -> list[int]:
    """Reflection length of every element, indexed by canonical element id."""
    if "length_table" not in w._cache:
        w._cache["length_table"] = [
            reflection_length(g) for g in w.elements()
        ]
    return w._cache["length_table"]


def absolute_leq(u: GroupElement, v: GroupElement) -> bool:
    """Absolute order: ``u`` lies on a geodesic from the identity to ``v``."""
    if u.group is not v.group:
        raise GroupMismatch("absolute order compares elements of one group")
    return reflection_length(u) + reflection_length(u.inverse() * v) == reflection_length(v)


def _fixing_reflections(w: CoxeterGroup, comps_list: list[tuple]) -> list[int]:
    """Global ids of all reflections fixing (pointwise) the common fixed
    space of the given elements: those whose root lies in the sum of the
    moved spaces, since ``(cap Fix g_k)^perp = sum Im(g_k - 1)``."""
    out: list[int] = []
    for fi, f in enumerate(w.factors):
        basis = f.span(v for c in comps_list for v in f.moved_vectors(c[fi]))
        out.extend(
            w.global_reflection_id(fi, t)
            for t in range(f.num_reflections)
            if f.in_span(basis, f.root_vector(t))
        )
    return out


def reflections_fixing(g: GroupElement) -> tuple[int, ...]:
    """Reflections whose hyperplane contains the fixed space of ``g``,
    decided by linear algebra on the fixed spaces alone."""
    return tuple(_fixing_reflections(g.group, [g.comps]))


def parabolic_closure(g: GroupElement) -> Subgroup:
    """The smallest parabolic subgroup containing ``g``: the subgroup
    generated by the reflections fixing ``Fix(g)`` pointwise."""
    w = g.group
    ids = _fixing_reflections(w, [g.comps])
    return w.closure([w.reflection(t) for t in ids])


def is_parabolic(sub: Subgroup) -> bool:
    """Whether a reflection subgroup is the pointwise stabilizer of its own
    fixed space."""
    w = sub.group
    gen_comps = [g.comps for g in sub.generators]
    ids = _fixing_reflections(w, gen_comps)
    stab = w.closure([w.reflection(t) for t in ids])
    return stab == sub


def reduced_factorizations(
    g: GroupElement, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """All reduced reflection factorizations of ``g``, in lexicographic order
    of the global reflection indices."""
    w = g.group
    lengths = length_table(w)
    mult = w.refl_mult_table
    ids = w.element_ids()
    n_refl = w.num_reflections

    start = ids[g.comps]
    prefix: list[int] = []

    def walk(q: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        for t in range(n_refl):
            nq = mult[t][q]
            if lengths[nq] == remaining - 1:
                prefix.append(t)
                yield from walk(nq, remaining - 1)
                prefix.pop()

    yield from walk(start, lengths[start])


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one element against the quasi-Coxeter notions."""

    element: GroupElement
    length: int
    closure_is_whole: bool
    is_parabolic_quasi_coxeter: bool
    is_quasi_coxeter: bool
    witness: tuple[int, ...] | None
    all_factorizations_agree: bool | None


def classify_element(
    g: GroupElement, strict: bool = False, budget: Budget | None = None
) -> Classification:
    """Decide the quasi-Coxeter properties of ``g``.

    By default the search stops at the first reduced factorization that
    generates the parabolic closure.  With ``strict=True`` every reduced
    factorization is closed and the report also states whether they all
    agreed (they provably do, which makes this a useful cross-check).
    """
    w = g.group
    below = frozenset(_fixing_reflections(w, [g.comps]))
    # the parabolic closure's reflections are exactly ``below``, and T
    # generates W, so the closure is W exactly when ``below`` is all of T
    whole = len(below) == w.num_reflections
    witness = None
    outcomes: set[bool] = set()
    for fact in reduced_factorizations(g, budget):
        # the factors lie in the parabolic closure, so they generate it
        # exactly when their reflection closure is all of ``below``
        hit = w.reflection_closure(fact) == below
        outcomes.add(hit)
        if hit and witness is None:
            witness = fact
            if not strict:
                break
    is_pqc = witness is not None
    return Classification(
        element=g,
        length=length_table(w)[w.element_ids()[g.comps]],
        closure_is_whole=whole,
        is_parabolic_quasi_coxeter=is_pqc,
        is_quasi_coxeter=is_pqc and whole,
        witness=witness,
        all_factorizations_agree=(len(outcomes) <= 1) if strict else None,
    )


def is_parabolic_quasi_coxeter(
    g: GroupElement, strict: bool = False, budget: Budget | None = None
) -> bool:
    return classify_element(g, strict=strict, budget=budget).is_parabolic_quasi_coxeter


def is_quasi_coxeter(
    g: GroupElement, strict: bool = False, budget: Budget | None = None
) -> bool:
    return classify_element(g, strict=strict, budget=budget).is_quasi_coxeter


def quasi_coxeter_elements(w: CoxeterGroup) -> tuple[GroupElement, ...]:
    """All quasi-Coxeter elements, in canonical order (cached per group)."""
    if "qc_elements" not in w._cache:
        n = w.rank
        found = [
            g
            for g, length in zip(w.elements(), length_table(w))
            if length == n and is_quasi_coxeter(g)
        ]
        w._cache["qc_elements"] = tuple(found)
    return w._cache["qc_elements"]


def _below_quasi_coxeter_ids(w: CoxeterGroup) -> frozenset[int]:
    """Ids of the elements below some quasi-Coxeter element (cached).

    A search from the quasi-Coxeter elements down the steps ``q -> t q``
    with ``l(t q) = l(q) - 1``.  It reaches exactly the ``x`` with
    ``q = y x`` and ``l(y) + l(x) = l(q)``; since ``x^-1 q`` is a conjugate
    of ``y`` and length is a class function, those are the ``x <= q`` in
    absolute order.
    """
    if "below_qc" not in w._cache:
        lengths = length_table(w)
        mult = w.refl_mult_table
        ids = w.element_ids()
        seen = {ids[c.comps] for c in quasi_coxeter_elements(w)}
        stack = list(seen)
        while stack:
            q = stack.pop()
            for row in mult:
                x = row[q]
                if lengths[x] == lengths[q] - 1 and x not in seen:
                    seen.add(x)
                    stack.append(x)
        w._cache["below_qc"] = frozenset(seen)
    return w._cache["below_qc"]


def below_some_quasi_coxeter(g: GroupElement) -> bool:
    """Whether ``g`` is below some quasi-Coxeter element in absolute order."""
    w = g.group
    return w.element_ids()[g.comps] in _below_quasi_coxeter_ids(w)


def _root_rank_tracker(w: CoxeterGroup):
    """Incremental rank of the span of chosen reflections' roots.

    Returns (state0, insert) where ``insert(state, t)`` gives the new state
    and whether the rank grew; the state holds one span basis per factor.
    """
    def insert(state, t: int):
        fi, local = w.locate_reflection(t)
        f = w.factors[fi]
        part, grew = f.span_insert(state[fi], f.root_vector(local))
        return state[:fi] + (part,) + state[fi + 1 :], grew

    state0 = tuple(() for _ in w.factors)
    return state0, insert


def full_reflection_length(
    g: GroupElement, budget: Budget | None = None
) -> int:
    """Length of the shortest reflection factorization of ``g`` whose factors
    generate the whole group.

    Searches lengths ``l(g), l(g)+2, ...`` (parity is forced) by depth-first
    search.  Pruning: the remaining quotient must still factor into the
    remaining slots, and the roots chosen so far plus one per remaining slot
    must be able to span.  A branch succeeds as soon as its chosen
    reflections already generate the group, because the quotient-length
    check guarantees the remaining slots can be filled.
    """
    w = g.group
    n = w.rank
    lengths = length_table(w)
    mult = w.refl_mult_table
    ids = w.element_ids()
    n_refl = w.num_reflections
    start = ids[g.comps]
    base = lengths[start]
    state0, insert = _root_rank_tracker(w)

    # the span of a set of roots does not depend on insertion order, so the
    # (basis, rank) reached by one order serves every order of the same set
    rank_memo: dict[frozenset[int], tuple] = {}
    closure_memo: dict[frozenset[int], bool] = {}

    def generates(chosen: frozenset[int]) -> bool:
        if chosen not in closure_memo:
            closure_memo[chosen] = w.generates_whole(chosen)
        return closure_memo[chosen]

    def search(q: int, remaining: int, chosen: frozenset[int], rank_state, rank_now: int) -> bool:
        if rank_now == n and generates(chosen):
            return True
        if remaining == 0:
            return False
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        for t in range(n_refl):
            nq = mult[t][q]
            need = lengths[nq]
            if need > remaining - 1 or (remaining - 1 - need) % 2:
                continue
            key = chosen | {t}
            if key not in rank_memo:
                new_state, grew = insert(rank_state, t)
                rank_memo[key] = (new_state, rank_now + grew)
            new_state, new_rank = rank_memo[key]
            if new_rank + (remaining - 1) < n:
                continue
            if search(nq, remaining - 1, key, new_state, new_rank):
                return True
        return False

    target = base
    while True:
        if search(start, target, frozenset(), state0, 0):
            return target
        target += 2
        # a reduced factorization extended by generator pairs always works
        assert target <= base + 2 * n, "no full factorization found in bound"

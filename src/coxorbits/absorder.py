"""Reflection length, absolute order and the quasi-Coxeter classification.

Reflection length is computed geometrically as the codimension of the fixed
space, never by graph search; the Cayley-graph distance is kept in a separate
module as an independent check.  Absolute order is the partial order
``u <= v  iff  l(u) + l(u^-1 v) = l(v)``.  All the geometry here runs on the
factors' span routine (see :mod:`~coxorbits.groups`), without branching on
the factor kind: lengths are moved-space dimensions, and a reflection fixes
a common fixed space when its root lies in the sum of the moved spaces.

Whole-group work reads lengths from ``length_table`` (one geometric length
per element, cached per group) through element ids.  "Below some
quasi-Coxeter element" is a cached down-set: the elements reached from the
quasi-Coxeter elements by left reflection multiplications that each drop
the length by one.  ``absolute_leq`` keeps the geometric definition, which
needs no element table.

Every factorization search is one lazy walk over ``refl_mult_table``
(:func:`factorizations`): reduced factorizations, factorizations of a fixed
length, and the full reflection length, which is the first length at which
some factorization's reflection set generates W.

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
from typing import Callable, Iterator

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


def factorizations(
    g: GroupElement, length: int | None = None, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """The reflection factorizations of ``g`` with ``length`` factors
    (default: its reflection length), lazily, in lexicographic order of the
    global reflection indices.

    A step ``q -> t q`` is kept exactly when ``l(t q) < remaining``: a
    reflection changes reflection length by one, so the quotient's length
    keeps the parity of the remaining slots, and a completion exists exactly
    when it fits.  With one slot left the quotient is a reflection, which is
    the last factor.  Nothing is yielded when ``length < l(g)`` or
    ``length - l(g)`` is odd.
    """
    w = g.group
    lengths = length_table(w)
    mult = w.refl_mult_table
    n_refl = w.num_reflections
    ids = w.element_ids()
    start = ids[g.comps]
    n = lengths[start] if length is None else length
    if n < lengths[start] or (n - lengths[start]) % 2:
        return
    if n == 0:  # only the identity has a factorization of length 0
        yield ()
        return
    identity = ids[w.identity.comps]
    reflection_of = {mult[t][identity]: t for t in range(n_refl)}
    prefix: list[int] = []

    def walk(q: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        if remaining == 1:
            yield (*prefix, reflection_of[q])
            return
        for t in range(n_refl):
            nq = mult[t][q]
            if lengths[nq] < remaining:
                prefix.append(t)
                yield from walk(nq, remaining - 1)
                prefix.pop()

    yield from walk(start, n)


def reduced_factorizations(
    g: GroupElement, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """All reduced reflection factorizations of ``g``, in lexicographic order
    of the global reflection indices."""
    return factorizations(g, None, budget)


def generation_memo(w: CoxeterGroup) -> Callable[[tuple[int, ...]], bool]:
    """``generates_whole`` on the reflection set of a factorization,
    memoized by that set for the life of the returned test."""
    memo: dict[frozenset[int], bool] = {}

    def whole(fact: tuple[int, ...]) -> bool:
        key = frozenset(fact)
        if key not in memo:
            memo[key] = w.generates_whole(key)
        return memo[key]

    return whole


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


def full_reflection_length(
    g: GroupElement, budget: Budget | None = None
) -> int:
    """Length of the shortest reflection factorization of ``g`` whose factors
    generate the whole group.

    Tries the lengths ``l(g), l(g)+2, ...`` (parity is forced) in turn and
    stops at the first whose factorizations include one generating W; a
    reduced factorization extended by pairs of simple reflections shows
    that ``l(g) + 2n`` always suffices.  Generation is decided on the
    reflection set, so no linear algebra runs here.
    """
    w = g.group
    base = length_table(w)[w.element_ids()[g.comps]]
    whole = generation_memo(w)
    for length in range(base, base + 2 * w.rank + 1, 2):
        if any(whole(f) for f in factorizations(g, length, budget)):
            return length
    raise AssertionError("no full factorization found in bound")

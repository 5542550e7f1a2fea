"""Reflection length, absolute order and the quasi-Coxeter classification.

Reflection length is computed geometrically as the codimension of the fixed
space, never by graph search; the Cayley-graph distance is kept in a separate
module as an independent check.  Absolute order is the partial order
``u <= v  iff  l(u) + l(u^-1 v) = l(v)``.  All the geometry here runs on the
factors' span routine (see :mod:`~coxorbits.groups`), without branching on
the factor kind: lengths are moved-space dimensions, and a reflection fixes
a common fixed space when its root lies in the sum of the moved spaces.

Whole-group queries read only the integer tables, through element ids:
``length_table`` (one geometric length per element, cached per group) and
``refl_mult_table``.  They decide "the reflection ``t`` lies below ``g``" by
one rule, ``l(t g) = l(g) - 1`` (:func:`_lowering_reflections`, the
reflections fixing ``Fix(g)`` by Carter's lemma): classification, and the
cached down-set "below some quasi-Coxeter element", the elements reached
from the quasi-Coxeter elements by steps that each drop the length by one.
Fixed-space geometry serves the element-level API, which needs no element
table, and the definition of the length table.

Every factorization search is one lazy walk over ``refl_mult_table``
(:func:`factorization_codes`): reduced factorizations, factorizations of a
fixed length, and full ones, whose reflection set generates W
(:func:`full_factorization_codes`, the one filter for them).  The walk
yields each factorization as one base-``|T|`` integer (:func:`encode`),
which the Hurwitz layer counts and walks directly; :func:`factorizations` is
its tuple view.  It alone rejects a negative length, for every view.

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
from itertools import chain
from typing import Iterator

from .budget import Budget
from .errors import BadFactorization, GroupMismatch
from .groups import CoxeterGroup, GroupElement, Subgroup, breadth_first


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
    return w.closure([w.reflection(t) for t in reflections_fixing(g)])


def is_parabolic(sub: Subgroup) -> bool:
    """Whether a reflection subgroup is the pointwise stabilizer of its own
    fixed space."""
    w = sub.group
    gen_comps = [g.comps for g in sub.generators]
    ids = _fixing_reflections(w, gen_comps)
    stab = w.closure([w.reflection(t) for t in ids])
    return stab == sub


def _lowering_reflections(w: CoxeterGroup, e: int) -> list[int]:
    """The reflections ``t`` with ``l(t g) = l(g) - 1``, for ``g`` the
    element with id ``e``, read from the integer tables.

    By Carter's lemma (Carter, *Conjugacy classes in the Weyl group*, 1972)
    ``l(t g) < l(g)`` exactly when ``Fix(g)`` lies in the hyperplane of
    ``t``: these are the reflections of the parabolic closure of ``g``,
    which :func:`reflections_fixing` finds by linear algebra.
    """
    lengths = length_table(w)
    mult = w.refl_mult_table
    target = lengths[e] - 1
    return [t for t in range(w.num_reflections) if lengths[mult[t][e]] == target]


def encode(factors: tuple[int, ...], n_refl: int) -> int:
    """The code of a factorization: its factors as the digits of one integer
    in base ``n_refl``, the first factor most significant.  For a fixed
    length, integer order is lexicographic order."""
    code = 0
    for t in factors:
        code = code * n_refl + t
    return code


def decode(code: int, length: int, n_refl: int) -> tuple[int, ...]:
    """The factorization with ``length`` factors whose code is ``code``."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, n_refl)
    return tuple(out)


def factorization_codes(
    g: GroupElement, length: int | None = None, budget: Budget | None = None
) -> Iterator[int]:
    """The codes (see :func:`encode`) of the reflection factorizations of
    ``g`` with ``length`` factors (default: its reflection length), lazily,
    in increasing order.

    A step ``q -> t q`` is kept exactly when ``l(t q) < remaining``: a
    reflection changes reflection length by one, so the quotient's length
    keeps the parity of the remaining slots, and a completion exists exactly
    when it fits.  With one slot left the quotient is a reflection, which is
    the last factor, so the last two slots of a quotient ``q`` are the
    two-digit codes of the ``t`` with ``l(t q) = 1``, listed once per ``q``.
    Nothing is yielded when ``length < l(g)`` or ``length - l(g)`` is odd,
    and a negative length raises :class:`BadFactorization`.

    The walk is depth first over paths, not states, so it does not run on
    ``groups.breadth_first``; an explicit stack keeps it free of a
    generator frame per node.  Each node and each leaf charges
    ``max_tuples`` with ``|T|``, in depth-first order.
    """
    w = g.group
    lengths = length_table(w)
    mult = w.refl_mult_table
    n_refl = w.num_reflections
    ids = w.element_ids()
    start = ids[g.comps]
    n = lengths[start] if length is None else length
    if n < 0:
        raise BadFactorization(f"no factorizations of length {n}")
    if n < lengths[start] or (n - lengths[start]) % 2:
        return
    if n == 0:  # only the identity has a factorization of length 0
        yield 0
        return
    identity = ids[w.identity.comps]
    reflection_of = {mult[t][identity]: t for t in range(n_refl)}
    if n == 1:
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        yield reflection_of[start]
        return
    square = n_refl * n_refl
    pairs: dict[int, list[int]] = {}
    stack = [(start, n, 0)]
    while stack:
        q, remaining, code = stack.pop()
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        if remaining > 2:
            stack.extend(
                (nq, remaining - 1, code * n_refl + t)
                for t in range(n_refl - 1, -1, -1)
                if lengths[nq := mult[t][q]] < remaining
            )
            continue
        if q not in pairs:
            pairs[q] = [
                t * n_refl + reflection_of[mult[t][q]]
                for t in range(n_refl)
                if lengths[mult[t][q]] == 1
            ]
        code *= square
        for pair in pairs[q]:
            if budget is not None:
                budget.charge("max_tuples", n_refl)
            yield code + pair


def factorizations(
    g: GroupElement, length: int | None = None, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """The reflection factorizations of ``g`` with ``length`` factors
    (default: its reflection length) as tuples of global reflection ids,
    lazily, in lexicographic order: :func:`factorization_codes`, decoded."""
    w = g.group
    if length is None:
        length = length_table(w)[w.element_ids()[g.comps]]
    n_refl = w.num_reflections
    for code in factorization_codes(g, length, budget):
        yield decode(code, length, n_refl)


def reduced_factorizations(
    g: GroupElement, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """All reduced reflection factorizations of ``g``, in lexicographic order
    of the global reflection indices."""
    return factorizations(g, None, budget)


def full_factorization_codes(
    g: GroupElement, length: int, budget: Budget | None = None
) -> Iterator[int]:
    """The codes from :func:`factorization_codes` whose reflection set
    generates W, lazily, in increasing order.  Generation is decided once
    per reflection set for the life of the call, by ``w.generates_whole``."""
    return _full_codes(g, length, budget, {})


def _full_codes(
    g: GroupElement,
    length: int,
    budget: Budget | None,
    memo: dict[frozenset[int], bool],
) -> Iterator[int]:
    """:func:`full_factorization_codes` deciding generation through
    ``memo``, which may span several calls."""
    w = g.group
    n_refl = w.num_reflections
    for code in factorization_codes(g, length, budget):
        key = frozenset(decode(code, length, n_refl))
        if key not in memo:
            memo[key] = w.generates_whole(key)
        if memo[key]:
            yield code


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

    Like every whole-group query it reads only the integer tables: the
    closure's reflections are :func:`_lowering_reflections`.  Fixed-space
    geometry serves the element-level API, the definition of the length
    table and the ``carter`` campaign's independent check.
    """
    w = g.group
    e = w.element_ids()[g.comps]
    below = frozenset(_lowering_reflections(w, e))
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
        length=length_table(w)[e],
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
        mult = w.refl_mult_table
        ids = w.element_ids()
        tops = [ids[c.comps] for c in quasi_coxeter_elements(w)]
        layers = breadth_first(set(), tops, lambda layer: (
            mult[t][q] for q in layer for t in _lowering_reflections(w, q)
        ))
        w._cache["below_qc"] = frozenset(chain.from_iterable(layers))
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
    stops at the first at which :func:`full_factorization_codes` yields; a
    reduced factorization extended by pairs of simple reflections shows
    that ``l(g) + 2n`` always suffices.  Generation is decided on the
    reflection set, once per set across every length tried, so no linear
    algebra runs here.
    """
    w = g.group
    base = length_table(w)[w.element_ids()[g.comps]]
    memo: dict[frozenset[int], bool] = {}
    for length in range(base, base + 2 * w.rank + 1, 2):
        # code 0 is the factorization (0, ..., 0), so test for None
        if next(_full_codes(g, length, budget, memo), None) is not None:
            return length
    raise AssertionError("no full factorization found in bound")

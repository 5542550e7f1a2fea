"""Reflection length, absolute order and the quasi-Coxeter classification.

Reflection length is the Cayley distance over T.  :func:`length_table`
finds it for the whole group, breadth first along ``refl_mult_table`` rows;
:func:`reflection_length` computes one element's as the codimension of its
fixed space (Carter, 1972), and the ``carter`` campaign checks that they
agree.  :func:`fixed_space` reads that codimension and the reflections
fixing the fixed space from one walk over the cycles of each factor's
component, with no elimination: the mean of the powers of ``g`` projects
onto ``Fix(g)``, so a reflection fixes ``Fix(g)`` exactly when its root's
cycle sums to zero, and ``dim Fix(g)`` is the trace of that projection.
Absolute order is ``u <= v  iff  l(u) + l(u^-1 v) = l(v)``.  The common
fixed space of several elements (:func:`is_parabolic`) runs on the factors'
span routine, a fraction-free echelon on a vector factor.  Both run without
branching on the factor kind (see :mod:`~coxorbits.groups`) and on integers,
never on ``Scalar`` values: a vector factor's roots are integer lattice
vectors.

Whole-group queries read only the integer tables, through element ids:
``length_table`` and ``refl_mult_table``.  They decide "the reflection
``t`` lies below ``g``" by one rule, ``l(t g) = l(g) - 1``
(:func:`_lowering_reflections`, the reflections fixing ``Fix(g)`` by
Carter's lemma): classification, and the cached down-set "below some
quasi-Coxeter element", the elements reached from the quasi-Coxeter
elements by steps that each drop the length by one.  Being (parabolic)
quasi-Coxeter is a class function, so whole-group sweeps classify one
element per conjugacy class and spread its verdict through the class table
``w.class_labels`` (:func:`class_filter`).  Fixed-space geometry serves the
element-level API, which needs no element table.

Every factorization enumeration is one lazy walk over ``refl_mult_table``
(:func:`factorization_codes`): reduced factorizations, factorizations of a
fixed length, and full ones, whose reflection set generates W
(:func:`full_factorization_codes`, the filter the full enumeration uses;
Hurwitz partitions of full factorizations keep whole orbits instead).  The
walk yields each factorization as one base-``|T|`` integer
(:func:`encode`), which the Hurwitz layer walks directly;
:func:`factorizations` is its tuple view.  :func:`walk_size` counts the
walk's codes and visits without walking, by a recursion cached per group;
the Hurwitz layer counts its ground sets with it.  The walk and its size
share the one rule that rejects a negative length, for every view.

The full reflection length enumerates nothing: it is a search over states
``(quotient, slots left, reflection closure of the factors so far)``,
memoized per group with its closure steps (:func:`_full_search`).

The parabolic closure of an element is the pointwise stabilizer of its fixed
space, realized here as the subgroup generated by every reflection whose
hyperplane contains that fixed space, closed once per reflection set
(``groups.reflection_subgroup``).  An element is quasi-Coxeter when some
reduced reflection factorization of it generates the whole group, and
parabolic quasi-Coxeter when some reduced factorization generates a parabolic
subgroup; that subgroup is then necessarily the parabolic closure, since a
reduced factorization always generates a subgroup of the closure with the
same fixed space.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from .budget import Budget
from .errors import BadFactorization, GroupMismatch
from .groups import (
    CoxeterGroup,
    GroupElement,
    Subgroup,
    breadth_first,
    per_group,
    reflection_subgroup,
)


def reflection_length(g: GroupElement) -> int:
    """Codimension of the fixed space of ``g`` (factor by factor, exact)."""
    return fixed_space(g)[0]


@per_group
def length_table(w: CoxeterGroup) -> list[int]:
    """Reflection length of every element, indexed by canonical element id:
    the Cayley distance over T, layer by layer."""
    one = w.element_ids()[w.identity.comps]
    layers = breadth_first(set(), [one], lambda layer: (
        row[e] for e in layer for row in w.refl_mult_table
    ))
    lengths = [0] * len(w.elements())
    for d, layer in enumerate(layers):
        for e in layer:
            lengths[e] = d
    return lengths


def absolute_leq(u: GroupElement, v: GroupElement) -> bool:
    """Absolute order: ``u`` lies on a geodesic from the identity to ``v``.

    >>> w = CoxeterGroup("B2")
    >>> s, t = w.reflection(0), w.reflection(1)
    >>> absolute_leq(s, s * t), absolute_leq(s * t, s)
    (True, False)
    """
    if u.group is not v.group:
        raise GroupMismatch("absolute order compares elements of one group")
    return reflection_length(u) + reflection_length(u.inverse() * v) == reflection_length(v)


def _moved_bases(w: CoxeterGroup, comps_list: list[tuple]) -> list[tuple]:
    """For each factor, a basis of the sum of the given elements' moved
    spaces ``Im(g_k - 1)``, which is ``(cap Fix g_k)^perp``: its size is the
    codimension of the common fixed space in that factor.  Only the common
    fixed space of several elements needs it (:func:`is_parabolic`); one
    element's comes from :func:`fixed_space`."""
    return [
        f.span(v for c in comps_list for v in f.moved_vectors(c[fi]))
        for fi, f in enumerate(w.factors)
    ]


def fixed_space(g: GroupElement) -> tuple[int, tuple[int, ...]]:
    """The codimension of the fixed space of ``g`` and the reflections
    whose hyperplane contains it, factor by factor from one walk over the
    cycles of ``g`` (``fixed_comp``): its :func:`reflection_length` and its
    :func:`reflections_fixing`.

    >>> w = CoxeterGroup("B2")  # a rotation fixes only 0
    >>> fixed_space(w.reflection(0) * w.reflection(1))
    (2, (0, 1, 2, 3))
    """
    w = g.group
    codim, fixing = 0, []
    for fi, (f, c) in enumerate(zip(w.factors, g.comps)):
        k, local = f.fixed_comp(c)
        codim += k
        fixing.extend(w.global_reflection_id(fi, t) for t in local)
    return codim, tuple(fixing)


def reflections_fixing(g: GroupElement) -> tuple[int, ...]:
    """Reflections whose hyperplane contains the fixed space of ``g``,
    decided by geometry on the fixed space alone."""
    return fixed_space(g)[1]


def parabolic_closure(g: GroupElement) -> Subgroup:
    """The smallest parabolic subgroup containing ``g``: the subgroup
    generated by the reflections fixing ``Fix(g)`` pointwise.

    >>> w = CoxeterGroup("B2")  # two commuting reflections fix only 0
    >>> parabolic_closure(w.reflection(0) * w.reflection(2)).is_whole_group
    True
    """
    return reflection_subgroup(g.group, frozenset(reflections_fixing(g)))


def is_parabolic(sub: Subgroup) -> bool:
    """Whether a reflection subgroup is the pointwise stabilizer of its own
    fixed space.  Two commuting reflections of B2 are not: they fix only 0.

    >>> w = CoxeterGroup("B2")
    >>> [is_parabolic(w.closure(w.reflection(t) for t in s)) for s in [(0,), (0, 2)]]
    [True, False]
    """
    w = sub.group
    bases = _moved_bases(w, [g.comps for g in sub.generators])
    # a reflection fixes the common fixed space when its root lies in the
    # moved space; where that is the whole factor, every reflection does
    fixing = frozenset(
        w.global_reflection_id(fi, t)
        for fi, (f, basis) in enumerate(zip(w.factors, bases))
        for t in range(f.num_reflections)
        if len(basis) == f.rank or f.in_span(basis, f.root_vector(t))
    )
    return reflection_subgroup(w, fixing) == sub


def _lowering_reflections(w: CoxeterGroup, e: int) -> list[int]:
    """The reflections ``t`` with ``l(t g) = l(g) - 1``, for ``g`` the
    element with id ``e``, read from the integer tables.

    By Carter's lemma (Carter, *Conjugacy classes in the Weyl group*, 1972)
    ``l(t g) < l(g)`` exactly when ``Fix(g)`` lies in the hyperplane of
    ``t``: these are the reflections of the parabolic closure of ``g``,
    which :func:`reflections_fixing` finds from the cycles of ``g``.
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


def _walk_root(g: GroupElement, length: int | None) -> tuple[int, int]:
    """The element id of ``g`` and the number of factors, by default its
    reflection length: the one place a negative length raises
    :class:`BadFactorization`, for the walk and for its size."""
    w = g.group
    start = w.element_ids()[g.comps]
    n = length_table(w)[start] if length is None else length
    if n < 0:
        raise BadFactorization(f"no factorizations of length {n}")
    return start, n


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
    ``max_tuples`` with ``|T|``, in depth-first order; :func:`walk_size`
    counts both without walking.
    """
    w = g.group
    start, n = _walk_root(g, length)
    lengths = length_table(w)
    mult = w.refl_mult_table
    n_refl = w.num_reflections
    if n < lengths[start] or (n - lengths[start]) % 2:
        return
    if n == 0:  # only the identity has a factorization of length 0
        yield 0
        return
    identity = w.element_ids()[w.identity.comps]
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


class WalkSize(NamedTuple):
    """The size of one run of :func:`factorization_codes`: the codes it
    yields, and the nodes and leaves it visits, each of which charges
    ``max_tuples`` with ``|T|``."""

    codes: int
    visits: int


def walk_size(
    g: GroupElement, length: int | None = None, budget: Budget | None = None
) -> WalkSize:
    """The size of the walk :func:`factorization_codes` makes for ``g`` and
    ``length``, counted without walking; with a budget, it charges the
    walk's ``max_tuples`` total at once.

    Write ``N(e, n)`` for the walk from the element with id ``e`` with
    ``n`` slots left.  It is empty when ``n < l(e)`` or ``n - l(e)`` is
    odd.  Otherwise it visits the node and steps to ``(t e, n - 1)``
    exactly when ``l(t e) < n``, so ``N(e, n)`` sums ``N(t e, n - 1)``
    over those ``t``, plus one visit.  At ``n = 0``, which only the
    identity reaches, the walk yields one code and visits nothing, so two
    slots left count the ``t`` with ``l(t e) = 1``, one leaf each, as the
    walker does.  A walk that visits nothing charges nothing.
    """
    start, n = _walk_root(g, length)
    w = g.group
    size = _walk_size(w, start, n)
    if budget is not None and size.visits:
        budget.charge("max_tuples", w.num_reflections * size.visits)
    return size


@per_group
def _walk_size(w: CoxeterGroup, e: int, n: int) -> WalkSize:
    """:func:`walk_size` on element ids, for ``n >= 0``."""
    lengths = length_table(w)
    if n < lengths[e] or (n - lengths[e]) % 2:
        return WalkSize(0, 0)
    if n == 0:
        return WalkSize(1, 0)
    codes = visits = 0
    for row in w.refl_mult_table:
        if lengths[row[e]] < n:
            below = _walk_size(w, row[e], n - 1)
            codes += below.codes
            visits += below.visits
    return WalkSize(codes, visits + 1)


def factorizations(
    g: GroupElement, length: int | None = None, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """The reflection factorizations of ``g`` with ``length`` factors
    (default: its reflection length) as tuples of global reflection ids,
    lazily, in lexicographic order: :func:`factorization_codes`, decoded."""
    _, length = _walk_root(g, length)
    n_refl = g.group.num_reflections
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
    per reflection set for the life of the call, by ``w.generates_whole``.

    It serves the full enumeration; a Hurwitz partition of full
    factorizations does not filter its ground set, since moves keep the
    generated subgroup and so a whole orbit generates W or none of it
    does."""
    w = g.group
    n_refl = w.num_reflections
    memo: dict[frozenset[int], bool] = {}
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


def classify_element(g: GroupElement, budget: Budget | None = None) -> Classification:
    """Decide the quasi-Coxeter properties of ``g``.

    The search stops at the first reduced factorization that generates the
    parabolic closure.  Like every whole-group query it reads only the
    integer tables: the closure's reflections are
    :func:`_lowering_reflections`.
    """
    w = g.group
    e = w.element_ids()[g.comps]
    below = frozenset(_lowering_reflections(w, e))
    # the parabolic closure's reflections are exactly ``below``, and T
    # generates W, so the closure is W exactly when ``below`` is all of T
    whole = len(below) == w.num_reflections
    # the factors lie in the parabolic closure, so they generate it exactly
    # when their reflection closure is all of ``below``
    facts = reduced_factorizations(g, budget)
    witness = next((f for f in facts if w.reflection_closure(f) == below), None)
    is_pqc = witness is not None
    return Classification(
        element=g,
        length=length_table(w)[e],
        closure_is_whole=whole,
        is_parabolic_quasi_coxeter=is_pqc,
        is_quasi_coxeter=is_pqc and whole,
        witness=witness,
    )


def is_parabolic_quasi_coxeter(g: GroupElement, budget: Budget | None = None) -> bool:
    return classify_element(g, budget=budget).is_parabolic_quasi_coxeter


def is_quasi_coxeter(g: GroupElement, budget: Budget | None = None) -> bool:
    return classify_element(g, budget=budget).is_quasi_coxeter


def class_filter(w: CoxeterGroup, keep: Callable[[int], bool]) -> list[int]:
    """The element ids, in canonical order, whose conjugacy class passes
    ``keep``, a class function of element ids.  It is asked once per class,
    of the class's least id, its label in ``w.class_labels``."""
    labels = w.class_labels
    passed = [c == e and keep(e) for e, c in enumerate(labels)]
    return [e for e, c in enumerate(labels) if passed[c]]


@per_group
def quasi_coxeter_elements(w: CoxeterGroup) -> tuple[GroupElement, ...]:
    """All quasi-Coxeter elements, in canonical order, classified once per
    conjugacy class."""
    elems = w.elements()
    lengths = length_table(w)
    return tuple(elems[e] for e in class_filter(
        w, lambda e: lengths[e] == w.rank and is_quasi_coxeter(elems[e])
    ))


@per_group
def _below_quasi_coxeter_ids(w: CoxeterGroup) -> frozenset[int]:
    """Ids of the elements below some quasi-Coxeter element.

    A search from the quasi-Coxeter elements down the steps ``q -> t q``
    with ``l(t q) = l(q) - 1``.  It reaches exactly the ``x`` with
    ``q = y x`` and ``l(y) + l(x) = l(q)``; since ``x^-1 q`` is a conjugate
    of ``y`` and length is a class function, those are the ``x <= q`` in
    absolute order.
    """
    mult = w.refl_mult_table
    ids = w.element_ids()
    tops = [ids[c.comps] for c in quasi_coxeter_elements(w)]
    layers = breadth_first(set(), tops, lambda layer: (
        mult[t][q] for q in layer for t in _lowering_reflections(w, q)
    ))
    return frozenset(chain.from_iterable(layers))


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
    stops at the first at which :func:`_full_search` finds a generating
    factorization; a reduced factorization extended by pairs of simple
    reflections shows that ``l(g) + 2n`` always suffices.  With a budget,
    each length tried charges ``max_tuples`` with ``|T|`` for every state
    its search expands, counted as if nothing were memoized, so the charge
    does not depend on what ran before on the group.
    """
    w = g.group
    start = w.element_ids()[g.comps]
    base = length_table(w)[start]
    for length in range(base, base + 2 * w.rank + 1, 2):
        search = _full_search(w, start, length, frozenset())
        if budget is not None:
            budget.charge("max_tuples", w.num_reflections * search.expanded)
        if search.found:
            return length
    raise AssertionError("no full factorization found in bound")


class _FullSearch(NamedTuple):
    """Whether a state of :func:`_full_search` has a generating completion,
    and how many states a search without memo expands from it, stopping at
    the first success."""

    found: bool
    expanded: int


@per_group
def _full_search(
    w: CoxeterGroup, q: int, remaining: int, closed: frozenset[int]
) -> _FullSearch:
    """Whether ``remaining`` reflections with product ``q`` (an element id)
    exist whose reflections, joined to ``closed``, generate W.

    ``closed`` is the reflection closure of the factors chosen so far, and
    the factors generate W exactly when their closure is all of T (Dyer,
    *Reflection subgroups of Coxeter systems*, 1990), so the answer depends
    only on the state ``(q, remaining, closed)``.  Once ``closed`` is all of
    T, any factorization completes, and one exists when
    ``l(q) <= remaining`` (parity holds along every step); the state is not
    expanded.  Otherwise the state steps, in the walker's order, to
    ``(t q, remaining - 1, closure(closed | {t}))`` for the ``t`` with
    ``l(t q) < remaining``, up to the first that succeeds.

    States and closure steps (:func:`_closure_step`) are memoized; a step
    by a ``t`` in ``closed`` keeps ``closed``, already a reflection closure,
    and takes no closure step.
    """
    lengths = length_table(w)
    if len(closed) == w.num_reflections:
        return _FullSearch(lengths[q] <= remaining, 0)
    if remaining == 0:
        return _FullSearch(False, 0)
    expanded = 1
    for t, row in enumerate(w.refl_mult_table):
        if lengths[row[q]] < remaining:
            after = closed if t in closed else _closure_step(w, closed, t)
            below = _full_search(w, row[q], remaining - 1, after)
            expanded += below.expanded
            if below.found:
                return _FullSearch(True, expanded)
    return _FullSearch(False, expanded)


@per_group
def _closure_step(w: CoxeterGroup, closed: frozenset[int], t: int) -> frozenset:
    """``w.reflection_closure(closed | {t})`` as the one object kept for that
    set (:func:`_interned`), which the state memo compares by identity."""
    return _interned(w, w.reflection_closure(closed | {t}))


@per_group
def _interned(w: CoxeterGroup, closed: frozenset[int]) -> frozenset[int]:
    """The first set equal to ``closed`` that was passed here."""
    return closed

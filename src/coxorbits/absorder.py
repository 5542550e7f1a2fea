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
Each cycle's sum is one integer, over packed root coordinates whose fields
are wide enough that it is zero exactly when every coordinate sum is.
Absolute order is ``u <= v  iff  l(u) + l(u^-1 v) = l(v)``.  The fixed
space of a reflection subgroup (:func:`is_parabolic`) is that of one element
built in it, so every fixed space here comes from root cycles.  All of it
runs without branching on the factor kind (see :mod:`~coxorbits.groups`)
and on integers, never on ``Scalar`` values: a vector factor's roots are
integer lattice vectors.

Whole-group queries read only the integer tables, through element ids:
``length_table`` and ``refl_mult_table``.  They decide "the reflection
``t`` lies below ``g``" by one rule, ``l(t g) = l(g) - 1``
(:func:`_lowering_reflections`, the reflections fixing ``Fix(g)`` by
Carter's lemma): classification, one closure test per Hurwitz orbit, and
the cached down-set "below some quasi-Coxeter element", the elements
reached from the quasi-Coxeter elements by steps that each drop the length
by one.  Being (parabolic)
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
(:func:`encode`); :func:`factorizations` is its tuple view, and no other
layer walks it.  :func:`walk_size` counts the walk's codes and visits
without walking, by a recursion cached per group; the Hurwitz layer counts
its ground sets with it, and classification its charge.  The walk and its
size share the one rule that rejects a negative length, for every view.

The full reflection length enumerates nothing: it is a search over states
``(quotient, slots left, reflection closure of the factors so far)``,
memoized per group with its closure steps (:func:`_full_search`).  A rank
bound prunes it: if reflections ``t_1 .. t_m`` with product ``g`` have
roots spanning ``U``, then ``l(g) >= 2 dim U - m``.  By induction on ``m``:
a last root inside the span ``U'`` of the others changes the length by
one and keeps the span; one outside ``U'`` lies outside
``Mov(g') <= U'``, so by Carter's lemma the length rises by one with the
span.  A factorization of ``g`` that generates W spans the whole space, so
the full length is at least ``2n - l(g)`` (``n`` the rank), and every
shorter length fails at once.  The search reads the span of a state from
the integer tables (:func:`_moved_dimension`).  The full length is a class
function, so the search runs from the class's least element and its memo
serves the whole class; a budget is still charged the search from the
element itself.

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
        offset = w.global_reflection_id(fi, 0)
        fixing.extend([offset + t for t in local])
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
    # grow one element x of the subgroup whose moved space Mov(x) is the
    # span of the subgroup's roots: the reflections fixing Fix(x) are those
    # with root in Mov(x), and by Carter's lemma any other t gives
    # Mov(t x) = Mov(x) + (root of t), one dimension more
    x, fixing = w.identity, frozenset()
    for t in sub.reflection_ids:
        if t not in fixing:
            x = w.reflection(t) * x
            fixing = frozenset(fixed_space(x)[1])
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
    when it fits.  Nothing is yielded when ``length < l(g)`` or
    ``length - l(g)`` is odd, and a negative length raises
    :class:`BadFactorization`.

    The walk is depth first over paths, not states, so it does not run on
    ``groups.breadth_first``; an explicit stack keeps it free of a
    generator frame per node.  Each node but a leaf charges ``max_tuples``
    with ``|T|``, in depth-first order; :func:`walk_size` counts the codes
    and visits without walking.
    """
    w = g.group
    start, n = _walk_root(g, length)
    lengths = length_table(w)
    n_refl = w.num_reflections
    if n < lengths[start] or (n - lengths[start]) % 2:
        return
    # children are pushed last to first, so they are popped in order
    rows = list(enumerate(w.refl_mult_table))[::-1]
    stack = [(start, n, 0)]
    while stack:
        q, remaining, code = stack.pop()
        if remaining == 0:
            yield code
            continue
        if budget is not None:
            budget.charge("max_tuples", n_refl)
        code *= n_refl
        remaining -= 1
        stack.extend(
            (nq, remaining, code + t)
            for t, row in rows
            if lengths[nq := row[q]] <= remaining
        )


class WalkSize(NamedTuple):
    """The size of one run of :func:`factorization_codes`: the codes it
    yields, and the nodes it visits, each of which charges ``max_tuples``
    with ``|T|``."""

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
    identity reaches, the walk yields one code and visits nothing.  A walk
    that visits nothing charges nothing.
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


def _visits_through(w: CoxeterGroup, e: int, factors: tuple[int, ...]) -> int:
    """The nodes the walk from the element with id ``e`` visits before it
    yields ``factors``: along that path, each node and the whole walk below
    each lesser sibling (:func:`_walk_size`)."""
    lengths = length_table(w)
    mult = w.refl_mult_table
    visits, q, remaining = 0, e, len(factors)
    for t in factors:
        visits += 1
        for row in mult[:t]:
            if lengths[row[q]] < remaining:
                visits += _walk_size(w, row[q], remaining - 1).visits
        q, remaining = mult[t][q], remaining - 1
    return visits


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

    Hurwitz moves keep the generated subgroup, so it tests the least member
    of each orbit of ``hurwitz._orbit_blocks``, in their order; the first
    that generates the parabolic closure is the walker's first, and the
    walker's charge up to it (or of the whole walk) is charged.  Like every
    whole-group query it reads only the integer tables: the closure's
    reflections are :func:`_lowering_reflections`.
    """
    from .hurwitz import _orbit_blocks  # hurwitz imports this module

    w = g.group
    n_refl = w.num_reflections
    e = w.element_ids()[g.comps]
    n = length_table(w)[e]
    below = frozenset(_lowering_reflections(w, e))
    # the parabolic closure's reflections are exactly ``below``, and T
    # generates W, so the closure is W exactly when ``below`` is all of T
    whole = len(below) == n_refl
    # the factors lie in the parabolic closure, so they generate it exactly
    # when their reflection closure is all of ``below``
    reps = (decode(least, n, n_refl) for least in _orbit_blocks(w, e, n).least)
    witness = next((f for f in reps if w.reflection_closure(f) == below), None)
    if budget is not None:
        if witness is None:
            visits = _walk_size(w, e, n).visits
        else:
            visits = _visits_through(w, e, witness)
        if visits:
            budget.charge("max_tuples", n_refl * visits)
    is_pqc = witness is not None
    return Classification(
        element=g,
        length=n,
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
    reflections shows that ``l(g) + 2n`` always suffices.  The rank bound
    (see the module docstring) makes it at least ``2n - l(g)``: every
    shorter length fails at its first state, unsearched.

    The length is a class function: conjugation by ``x`` maps the
    factorizations of ``g`` onto those of ``x g x^-1`` and their reflection
    sets onto sets generating the same conjugate of W, which is W.  So the
    searches run from the class's least element (``w.class_labels``), and
    the ``_full_search`` memo shares them across the class.

    With a budget, each length tried charges ``max_tuples`` with ``|T|``
    for every state a search from ``g`` itself expands, counted as if
    nothing were memoized, so the charge does not depend on what ran before
    on the group.  A failing length expands exactly the walker's nodes
    (:class:`_FullSearch`), so it charges :func:`_walk_size`'s visits from
    ``g`` and runs no search of its own.  The answer length charges the
    expansions of the search from ``g``, which stops at its first success
    and so depends on the order of the factors, not on the class alone.
    """
    w = g.group
    start = w.element_ids()[g.comps]
    rep = w.class_labels[start]
    base = length_table(w)[start]
    for length in range(base, base + 2 * w.rank + 1, 2):
        found = _full_search(w, rep, length, frozenset()).found
        if budget is not None:
            if found:
                expanded = _full_search(w, start, length, frozenset()).expanded
            else:
                expanded = _walk_size(w, start, length).visits
            budget.charge("max_tuples", w.num_reflections * expanded)
        if found:
            return length
    raise AssertionError("no full factorization found in bound")


class _FullSearch(NamedTuple):
    """Whether a state of :func:`_full_search` has a generating completion,
    and how many states a search without memo expands from it, stopping at
    the first success.  A state with no completion expands the walker's
    nodes from it (:func:`_walk_size`): none of them has the closure T,
    and none stops early.  That count is a class function of the root
    element, since walk sizes are; the count of a state that succeeds is
    not, as it stops at the first success in the factors' order (27 of
    B3's 48 elements expand a different number of states than their
    class's least element)."""

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

    A state is pruned by the rank bound (module docstring).  Any completion
    has ``remaining`` factors with product ``q``, so its roots span some
    ``U`` of dimension at most ``(remaining + l(q)) / 2`` that contains
    ``Mov(q)``.  With ``D`` the dimension of the span of ``closed`` and
    ``Mov(q)`` (:func:`_moved_dimension`), all the roots then span at most
    ``D + (remaining - l(q)) / 2`` dimensions, and no completion generates
    W when that is below ``n``.  A pruned state charges the walker's visits
    from it, so the charge is the one a search without the bound makes.

    States and closure steps (:func:`_closure_step`) are memoized; a step
    by a ``t`` in ``closed`` keeps ``closed``, already a reflection closure,
    and takes no closure step.
    """
    lengths = length_table(w)
    if len(closed) == w.num_reflections:
        return _FullSearch(lengths[q] <= remaining, 0)
    if remaining == 0:
        return _FullSearch(False, 0)
    spanned = _moved_dimension(w, q, closed)
    if 2 * spanned + remaining - lengths[q] < 2 * w.rank:
        return _FullSearch(False, _walk_size(w, q, remaining).visits)
    expanded = 1
    for t, row in enumerate(w.refl_mult_table):
        if lengths[row[q]] < remaining:
            after = closed if t in closed else _closure_step(w, closed, t)
            below = _full_search(w, row[q], remaining - 1, after)
            expanded += below.expanded
            if below.found:
                return _FullSearch(True, expanded)
    return _FullSearch(False, expanded)


def _moved_dimension(w: CoxeterGroup, q: int, refls: frozenset[int]) -> int:
    """The dimension of ``Mov(q)`` plus the span of the roots of ``refls``,
    from the integer tables: starting at ``x = q``, each ``t`` whose root
    lies outside ``Mov(x)`` replaces ``x`` by ``t x``, which by Carter's
    lemma adds that root to ``Mov(x)`` and raises ``l(x)`` by one; a root
    inside ``Mov(x)`` would lower it instead and is skipped.  At the end
    ``Mov(x)`` holds ``Mov(q)`` and every root, and ``l(x)`` is its
    dimension."""
    lengths = length_table(w)
    rows = w.refl_mult_table
    x = q
    for t in refls:
        if lengths[rows[t][x]] > lengths[x]:
            x = rows[t][x]
    return lengths[x]


@per_group
def _closure_step(w: CoxeterGroup, closed: frozenset[int], t: int) -> frozenset:
    """``w.reflection_closure(closed | {t})`` as the one object kept for that
    set (:func:`_interned`), which the state memo compares by identity."""
    return _interned(w, w.reflection_closure(closed | {t}))


@per_group
def _interned(w: CoxeterGroup, closed: frozenset[int]) -> frozenset[int]:
    """The first set equal to ``closed`` that was passed here."""
    return closed

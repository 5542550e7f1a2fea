"""Finite Coxeter groups with exact element arithmetic.

A group is a product of irreducible factors.  Vector-realized factors store
their full root system once, each root by its coefficients on the simple
roots as integer lattice coordinates: integers, and ``m + n*phi`` with integer
``m``, ``n`` on H (see :class:`VectorFactor`).  Each element is a permutation
of the root list, so multiplication is index chasing and never touches
coordinates.  Only the simple reflections are computed from coordinates,
their integer actions from the simple roots' Gram matrix
(``roots.gram_matrix``), the one ``Scalar`` arithmetic of a build; roots and
fixed-space spans run on Python ints, and ``GroupElement.matrix`` turns
coordinates into ``Scalar`` values at the API edge.  Every reflection is
``s u s`` for a simple ``s`` and a reflection ``u`` nearer the simple ones,
so every other root permutation, and every other ``refl_mult_table`` row,
is conjugated from one already built by chasing integer indices.
Dihedral factors ``I2(m)`` represent elements as (rotation, flip) pairs.  An
element of a product holds one component per factor.  One element's fixed
space comes from the cycles of its root permutation, and the common fixed
space of several from one span routine per factor kind (see ``_Factor``).

Closures that need only the states they reach run on one layered search,
:func:`breadth_first`: the root system, the conjugacy classes of
``class_labels`` (closed on element ids), and other modules' searches over
reflection subsets and element ids.  Closures on element components number
their members, so they are written out (``_closure_comps``); one such pass
yields the elements and the simple rows of ``refl_mult_table``, after which
subgroup closures run on element ids, coset by coset, and a subgroup holds
its members' ids (see :meth:`CoxeterGroup.closure`).  A reflection subgroup
is closed from a greedy generating subset of its reflections
(:func:`close_reflections`), once per reflection set
(:func:`reflection_subgroup`).

Elements serialize to a canonical text form (images of the simple roots, or
the rotation/flip pair), which drives all deterministic ordering and the
content-addressed keys of subgroups.  Python's salted ``hash`` is never used
for anything observable.  The group's own tables are cached properties; the
other modules' per-group memos all live in ``w.memos`` (:func:`per_group`).

Whole-group materialization is guarded by an element cap (default 200,000),
and E7/E8 are refused outright; their root systems still work, so reflections
and subgroup closures below the cap remain available.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import accumulate, chain, zip_longest
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from . import roots
from .errors import (
    CapExceeded,
    GroupMismatch,
    IndexOutOfRange,
    UnsupportedType,
)
from .linalg import Matrix, Vector
from .scalars import PHI, Scalar

DEFAULT_MAX_ELEMENTS = 200_000

_ZERO = Scalar.zero()

#: One component of an element: a root permutation, or a (rotation, flip) pair.
Comp = Union[tuple[int, ...], tuple[int, int]]

#: A vector on a vector factor's integer lattice (see :class:`VectorFactor`).
Lattice = tuple[int, ...]


def breadth_first(
    seen: set, layer: list, expand: Callable[[list], Iterable]
) -> Iterator[list]:
    """Breadth-first search, lazily, one layer at a time.

    Yields ``layer``, then each next layer: the states ``expand(layer)``
    returns that ``seen`` does not hold yet, each once, in the order given.
    Every state reached, seeds included, joins the caller-owned ``seen``.
    A layer is yielded before it is expanded.  ``expand`` takes a whole
    layer, so a candidate costs a set probe and no call."""
    seen.update(layer)
    while layer:
        yield layer
        new = []
        for x in expand(layer):
            if x not in seen:
                seen.add(x)
                new.append(x)
        layer = new


_MISSING = object()


def per_group(fn: Callable) -> Callable:
    """Memoize ``fn(w, *args)`` per group ``w`` and argument tuple in
    ``w.memos[fn.__name__]``, the one store of per-group memos: its entry
    counts size every memo, and ``w.memos.clear()`` drops them all."""
    name = fn.__name__

    @wraps(fn)
    def memoized(w: CoxeterGroup, *args):
        memo = w.memos[name]
        value = memo.get(args, _MISSING)
        if value is _MISSING:
            value = memo[args] = fn(w, *args)
        return value

    return memoized


def _z_phi(x: Scalar) -> tuple[int, int]:
    """The integers ``(p, q)`` with ``x = p + q*phi``, for ``x`` in Z[phi]:
    ``x = a + b*sqrt5`` gives ``q = 2b`` and ``p = a - b``."""
    p, q = x.a - x.b, 2 * x.b
    assert p.denominator == q.denominator == 1, x
    return int(p), int(q)


def _phi_sign(m: int, n: int) -> int:
    """Exact sign of ``m + n*phi``, from ``2(m + n*phi) = a + n*sqrt5`` with
    ``a = 2m + n``: as in ``Scalar.sign``, terms of opposite signs are
    compared by their squares."""
    a = 2 * m + n
    if a * n >= 0:
        return (a + n > 0) - (a + n < 0)
    larger = a if a * a > 5 * n * n else n
    return 1 if larger > 0 else -1


def _echelon_row(v: Sequence[int]) -> tuple[int, Lattice]:
    """A nonzero integer vector divided by the gcd of its entries, with the
    index of its first nonzero entry as its lead."""
    g = gcd(*v)
    row = tuple(a // g for a in v)
    return next(i for i, a in enumerate(row) if a), row


def _reduce(basis: tuple, v: Sequence[int]) -> Sequence[int]:
    """``v`` with the basis rows' leads cleared in order, each step
    ``v <- p*v - c*row`` for the row's lead entry ``p`` and ``c = v[lead]``
    (fraction-free, as in Bareiss, *Sylvester's identity and multistep
    integer-preserving Gaussian elimination*, 1968).  Each row is zero at the
    leads of the rows before it, so a cleared lead stays clear, and the
    result is zero exactly when ``v`` lies in the rows' span over Q."""
    for entry in basis:
        for lead, row in entry:
            c = v[lead]
            if c:
                p = row[lead]
                v = [p * a - c * b for a, b in zip(v, row)]
    return v


class _Factor:
    """Fixed-space geometry of each factor kind.

    One element's fixed space comes from ``fixed_comp(p)``: its codimension
    and the local ids of the reflections fixing it pointwise, with no
    elimination.  The span routine serves only the common fixed space of
    several elements, and the rank of several roots: ``()`` is the empty
    basis, ``span_insert(basis, v)`` gives the new basis and whether it
    grew, ``in_span(basis, v)`` tests membership, ``moved_vectors(p)`` spans
    ``Im(g - 1) = Fix(g)^perp`` and ``root_vector(t)`` stands for a root."""

    def span(self, vectors: Iterable) -> tuple:
        """A basis of the span of ``vectors``."""
        basis = ()
        for v in vectors:
            basis, _ = self.span_insert(basis, v)
        return basis


class VectorFactor(_Factor):
    """An irreducible factor realized by an explicit root system on integer
    lattice coordinates.

    In simple-root coordinates every root of A, B, D, E and F has integer
    coefficients, and every root of H has coefficients ``m + n*phi`` with
    integer ``m``, ``n`` and ``phi = (1 + sqrt5)/2``.  So a root is stored
    as its integer coefficient tuple, and on H (``golden``) as the
    ``2 * rank``-tuple ``(m_1..m_r, n_1..n_r)``: integer coordinates on the
    Z-basis ``{alpha_k, phi*alpha_k}``.  The simple roots are the unit
    vectors and open the root list.  Only the simple reflections' integer
    actions come from the Gram matrix in :class:`Scalar` arithmetic; roots,
    spans and fixed spaces run on Python ints, and :meth:`matrix_comp` turns
    coordinates into ``Scalar`` values at the API edge.

    Its span basis is a fraction-free integer echelon (see ``_reduce``): a
    tuple with one entry per dimension over Q(sqrt 5), each entry a tuple of
    ``(lead, row)`` pairs.  On H an entry holds the rows of ``v`` and
    ``phi*v``, so the span stays Q(sqrt 5)-linear: in H3 the roots
    ``alpha_0``, ``alpha_1`` and ``alpha_0 + phi*alpha_1`` span a plane,
    though their lattice coordinates are independent over Q.
    """

    kind = "vector"

    def __init__(self, ir: roots.IrreducibleDatum):
        self.rank = ir.rank
        self.form = roots.gram_matrix(ir)
        self.golden = ir.family == "H"
        self.roots, images = self._close()
        self.root_index = {v: i for i, v in enumerate(self.roots)}
        self.neg_of = tuple(
            self.root_index[tuple(-c for c in v)] for v in self.roots
        )
        self._classify_roots()
        self.num_reflections = len(self.positive_roots)
        self._refl_perms = self._reflection_perms(images)

    # -- construction ------------------------------------------------------

    def _simple_action(self, i: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """The integer action of the ``i``-th simple reflection: pairs
        ``(k, terms)``, each saying that ``s_i`` subtracts
        ``sum(c * v[j] for j, c in terms)`` from coordinate ``k`` of ``v``.

        ``s_i(v) = v - <v, alpha_i^vee> alpha_i`` moves only the coefficient
        of ``alpha_i``, by the Cartan entries ``<alpha_j, alpha_i^vee> =
        2 G_ji / G_ii`` of the Gram matrix ``G``.  They are integers, and
        ``p + q*phi`` with integer ``p``, ``q`` on H, where
        ``(m + n*phi)(p + q*phi) = (mp + nq) + (mq + np + nq)*phi``."""
        r = self.rank
        g = self.form.rows
        cartan = [_z_phi(Scalar.from_int(2) * g[j][i] / g[i][i]) for j in range(r)]
        if self.golden:
            covectors = [
                (i, [p for p, _ in cartan] + [q for _, q in cartan]),
                (r + i, [q for _, q in cartan] + [p + q for p, q in cartan]),
            ]
        else:
            covectors = [(i, [p for p, _ in cartan])]
        return [
            (k, tuple((j, c) for j, c in enumerate(cov) if c)) for k, cov in covectors
        ]

    def _close(self) -> tuple[tuple[Lattice, ...], list[Lattice]]:
        """The roots, in discovery order from the simple roots, and the
        image ``s_i(v)`` of each root ``v`` under each simple reflection,
        at ``images[k * rank + i]`` for the ``k``-th root."""
        actions = [self._simple_action(i) for i in range(self.rank)]
        width = 2 * self.rank if self.golden else self.rank
        simples = [tuple(int(k == i) for k in range(width)) for i in range(self.rank)]
        images: list[Lattice] = []

        def expand(layer: list) -> list[Lattice]:
            new = []
            for v in layer:
                for action in actions:
                    u = list(v)
                    for k, terms in action:
                        u[k] -= sum(c * v[j] for j, c in terms)
                    new.append(tuple(u))
            images.extend(new)
            return new

        roots = tuple(chain.from_iterable(breadth_first(set(), simples, expand)))
        return roots, images

    def _reflection_perms(self, images: list[Lattice]) -> list[Comp]:
        """Every reflection's root permutation, by reflection id.

        Only the simple reflections' come from coordinates: they are the
        images ``_close`` computed anyway.  A non-simple positive root ``k``
        was discovered as ``s_i`` of a root of the layer before, so some
        simple ``i`` has ``p_i[k] < k``; that parent is positive too, as
        ``s_i`` permutes the positive roots other than ``alpha_i``.  Then
        ``s_k = s_i s_parent s_i`` (Humphreys, *Reflection Groups and Coxeter
        Groups*, 1990, 1.14), so ``p_k = p_i . p_parent . p_i`` is index
        chasing, and the parent's permutation is already built."""
        rank = self.rank
        image_ids = [self.root_index[v] for v in images]
        simple = [tuple(image_ids[i::rank]) for i in range(rank)]
        by_root = dict(zip(self.positive_roots, simple))
        for k in self.positive_roots[rank:]:
            p = next(p for p in simple if p[k] < k)
            q = by_root[p[k]]
            by_root[k] = tuple(p[q[x]] for x in p)
        return [by_root[k] for k in self.positive_roots]

    def _classify_roots(self) -> None:
        # a root is positive exactly when its height, the sum of its
        # coefficients on the simple roots, is positive
        r = self.rank
        self.positive_roots = tuple(
            idx
            for idx, v in enumerate(self.roots)
            if _phi_sign(sum(v[:r]), sum(v[r:])) > 0
        )
        refl_of = [0] * len(self.roots)
        for t, idx in enumerate(self.positive_roots):
            refl_of[idx] = t
            refl_of[self.neg_of[idx]] = t
        self.refl_of_root = tuple(refl_of)
        # simple roots were seeded first, so they open the positive list and
        # the first `rank` reflection ids are the simple reflections
        assert self.positive_roots[: self.rank] == tuple(range(self.rank))
        self.simple_refl_local = tuple(range(self.rank))

    # -- element components ------------------------------------------------

    def identity_comp(self) -> Comp:
        return tuple(range(len(self.roots)))

    def mult_comp(self, p: Comp, q: Comp) -> Comp:
        return tuple(map(p.__getitem__, q))

    def inv_comp(self, p: Comp) -> Comp:
        out = [0] * len(p)
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    def refl_comp(self, t: int) -> Comp:
        """The root permutation of reflection ``t``, a lookup: the factor
        builds them all at once (see ``_reflection_perms``)."""
        return self._refl_perms[t]

    def conj_refl(self, a: int, b: int) -> int:
        """Local id of ``t_b t_a t_b``: the reflection at ``t_b``'s image of
        ``t_a``'s root."""
        return self.refl_of_root[self.refl_comp(b)[self.positive_roots[a]]]

    def serialize_comp(self, p: Comp) -> str:
        return ",".join(str(p[i]) for i in range(self.rank))

    # -- fixed-space geometry ----------------------------------------------

    def fixed_comp(self, p: Comp) -> tuple[int, list[int]]:
        """The codimension of ``Fix(g)`` and the local ids of the reflections
        fixing it pointwise, for ``g`` with root permutation ``p``, from one
        walk over its cycles.

        The mean ``P`` of the powers of ``g`` projects onto ``Fix(g)`` with
        kernel ``Mov(g) = Im(g - 1)``, and takes a root to the mean of its
        ``g``-cycle.  So a reflection fixes ``Fix(g)``, its root lying in
        ``Mov(g)``, exactly when that cycle sums to zero.  And ``dim Fix(g)``
        is the trace of ``P``: the sum over the simple roots ``alpha_i`` of
        the ``alpha_i``-coefficient of their cycle's mean.  That trace is
        rational, so on H its ``phi``-part vanishes and the coordinates
        ``m_i`` alone give it, as ``num / den``.
        """
        roots, rank = self.roots, self.rank
        zero_sum: list[bool | None] = [None] * len(p)
        num, den = 0, 1
        fixing = []
        for t, k in enumerate(self.positive_roots):
            if p[k] == k:
                if k < rank:
                    num += den
                continue
            if zero_sum[k] is None:
                cycle = [k]
                x = p[k]
                while x != k:
                    cycle.append(x)
                    x = p[x]
                total = [sum(c) for c in zip(*[roots[x] for x in cycle])]
                zero = not any(total)
                for x in cycle:
                    zero_sum[x] = zero
                if not zero and k < rank:
                    # simple roots open the positive list, so a cycle
                    # through some simple root is first walked from one
                    simple = sum(total[x] for x in cycle if x < rank)
                    num, den = num * len(cycle) + den * simple, den * len(cycle)
            if zero_sum[k]:
                fixing.append(t)
        dim, rest = divmod(num, den)
        assert not rest, (num, den)
        return rank - dim, fixing

    def moved_vectors(self, p: Comp) -> list[Lattice]:
        """The nonzero ``g(alpha_i) - alpha_i`` over the simple roots."""
        roots = self.roots
        return [
            tuple(a - b for a, b in zip(roots[p[i]], roots[i]))
            for i in range(self.rank)
            if p[i] != i
        ]

    def span_insert(self, basis: tuple, v: Lattice) -> tuple[tuple, bool]:
        v = _reduce(basis, v)
        if not any(v):
            return basis, False
        entry = (_echelon_row(v),)
        if self.golden:
            # phi (m + n phi) = n + (m + n) phi
            r = self.rank
            phi_v = (*v[r:], *(m + n for m, n in zip(v[:r], v[r:])))
            entry += (_echelon_row(_reduce(basis + (entry,), phi_v)),)
        return basis + (entry,), True

    def in_span(self, basis: tuple, v: Lattice) -> bool:
        # the span over Q of an H basis's rows is closed under phi, so it is
        # the span over Q(sqrt 5)
        return not any(_reduce(basis, v))

    def scalar_vector(self, v: Lattice) -> Vector:
        """The coefficients of a lattice vector on the simple roots, as
        :class:`Scalar` values: ``m_k + n_k*phi`` on H."""
        r = self.rank
        return tuple(
            Scalar.from_int(m) + Scalar.from_int(n) * PHI
            for m, n in zip_longest(v[:r], v[r:], fillvalue=0)
        )

    def matrix_comp(self, p: Comp) -> Matrix:
        """The matrix in the simple-root basis: column ``i`` is the image of
        the ``i``-th simple root."""
        return Matrix.from_columns(
            [self.scalar_vector(self.roots[p[i]]) for i in range(self.rank)]
        )

    def root_vector(self, t: int) -> Lattice:
        return self.roots[self.positive_roots[t]]


class DihedralFactor(_Factor):
    """The dihedral group I2(m), handled without coordinates.

    Components are pairs ``(a, f)``: the rotation by ``2*pi*a/m`` when
    ``f == 0``, and the reflection whose line has angle ``pi*a/m`` when
    ``f == 1``.  Lines stand in for roots in the span routine: a basis is a
    tuple of at most two distinct lines, and two lines span the plane.
    """

    kind = "dihedral"

    def __init__(self, ir: roots.IrreducibleDatum):
        assert ir.param is not None
        self.m = ir.param
        self.rank = 2
        self.num_reflections = self.m
        self.simple_refl_local = (0, 1)

    def identity_comp(self) -> Comp:
        return (0, 0)

    def mult_comp(self, p: Comp, q: Comp) -> Comp:
        a, f = p
        b, g = q
        return ((a + b) % self.m if f == 0 else (a - b) % self.m, f ^ g)

    def inv_comp(self, p: Comp) -> Comp:
        a, f = p
        return p if f else ((-a) % self.m, 0)

    def refl_comp(self, t: int) -> Comp:
        return (t, 1)

    def conj_refl(self, a: int, b: int) -> int:
        return (2 * b - a) % self.m

    def serialize_comp(self, p: Comp) -> str:
        return f"{p[0]},{p[1]}"

    def fixed_comp(self, p: Comp) -> tuple[int, Sequence[int]]:
        """A flip fixes a line in its own hyperplane only, a nontrivial
        rotation fixes only 0, in every hyperplane, and the identity fixes
        the plane, in none."""
        a, f = p
        if f:
            return 1, (a,)
        return (2, range(self.m)) if a else (0, ())

    def moved_vectors(self, p: Comp) -> list[int]:
        """A flip moves its line, a nontrivial rotation the whole plane."""
        a, f = p
        if f:
            return [a]
        return [] if a == 0 else [0, 1]

    def span_insert(self, basis: tuple, line: int) -> tuple[tuple, bool]:
        if line in basis or len(basis) == 2:
            return basis, False
        return basis + (line,), True

    def in_span(self, basis: tuple, line: int) -> bool:
        return len(basis) == 2 or line in basis

    def root_vector(self, t: int) -> int:
        return t


Factor = Union[VectorFactor, DihedralFactor]


def _make_factor(ir: roots.IrreducibleDatum) -> Factor:
    return DihedralFactor(ir) if ir.family == "I" else VectorFactor(ir)


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`CoxeterGroup`: one component per factor.
    Groups compare by identity, so equal elements share their group."""

    # not ``slots=True``: that makes a new class, whose frozen __setattr__
    # raises TypeError, not AttributeError, for a non-field name on 3.11
    __slots__ = ("group", "comps")
    group: CoxeterGroup
    comps: tuple[Comp, ...]

    def _check(self, other: GroupElement) -> None:
        if self.group is not other.group:
            raise GroupMismatch(
                f"elements of {self.group.name} and {other.group.name} cannot mix"
            )

    def __mul__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return GroupElement(self.group, self.group.multiply_comps(self.comps, other.comps))

    def inverse(self) -> GroupElement:
        return GroupElement(self.group, self.group.invert_comps(self.comps))

    @property
    def is_identity(self) -> bool:
        return self.comps == self.group.identity.comps

    def serialize(self) -> str:
        return self.group.serialize_comps(self.comps)

    def order(self) -> int:
        k = 1
        g = self
        while not g.is_identity:
            g = g * self
            k += 1
        return k

    def matrix(self) -> Matrix:
        """Block-diagonal matrix in the simple-root basis of each factor
        (vector-realized factors only): ``rank x rank``, so ``n x n`` for
        ``A_n``."""
        blocks = []
        for f, c in zip(self.group.factors, self.comps):
            if f.kind != "vector":
                raise UnsupportedType(
                    "dihedral factors have no matrix realization; "
                    "use the component directly"
                )
            blocks.append(f.matrix_comp(c))
        total = sum(b.n_rows for b in blocks)
        rows = []
        offset = 0
        for b in blocks:
            for r in b.rows:
                rows.append(
                    (_ZERO,) * offset + r + (_ZERO,) * (total - offset - b.n_rows)
                )
            offset += b.n_rows
        return Matrix(tuple(rows))

    def __repr__(self) -> str:
        return f"<{self.group.name}: {self.serialize()}>"


class _Numbering(NamedTuple):
    """A group's elements numbered in canonical (serialization) order."""

    elements: tuple[GroupElement, ...]
    ids: dict[tuple[Comp, ...], int]
    serials: list[str]  # each element's serialization, by id
    reflections: tuple[int, ...]  # each reflection's element id
    simple_rows: list[list[int]]  # refl_mult_table's, in simple_reflection_ids order


class CoxeterGroup:
    """A finite Coxeter group built from a classification label."""

    def __init__(
        self,
        datum: roots.CoxeterDatum | str,
        cap: int = DEFAULT_MAX_ELEMENTS,
    ):
        if isinstance(datum, str):
            datum = roots.parse_datum(datum)
        self.datum = datum
        self.cap = cap
        self.factors: tuple[Factor, ...] = tuple(
            _make_factor(ir) for ir in datum.factors
        )
        self.census_order, self.num_reflections = roots.census(datum)
        *self._offsets, built = accumulate(
            (f.num_reflections for f in self.factors), initial=0
        )
        assert built == self.num_reflections, (built, self.num_reflections)
        self._locate = tuple(
            (fi, local)
            for fi, f in enumerate(self.factors)
            for local in range(f.num_reflections)
        )
        self.identity = GroupElement(
            self, tuple(f.identity_comp() for f in self.factors)
        )
        self.memos: defaultdict[str, dict] = defaultdict(dict)

    # -- basics ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.datum.label

    @property
    def rank(self) -> int:
        return self.datum.rank

    def multiply_comps(self, g: tuple[Comp, ...], h: tuple[Comp, ...]) -> tuple[Comp, ...]:
        return tuple(
            f.mult_comp(a, b) for f, a, b in zip(self.factors, g, h)
        )

    def invert_comps(self, g: tuple[Comp, ...]) -> tuple[Comp, ...]:
        return tuple(f.inv_comp(c) for f, c in zip(self.factors, g))

    def serialize_comps(self, comps: tuple[Comp, ...]) -> str:
        return ";".join(
            f.serialize_comp(c) for f, c in zip(self.factors, comps)
        )

    # -- reflections -------------------------------------------------------

    def reflection_ids(self) -> range:
        return range(self.num_reflections)

    def check_reflection_ids(self, ids: Iterable[int]) -> None:
        """Raise ``IndexOutOfRange`` unless each id is in ``[0, n)``."""
        n = self.num_reflections
        for t in ids:
            if not 0 <= t < n:
                raise IndexOutOfRange(f"reflection index {t} not in [0, {n})")

    def reflection(self, t: int) -> GroupElement:
        self.check_reflection_ids((t,))
        fi, local = self._locate[t]
        comps = list(self.identity.comps)
        comps[fi] = self.factors[fi].refl_comp(local)
        return GroupElement(self, tuple(comps))

    def locate_reflection(self, t: int) -> tuple[int, int]:
        """Global reflection id -> (factor index, local id)."""
        self.check_reflection_ids((t,))
        return self._locate[t]

    def global_reflection_id(self, fi: int, local: int) -> int:
        return self._offsets[fi] + local

    @cached_property
    def simple_reflection_ids(self) -> tuple[int, ...]:
        return tuple(off + s for off, f in zip(self._offsets, self.factors)
                     for s in f.simple_refl_local)

    def conj_refl(self, a: int, b: int) -> int:
        """Global id of ``t_b t_a t_b``."""
        self.check_reflection_ids((a, b))
        fa, la = self._locate[a]
        fb, lb = self._locate[b]
        if fa != fb:
            return a  # reflections in different factors commute
        return self._offsets[fa] + self.factors[fa].conj_refl(la, lb)

    @cached_property
    def reflection_serializations(self) -> tuple[str, ...]:
        return tuple(
            self.reflection(t).serialize() for t in range(self.num_reflections)
        )

    @cached_property
    def refl_conj_table(self) -> tuple[tuple[int, ...], ...]:
        """``table[a][b]`` is the global id of ``t_b t_a t_b``."""
        n = self.num_reflections
        return tuple(
            tuple(self.conj_refl(a, b) for b in range(n)) for a in range(n)
        )

    @cached_property
    def refl_class_labels(self) -> tuple[int, ...]:
        """W-conjugacy class of each reflection, labelled by its least member."""
        labels = [-1] * self.num_reflections
        for t in range(self.num_reflections):
            if labels[t] < 0:  # then no smaller reflection is in t's class
                for a in self.reflection_closure([t], self.simple_reflection_ids):
                    labels[a] = t
        return tuple(labels)

    def reflection_closure(
        self, seeds: Iterable[int], gens: Iterable[int] | None = None
    ) -> frozenset[int]:
        """Global ids of the reflections reached from ``seeds`` by repeated
        conjugation with the reflections ``gens`` (default: the seeds).

        With the default this is the reflection set of the subgroup the
        seeds generate.  Each conjugacy class of reflections of a reflection
        subgroup carries a sign character, so every generating set meets
        every class, and each reflection of the subgroup is a conjugate of
        a generator (Dyer, *Reflection subgroups of Coxeter systems*, 1990).

        Not run on :func:`breadth_first`: the generation test makes tens of
        thousands of these few-microsecond calls, which the primitive made
        half again as slow, and the element-closure oracle stays independent.
        """
        seeds = tuple(seeds)
        gens = seeds if gens is None else tuple(gens)
        self.check_reflection_ids(seeds + gens)
        table = self.refl_conj_table
        orbit = set(seeds)
        frontier = list(orbit)
        while frontier:
            new = []
            for a in frontier:
                row = table[a]
                for g in gens:
                    b = row[g]
                    if b not in orbit:
                        orbit.add(b)
                        new.append(b)
            frontier = new
        return frozenset(orbit)

    # -- materialization ---------------------------------------------------

    @cached_property
    def _whole_group(self) -> _Numbering:
        """The elements numbered in canonical (serialization) order: one
        closure pass, renumbered."""
        for ir in self.datum.factors:
            if ir.family == "E" and ir.rank >= 7:
                raise UnsupportedType(
                    f"whole-group computations are not supported for {ir.label}; "
                    "root-level operations still work"
                )
        if self.census_order > self.cap:
            raise CapExceeded("max_elements", self.cap, self.census_order)
        gens = [self.reflection(t).comps for t in self.simple_reflection_ids]
        members, rows = self._closure_comps(gens)
        assert len(members) == self.census_order, (len(members), self.census_order)
        keys = [self.serialize_comps(c) for c in members]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        canon = sorted(range(len(order)), key=order.__getitem__)  # order's inverse
        for row in rows:  # in place, so one row's copy is alive at a time
            row[:] = [canon[row[x]] for x in order]
        ids = {members[x]: canon[x] for x in order}  # ints shared with the rows
        return _Numbering(
            tuple(GroupElement(self, members[x]) for x in order),
            ids,
            [keys[x] for x in order],
            tuple(ids[self.reflection(t).comps] for t in self.reflection_ids()),
            rows,
        )

    @cached_property
    def _numbered(self) -> bool:
        """Whether the group numbers its elements: all but E7, E8 and
        groups past the cap, whose whole group is refused."""
        try:
            self._whole_group
        except (UnsupportedType, CapExceeded):
            return False
        return True

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements, in canonical (serialization) order."""
        return self._whole_group.elements

    def element_ids(self) -> dict[tuple[Comp, ...], int]:
        return self._whole_group.ids

    @cached_property
    def refl_mult_table(self) -> list[list[int]]:
        """``table[t][e]`` is the element id of ``reflection(t) * element(e)``.

        The simple rows come from the closure pass of :meth:`elements`.  A
        breadth-first pass over ``refl_conj_table`` reaches every other
        reflection ``v`` as ``s u s``, with ``s`` simple and ``u``'s row built,
        so ``table[v][e] = table[s][table[u][table[s][e]]]``; it reaches them
        all, as each is conjugate to a simple one inside its own factor."""
        simple = self.simple_reflection_ids
        rows = dict(zip(simple, self._whole_group.simple_rows))
        conj = self.refl_conj_table
        for layer in breadth_first(set(), list(simple), lambda layer: (
            conj[u][s] for u in layer for s in simple
        )):
            for v in layer:
                if v not in rows:
                    s, u = next((s, conj[v][s]) for s in simple if conj[v][s] in rows)
                    rs, ru = rows[s], rows[u]
                    rows[v] = [rs[ru[x]] for x in rs]
        return [rows[t] for t in range(self.num_reflections)]

    @cached_property
    def class_labels(self) -> tuple[int, ...]:
        """Conjugacy class of each element id, labelled by its least id.

        The simple reflections generate W, so a class is the closure of one
        member under ``e -> s e s``, which is ``inv[r[inv[r[e]]]]`` for
        ``s``'s row ``r`` of :attr:`refl_mult_table` and the inverse ids
        ``inv``: ``s e`` inverted is ``e^-1 s``, and ``s`` times that,
        inverted, is ``s e s``.  The inverse ids, one ``invert_comps`` per
        element, serve this table alone."""
        ids = self.element_ids()
        inv = [ids[self.invert_comps(g.comps)] for g in self.elements()]
        rows = [self.refl_mult_table[s] for s in self.simple_reflection_ids]
        labels = [-1] * len(inv)
        seen: set[int] = set()
        for e in range(len(inv)):
            if labels[e] < 0:  # then no smaller id is in e's class
                for layer in breadth_first(seen, [e], lambda layer: (
                    inv[r[inv[r[x]]]] for x in layer for r in rows
                )):
                    for x in layer:
                        labels[x] = e
        return tuple(labels)

    # -- subgroups ---------------------------------------------------------

    def closure(self, gens: Iterable[GroupElement]) -> Subgroup:
        """The subgroup generated by ``gens``, held as the element ids of its
        members (see :class:`Subgroup`).

        Once ``refl_mult_table`` is built the closure runs on element ids
        (:meth:`_closure_ids`) and makes no :class:`GroupElement`.
        Otherwise it multiplies element components (:meth:`_closure_comps`),
        which builds no table: E7/E8 closures run there, and a one-off
        closure on a big group does not pay for one; only it can raise
        :class:`CapExceeded`.  On a group that numbers its elements (all
        but E7, E8 and groups past the cap) its members become ids at its
        edge, numbering the elements first if need be.  Both routes give
        the same :class:`Subgroup`."""
        gens = tuple(gens)
        for g in gens:
            if g.group is not self:
                raise GroupMismatch("generator belongs to a different group")
        if "refl_mult_table" in self.__dict__:
            members = frozenset(self._closure_ids(gens))
        else:
            comps, _ = self._closure_comps([g.comps for g in gens])
            if self._numbered:
                comps = map(self.element_ids().__getitem__, comps)
            members = frozenset(comps)
        return Subgroup(self, gens, members)

    def _closure_ids(self, gens: tuple[GroupElement, ...]) -> set[int]:
        """Element ids of the subgroup ``gens`` generate, by Dimino's
        algorithm (Butler, *Fundamental Algorithms for Permutation Groups*,
        1991, ch. 6): a generator already in the subgroup ``H`` so far is
        skipped, and a kept one grows ``H`` by whole left cosets.  Each
        generator acts by its row of left products, ``refl_mult_table[t]``
        for a reflection, and ``s`` maps the coset ``y H`` onto ``(s y) H``
        member by member, so a new coset is one row lookup per member and
        only coset representatives are tested."""
        ids = self.element_ids()
        table = self.refl_mult_table
        one = ids[self.identity.comps]
        refl_rows = {row[one]: row for row in table}
        seen = {one}
        members = [one]
        rows: list[list[int]] = []
        for g in gens:
            x = ids[g.comps]
            if x in seen:
                continue
            row = refl_rows.get(x)
            if row is None:
                row = [
                    ids[self.multiply_comps(g.comps, h.comps)]
                    for h in self.elements()
                ]
            rows.append(row)
            # each coset lists its representative first; seen is a union of
            # whole cosets, so testing the representative's image suffices
            cosets = [members]
            for coset in cosets:  # cosets grows behind the loop
                for r in rows:
                    if r[coset[0]] not in seen:
                        new = list(map(r.__getitem__, coset))
                        seen.update(new)
                        cosets.append(new)
            members = list(chain.from_iterable(cosets))
        return seen

    def _closure_comps(
        self, gen_comps: list[tuple[Comp, ...]]
    ) -> tuple[list[tuple[Comp, ...]], list[list[int]]]:
        """The members of the subgroup ``gen_comps`` generate, numbered as a
        breadth-first closure under ``g -> s g`` finds them from the identity,
        and for each generator ``s`` the row of indices of ``s g``.  Written
        out rather than on :func:`breadth_first`, whose seen set does not
        number states.  Raises :class:`CapExceeded` past ``cap`` members."""
        members = [self.identity.comps]
        index = {members[0]: 0}
        rows: list[list[int]] = [[] for _ in gen_comps]
        for g in members:  # members grows behind the loop, in discovery order
            for s, row in zip(gen_comps, rows):
                h = self.multiply_comps(s, g)
                x = index.setdefault(h, len(members))
                if x == len(members):
                    if x == self.cap:
                        raise CapExceeded("max_elements", self.cap)
                    members.append(h)
                row.append(x)
        return members, rows

    def generates_whole(self, refl_ids: Iterable[int]) -> bool:
        """Whether the given reflections generate the full group.

        Decided on the reflection set alone: a reflection subgroup is
        generated by the reflections it contains, so the given reflections
        generate ``W`` exactly when their conjugation closure is all of T.
        """
        return len(self.reflection_closure(refl_ids)) == self.num_reflections

    def __repr__(self) -> str:
        return f"CoxeterGroup({self.name!r})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup given by its generators and its member set.

    ``members`` holds the members' element ids (:meth:`CoxeterGroup.element_ids`)
    on a group that numbers its elements, and their components on E7, E8
    and groups past the cap, which do not; so ``order``, ``==``, ``in`` and
    :attr:`reflection_ids` build no :class:`GroupElement`.  Identity is by
    member set: two subgroups with the same members are equal regardless of
    how they were generated.  :attr:`elements` builds the members, for
    callers that iterate them.
    """

    group: CoxeterGroup
    generators: tuple[GroupElement, ...]
    members: frozenset[int] | frozenset[tuple[Comp, ...]] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: GroupElement) -> bool:
        w = self.group
        if g.group is not w:
            return False
        return (w.element_ids()[g.comps] if w._numbered else g.comps) in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    @property
    def is_whole_group(self) -> bool:
        return self.order == self.group.census_order

    @cached_property
    def elements(self) -> frozenset[GroupElement]:
        """The members as elements, the cached ones of a numbered group."""
        w = self.group
        if w._numbered:
            elems = w.elements()
            return frozenset(elems[x] for x in self.members)
        return frozenset(GroupElement(w, c) for c in self.members)

    @cached_property
    def canonical_key(self) -> str:
        """Content-addressed key: SHA-256 over the members' sorted
        serializations, which id order gives on a numbered group."""
        w = self.group
        if w._numbered:
            serials = w._whole_group.serials
            texts = [serials[x] for x in sorted(self.members)]
        else:
            texts = sorted(map(w.serialize_comps, self.members))
        return hashlib.sha256("|".join(texts).encode()).hexdigest()

    @cached_property
    def reflection_ids(self) -> tuple[int, ...]:
        """Global ids of the reflections lying in this subgroup."""
        w = self.group
        if w._numbered:
            keys = w._whole_group.reflections
        else:
            keys = tuple(w.reflection(t).comps for t in w.reflection_ids())
        return tuple(t for t, x in enumerate(keys) if x in self.members)


def close_reflections(w: CoxeterGroup, refls: frozenset[int]) -> Subgroup:
    """The subgroup the reflections ``refls`` generate, generated by the
    members of ``refls`` that the reflection closure of the ones kept before
    does not reach, which keeps a closure without an element table (E7, E8)
    from multiplying by every member."""
    gens: list[int] = []
    reached: frozenset[int] = frozenset()
    for t in sorted(refls):
        if t not in reached:
            gens.append(t)
            reached = w.reflection_closure(gens)
    return w.closure([w.reflection(t) for t in gens])


@per_group
def reflection_subgroup(w: CoxeterGroup, refls: frozenset[int]) -> Subgroup:
    """:func:`close_reflections`, once per reflection set: a reflection
    subgroup is fixed by its reflection set (Dyer, *Reflection subgroups of
    Coxeter systems*, 1990), so a closed set names one subgroup."""
    return close_reflections(w, refls)


def build_group(spec: str, cap: int = DEFAULT_MAX_ELEMENTS) -> CoxeterGroup:
    """Build the group named by a label such as ``"B3"`` or ``"A2xI2(5)"``."""
    return CoxeterGroup(roots.parse_datum(spec), cap=cap)

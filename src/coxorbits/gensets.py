"""Minimal versus minimum reflection generating sets.

A generating set of reflections is *minimal* when no proper subset generates,
and a *minimum* one has size equal to the rank.  The two notions coincide for
most irreducible types; dihedral groups I2(m) with at least three distinct
prime factors in m are the exception, and the machinery here can both find
the counterexamples and certify their absence.

Three specialized models drive the analysis:

* types A/B/D translate reflection sets into signed graphs (transposition
  ``e_i - e_j`` becomes a plain edge, ``e_i + e_j`` a negative edge, the
  coordinate reflection ``e_i`` a loop), where generation is connectivity
  plus a loop (B) or a negative cycle (D);
* dihedral groups reduce to gcd arithmetic on the angle multiples of a
  triple of lines, with a Chinese-remainder construction producing triples
  that generate while no pair does;
* everything else decides generation on the reflection set: a set generates
  exactly when its closure under mutual conjugation is all of T, and
  subset sweeps run only up to conjugacy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .budget import Budget
from .errors import (
    BadFactorization,
    NotDistinct,
    NotGenerating,
    TypeMismatch,
)
from .groups import CoxeterGroup, DihedralFactor, GroupElement, VectorFactor


# -- generic analysis ------------------------------------------------------


@dataclass(frozen=True)
class GenSetReport:
    """What a reflection set does: generate, minimally, with or without a
    rank-size generating subset inside."""

    reflections: tuple[int, ...]
    generates: bool
    is_minimal: bool
    contains_minimum: bool
    witness: tuple[int, ...] | None


def analyze_genset(
    w: CoxeterGroup, refl_ids: Iterable[int], budget: Budget | None = None
) -> GenSetReport:
    """Decide generation, minimality and the presence of a rank-size
    generating subset; the witness is the first qualifying subset in
    lexicographic order."""
    ids = tuple(sorted(set(refl_ids)))
    n = w.rank

    def gen(subset) -> bool:
        if budget is not None:
            budget.charge("max_tuples")
        return w.generates_whole(subset)

    generates = gen(ids)
    is_minimal = generates and all(
        not gen(ids[:i] + ids[i + 1 :]) for i in range(len(ids))
    )
    contains_minimum = False
    witness = None
    if generates and len(ids) >= n:
        for sub in itertools.combinations(ids, n):
            if gen(sub):
                contains_minimum = True
                witness = sub
                break
    if witness is None and generates and not is_minimal:
        witness = next(
            (
                ids[:i] + ids[i + 1 :]
                for i in range(len(ids))
                if gen(ids[:i] + ids[i + 1 :])
            ),
            None,
        )
    return GenSetReport(
        reflections=ids,
        generates=generates,
        is_minimal=is_minimal,
        contains_minimum=contains_minimum,
        witness=witness,
    )


def conjugacy_orbit_reps(
    w: CoxeterGroup, size: int, budget: Budget | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Representatives of W-conjugation orbits on size-``size`` reflection
    subsets, with orbit sizes.  Reps come in lexicographic order and are the
    lexicographically least members of their orbits."""
    conj = w.refl_conj_table
    simples = w.simple_reflection_ids
    visited: set[frozenset[int]] = set()
    for seed in itertools.combinations(range(w.num_reflections), size):
        fseed = frozenset(seed)
        if fseed in visited:
            continue
        if budget is not None:
            budget.charge("max_tuples")
        orbit = {fseed}
        frontier = [fseed]
        while frontier:
            new = []
            for sub in frontier:
                for s in simples:
                    image = frozenset(conj[t][s] for t in sub)
                    if image not in orbit:
                        orbit.add(image)
                        new.append(image)
            frontier = new
        visited.update(orbit)
        yield seed, len(orbit)


@dataclass(frozen=True)
class MinMinReport:
    """Verdict of the minimum-equals-minimal sweep."""

    group: str
    mode: str
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]
    orbits_checked: int


def check_min_equals_min(
    w: CoxeterGroup, mode: str = "subsets", budget: Budget | None = None
) -> MinMinReport:
    """Whether every minimal reflection generating set has minimum size.

    ``subsets`` mode sweeps the (rank+1)-subsets of T up to conjugacy: a
    counterexample is a generating subset none of whose rank-size subsets
    generates.  Subsets of size rank+1 decide the property: a larger minimal
    generating set would contain one.  ``subgroups`` mode applies the same
    test inside every reflection subgroup (rank relative to the subgroup),
    which is the hereditary form used by the classification argument.
    """
    if mode == "subsets":
        counter, checked = _min_min_subsets(w, budget)
    elif mode == "subgroups":
        counter, checked = _min_min_subgroups(w, budget)
    else:
        raise ValueError("mode must be 'subsets' or 'subgroups'")
    return MinMinReport(
        group=w.name,
        mode=mode,
        holds=not counter,
        counterexamples=tuple(counter),
        orbits_checked=checked,
    )


def _min_min_subsets(w, budget) -> tuple[list[tuple[int, ...]], int]:
    n = w.rank
    counter = []
    checked = 0
    for rep, _ in conjugacy_orbit_reps(w, n + 1, budget):
        checked += 1
        if not w.generates_whole(rep):
            continue
        if not any(
            w.generates_whole(sub) for sub in itertools.combinations(rep, n)
        ):
            counter.append(rep)
    return counter, checked


def _min_min_subgroups(w, budget) -> tuple[list[tuple[int, ...]], int]:
    # a reflection subgroup is fixed by its reflection set and generated by
    # at most rank reflections, so the distinct reflection closures of those
    # subsets are the reflection subgroups; run the rank+1 test inside each
    subgroups: set[frozenset[int]] = set()
    for size in range(w.rank + 1):
        for subset in itertools.combinations(range(w.num_reflections), size):
            if budget is not None:
                budget.charge("max_tuples")
            subgroups.add(w.reflection_closure(subset))
    counter = []
    for inside in sorted(tuple(sorted(s)) for s in subgroups):
        target = frozenset(inside)
        rank = _reflection_set_rank(w, inside)
        for x in itertools.combinations(inside, rank + 1):
            if budget is not None:
                budget.charge("max_tuples")
            if w.reflection_closure(x) != target:
                continue
            if not any(
                w.reflection_closure(y) == target
                for y in itertools.combinations(x, rank)
            ):
                counter.append(x)
    return counter, len(subgroups)


def _reflection_set_rank(w: CoxeterGroup, refl_ids: Iterable[int]) -> int:
    """Dimension of the span of the reflections' root lines."""
    located = [w.locate_reflection(t) for t in refl_ids]
    return sum(
        len(f.span(f.root_vector(local) for fi, local in located if fi == i))
        for i, f in enumerate(w.factors)
    )


# -- dihedral machinery ----------------------------------------------------


@dataclass(frozen=True)
class DihedralTriple:
    """Angle data of three distinct reflection lines in I2(m): the A_ij are
    the angle multiples (in units of pi/m), normalized to sum to 2m."""

    m: int
    a12: int
    a13: int
    a23: int

    def __post_init__(self):
        if self.a12 + self.a13 + self.a23 != 2 * self.m:
            raise BadFactorization(
                f"triple {self.a12, self.a13, self.a23} does not sum to 2m = {2 * self.m}"
            )
        for a in (self.a12, self.a13, self.a23):
            if not 1 <= a <= self.m - 1:
                raise BadFactorization(f"angle multiple {a} not in 1..{self.m - 1}")

    @property
    def values(self) -> tuple[int, int, int]:
        return (self.a12, self.a13, self.a23)


def _dihedral_factor(w: CoxeterGroup) -> DihedralFactor:
    if len(w.factors) != 1 or not isinstance(w.factors[0], DihedralFactor):
        raise TypeMismatch(f"{w.name} is not a dihedral group I2(m)")
    return w.factors[0]


def dihedral_triple_of(
    r1: GroupElement, r2: GroupElement, r3: GroupElement
) -> DihedralTriple:
    """The angle triple of three distinct reflections of one I2(m).

    Lines are sorted by index; with circular gaps ``g1, g2, g3`` between
    consecutive lines, the multiples are ``A12 = m - g1``, ``A23 = m - g2``,
    ``A13 = m - g3``, which makes the sum 2m and ``gcd(A_ij, m)`` equal the
    gcd of the corresponding index difference with m.
    """
    w = r1.group
    factor = _dihedral_factor(w)
    m = factor.m
    lines = []
    for r in (r1, r2, r3):
        if r.group is not w:
            raise TypeMismatch("reflections from different groups")
        a, flip = r.comps[0]
        if not flip:
            raise TypeMismatch(f"{r!r} is a rotation, not a reflection")
        lines.append(a)
    if len(set(lines)) != 3:
        raise NotDistinct(f"lines {lines} are not pairwise distinct")
    k1, k2, k3 = sorted(lines)
    g1, g2, g3 = k2 - k1, k3 - k2, m - (k3 - k1)
    return DihedralTriple(m=m, a12=m - g1, a13=m - g3, a23=m - g2)


def dihedral_generates(triple: DihedralTriple) -> bool:
    """Whether three lines with these angle multiples generate I2(m)."""
    return gcd(gcd(triple.a12, triple.a13), gcd(triple.a23, triple.m)) == 1


def dihedral_pair_generates(triple: DihedralTriple, pair: tuple[int, int]) -> bool:
    """Whether the lines ``i`` and ``j`` (1-based, as in ``A_ij``) already
    generate on their own."""
    a = {(1, 2): triple.a12, (1, 3): triple.a13, (2, 3): triple.a23}[
        tuple(sorted(pair))
    ]
    return gcd(a, triple.m) == 1


def dihedral_pair_subgroup_order(triple: DihedralTriple, pair: tuple[int, int]) -> int:
    """Order of the dihedral subgroup generated by the pair of lines."""
    a = {(1, 2): triple.a12, (1, 3): triple.a13, (2, 3): triple.a23}[
        tuple(sorted(pair))
    ]
    return 2 * triple.m // gcd(a, triple.m)


def realize_triple(w: CoxeterGroup, triple: DihedralTriple) -> tuple[int, int, int]:
    """Reflection indices in ``w`` realizing the triple, anchored at line 0:
    (0, m - A12, A13)."""
    factor = _dihedral_factor(w)
    if factor.m != triple.m:
        raise TypeMismatch(f"triple is for m = {triple.m}, group has m = {factor.m}")
    return (0, triple.m - triple.a12, triple.a13)


def crt_construct(m: int, p: int, q: int, r: int) -> DihedralTriple:
    """A triple that generates I2(m) although no pair does, built from a
    factorization m = p*q*r into pairwise coprime parts > 1.

    Chinese-remainder solves ``a = 0 (p), 1 (q), 1 (r)`` and
    ``b = 1 (p), 0 (q), -1 (r)``; the triple is ``(a, b, 2m-a-b)`` when
    ``a + b > m`` and the complementary ``(m-a, m-b, a+b)`` otherwise.  The
    gcds with m are then exactly ``gcd(A12, m) = p``, ``gcd(A13, m) = q``,
    ``gcd(A23, m) = r``.
    """
    if p <= 1 or q <= 1 or r <= 1:
        raise BadFactorization("factors must each exceed 1")
    if p * q * r != m:
        raise BadFactorization(f"{p}*{q}*{r} != {m}")
    if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
        raise BadFactorization("factors must be pairwise coprime")
    a = _crt([(0, p), (1, q), (1, r)])
    b = _crt([(1, p), (0, q), (-1, r)])
    if a + b > m:
        triple = DihedralTriple(m=m, a12=a, a13=b, a23=2 * m - a - b)
    else:
        triple = DihedralTriple(m=m, a12=m - a, a13=m - b, a23=a + b)
    profile = tuple(gcd(x, m) for x in triple.values)
    assert profile == (p, q, r), (profile, (p, q, r))
    assert dihedral_generates(triple)
    return triple


def _crt(congruences: list[tuple[int, int]]) -> int:
    """Smallest positive solution of simultaneous congruences with pairwise
    coprime moduli."""
    x, modulus = 0, 1
    for residue, mod in congruences:
        # solve x + modulus*k = residue (mod mod)
        k = ((residue - x) * pow(modulus, -1, mod)) % mod
        x += modulus * k
        modulus *= mod
    return x % modulus or modulus


# -- signed graphs for types A, B, D ---------------------------------------


@dataclass(frozen=True)
class SignedGraph:
    """A signed graph on vertices ``0..n-1``: edges ``(i, j, sign)`` with
    ``i <= j``; a loop ``(i, i, +1)`` stands for a coordinate reflection.

    Plain edges (sign +1) are reflections ``e_i - e_j``, negative edges
    (sign -1) are ``e_i + e_j``."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for i, j, s in self.edges:
            if not (0 <= i <= j < self.n):
                raise TypeMismatch(f"edge {(i, j, s)} out of range for n = {self.n}")
            if s not in (-1, 1) or (i == j and s != 1):
                raise TypeMismatch(f"bad edge {(i, j, s)}")

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(i for i, j, _ in self.edges if i == j)


_GRAPH_FAMILIES = ("A", "B", "D")


def _vector_factor_for_graph(w: CoxeterGroup, family: str | None) -> tuple[VectorFactor, str, int]:
    if len(w.factors) != 1 or not isinstance(w.factors[0], VectorFactor):
        raise TypeMismatch(f"{w.name} has no single vector realization")
    factor = w.factors[0]
    actual = w.datum.factors[0].family
    if actual not in _GRAPH_FAMILIES:
        raise TypeMismatch(f"no signed-graph model for family {actual}")
    if family is not None and family != actual:
        raise TypeMismatch(f"{w.name} is type {actual}, not {family}")
    vertices = factor.rank + 1 if actual == "A" else factor.rank
    return factor, actual, vertices


def signed_graph_of(
    w: CoxeterGroup, refl_ids: Iterable[int], family: str | None = None
) -> SignedGraph:
    """Translate reflections of an A/B/D group into a signed graph."""
    factor, actual, vertices = _vector_factor_for_graph(w, family)
    edges = []
    for t in sorted(set(refl_ids)):
        root = factor.root_vector(t)
        support = [i for i, c in enumerate(root) if c]
        if len(support) == 1:
            edges.append((support[0], support[0], 1))
        else:
            i, j = support
            sign = 1 if root[i] != root[j] else -1
            edges.append((i, j, sign))
    return SignedGraph(n=vertices, edges=tuple(sorted(edges)))


def reflections_of_graph(w: CoxeterGroup, graph: SignedGraph) -> tuple[int, ...]:
    """Inverse translation: the reflection ids realizing a signed graph."""
    factor, actual, vertices = _vector_factor_for_graph(w, None)
    if graph.n != vertices:
        raise TypeMismatch(f"graph on {graph.n} vertices, group needs {vertices}")
    by_edge = {}
    for t in range(factor.num_reflections):
        root = factor.root_vector(t)
        support = [i for i, c in enumerate(root) if c]
        if len(support) == 1:
            by_edge[(support[0], support[0], 1)] = t
        else:
            i, j = support
            by_edge[(i, j, 1 if root[i] != root[j] else -1)] = t
    try:
        return tuple(sorted(by_edge[e] for e in graph.edges))
    except KeyError as e:
        raise TypeMismatch(f"edge {e.args[0]} has no reflection in {w.name}")


def _components(graph: SignedGraph) -> list[set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    for i, j, _ in graph.edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    comps = []
    for v in range(graph.n):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def _is_balanced(graph: SignedGraph) -> bool:
    """No cycle with an odd number of negative edges (loops ignored)."""
    parity: dict[int, int] = {}
    for comp in _components(graph):
        root = min(comp)
        parity[root] = 0
        frontier = [root]
        edges = [(i, j, s) for i, j, s in graph.edges if i != j]
        while frontier:
            x = frontier.pop()
            for i, j, s in edges:
                if x in (i, j):
                    y = j if x == i else i
                    want = parity[x] ^ (1 if s < 0 else 0)
                    if y not in parity:
                        parity[y] = want
                        frontier.append(y)
                    elif parity[y] != want:
                        return False
    return True


def _validate_graph(graph: SignedGraph, family: str) -> None:
    if family not in _GRAPH_FAMILIES:
        raise TypeMismatch(f"no graph criterion for family {family!r}")
    if family in ("A", "D") and graph.loops:
        raise TypeMismatch(f"type {family} graphs cannot carry loops")


def graph_generation_test(graph: SignedGraph, family: str) -> bool:
    """The graph-theoretic generation criterion.

    Type A: connected.  Type B: connected with at least one loop.  Type D:
    connected with a negative cycle (some cycle with an odd number of
    ``e_i + e_j`` edges)."""
    _validate_graph(graph, family)
    connected = len(_components(graph)) == 1
    if family == "A":
        return connected
    if family == "B":
        return connected and bool(graph.loops)
    return connected and not _is_balanced(graph)


def extract_minimum_subset(graph: SignedGraph, family: str) -> SignedGraph:
    """A rank-size generating subset inside a generating graph: a spanning
    tree (A), a spanning tree plus a loop (B), or a spanning unicycle whose
    cycle is negative (D)."""
    _validate_graph(graph, family)
    if not graph_generation_test(graph, family):
        raise NotGenerating(f"graph does not generate a type-{family} group")
    non_loops = [(i, j, s) for i, j, s in graph.edges if i != j]
    tree: list[tuple[int, int, int]] = []
    parity = {0: 0}
    grew = True
    while grew:
        grew = False
        for i, j, s in non_loops:
            if (i in parity) != (j in parity):
                x, y = (i, j) if i in parity else (j, i)
                parity[y] = parity[x] ^ (1 if s < 0 else 0)
                tree.append((i, j, s))
                grew = True
    if family == "A":
        return SignedGraph(graph.n, tuple(sorted(tree)))
    if family == "B":
        first_loop = min(graph.loops)
        return SignedGraph(
            graph.n, tuple(sorted(tree + [(first_loop, first_loop, 1)]))
        )
    chord = next(
        (i, j, s)
        for i, j, s in non_loops
        if (i, j, s) not in tree
        and (parity[i] ^ parity[j]) != (1 if s < 0 else 0)
    )
    return SignedGraph(graph.n, tuple(sorted(tree + [chord])))


# -- class multiset invariance ---------------------------------------------


@dataclass(frozen=True)
class ClassMultisetReport:
    """Whether all rank-size generating sets share one multiset of
    W-conjugacy classes of reflections."""

    group: str
    holds: bool
    multisets: tuple[tuple[str, ...], ...]
    generating_orbits: int


def genset_class_multiset_invariance(
    w: CoxeterGroup, budget: Budget | None = None
) -> ClassMultisetReport:
    """Sweep rank-size generating subsets (up to conjugacy, which preserves
    both generation and the class multiset) and compare their multisets of
    W-conjugacy classes."""
    labels = w.refl_class_labels
    serial = w.reflection_serializations
    label_name = {c: serial[c] for c in set(labels)}
    multisets: set[tuple[str, ...]] = set()
    generating = 0
    for rep, _ in conjugacy_orbit_reps(w, w.rank, budget):
        if w.generates_whole(rep):
            generating += 1
            multisets.add(tuple(sorted(label_name[labels[t]] for t in rep)))
    return ClassMultisetReport(
        group=w.name,
        holds=len(multisets) <= 1,
        multisets=tuple(sorted(multisets)),
        generating_orbits=generating,
    )

"""Minimal versus minimum reflection generating sets.

A generating set of reflections is *minimal* when no proper subset generates,
and a *minimum* one has size equal to the rank.  The two notions coincide for
most irreducible types; dihedral groups I2(m) with at least three distinct
prime factors in m are the exception, and the machinery here can both find
the counterexamples and certify their absence.

One rule, ``_analyze``, decides minimal versus minimum for ``analyze_genset``
and the sweep of ``check_min_equals_min``.  Fewer than rank reflections
never generate, so a generating rank-size set is minimal and no test runs
whose answer the rank fixes.

``_analyze`` decides generation for every family by ``w.generates_whole``,
on the reflection set alone: a set generates exactly when its closure under
mutual conjugation is all of T.  Subset sweeps run only up to conjugacy.

Two standalone criteria model classical families; the tests check each
against ``w.generates_whole``:

* types A/B/D translate reflection sets into signed graphs (transposition
  ``e_i - e_j`` becomes a plain edge, ``e_i + e_j`` a negative edge, the
  coordinate reflection ``e_i`` a loop), where generation is connectivity
  plus a loop (B) or a negative cycle (D);
* dihedral groups reduce to gcd arithmetic on the angle multiples of a
  triple of lines, with a Chinese-remainder construction producing triples
  that generate while no pair does.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator

from .budget import Budget
from .errors import (
    BadFactorization,
    NotDistinct,
    NotGenerating,
    TypeMismatch,
)
from .groups import (
    CoxeterGroup, DihedralFactor, GroupElement, VectorFactor, breadth_first
)


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
    generating subset.  The witness is the first generating rank-size
    subset in lexicographic order; failing that, the first generating
    one-out subset, dropping the least reflection first.  Each generation
    test charges ``max_tuples`` once."""

    def gen(subset) -> bool:
        if budget is not None:
            budget.charge("max_tuples")
        return w.generates_whole(subset)

    return _analyze(tuple(sorted(set(refl_ids))), w.rank, gen)


def _analyze(
    ids: tuple[int, ...], rank: int, gen: Callable[[tuple[int, ...]], bool]
) -> GenSetReport:
    """The minimal-versus-minimum rule for the sorted set ``ids``; ``gen``
    decides whether a subset generates the target, of rank ``rank``."""
    if not gen(ids):
        return GenSetReport(ids, False, False, False, None)
    if len(ids) == rank:
        return GenSetReport(ids, True, True, True, ids)
    witness = next((s for s in itertools.combinations(ids, rank) if gen(s)), None)
    # the one-out subsets of a (rank+1)-size set are the rank-size ones
    if witness is None and len(ids) > rank + 1:
        one_outs = (ids[:i] + ids[i + 1 :] for i in range(len(ids)))
        witness = next((s for s in one_outs if gen(s)), None)
    contains_minimum = witness is not None and len(witness) == rank
    return GenSetReport(ids, True, witness is None, contains_minimum, witness)


def conjugacy_orbit_reps(
    w: CoxeterGroup, size: int, budget: Budget | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Representatives of W-conjugation orbits on size-``size`` reflection
    subsets, with orbit sizes.  Reps come in lexicographic order and are the
    lexicographically least members of their orbits."""
    conj = w.refl_conj_table
    simples = w.simple_reflection_ids

    def images(layer):
        return (frozenset(conj[t][s] for t in sub) for sub in layer for s in simples)

    # orbits are disjoint, so one seen set serves every search: a seed not
    # yet visited reaches only its own, unvisited, orbit
    visited: set[frozenset[int]] = set()
    for seed in itertools.combinations(range(w.num_reflections), size):
        fseed = frozenset(seed)
        if fseed in visited:
            continue
        if budget is not None:
            budget.charge("max_tuples")
        yield seed, sum(map(len, breadth_first(visited, [fseed], images)))


@dataclass(frozen=True)
class MinMinReport:
    """Verdict of the minimum-equals-minimal sweep."""

    group: str
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]
    orbits_checked: int


def check_min_equals_min(w: CoxeterGroup, budget: Budget | None = None) -> MinMinReport:
    """Whether every minimal reflection generating set has minimum size.

    The sweep runs over the (rank+1)-subsets of T up to conjugacy: a
    counterexample is a generating subset none of whose rank-size subsets
    generates.  Subsets of size rank+1 decide the property: a larger minimal
    generating set would contain one.
    """
    counter = []
    checked = 0
    for rep, _ in conjugacy_orbit_reps(w, w.rank + 1, budget):
        checked += 1
        if _analyze(rep, w.rank, w.generates_whole).is_minimal:
            counter.append(rep)
    return MinMinReport(
        group=w.name,
        holds=not counter,
        counterexamples=tuple(counter),
        orbits_checked=checked,
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

    >>> w = CoxeterGroup("I2(6)")
    >>> dihedral_triple_of(w.reflection(0), w.reflection(1), w.reflection(3))
    DihedralTriple(m=6, a12=5, a13=3, a23=4)
    """
    w = r1.group
    m = _dihedral_factor(w).m
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


def _pair_angle(triple: DihedralTriple, pair: tuple[int, int]) -> int:
    """The angle multiple ``A_ij`` of the lines ``i`` and ``j`` (1-based,
    in either order)."""
    return {(1, 2): triple.a12, (1, 3): triple.a13, (2, 3): triple.a23}[
        tuple(sorted(pair))
    ]


def dihedral_pair_generates(triple: DihedralTriple, pair: tuple[int, int]) -> bool:
    """Whether the lines ``i`` and ``j`` (1-based, as in ``A_ij``) already
    generate on their own."""
    return gcd(_pair_angle(triple, pair), triple.m) == 1


def dihedral_pair_subgroup_order(triple: DihedralTriple, pair: tuple[int, int]) -> int:
    """Order of the dihedral subgroup generated by the pair of lines.

    >>> dihedral_pair_subgroup_order(DihedralTriple(6, 5, 3, 4), (1, 3))
    4
    """
    return 2 * triple.m // gcd(_pair_angle(triple, pair), triple.m)


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


def _graph_model(
    w: CoxeterGroup, family: str | None
) -> tuple[VectorFactor, Callable[[int], tuple[int, int, int]], int]:
    """The factor of a single A/B/D group, the signed-graph edge of each of
    its reflections, and the number of vertices."""
    if len(w.factors) != 1 or not isinstance(w.factors[0], VectorFactor):
        raise TypeMismatch(f"{w.name} has no single vector realization")
    factor = w.factors[0]
    actual = w.datum.factors[0].family
    if actual not in _GRAPH_FAMILIES:
        raise TypeMismatch(f"no signed-graph model for family {actual}")
    if family is not None and family != actual:
        raise TypeMismatch(f"{w.name} is type {actual}, not {family}")
    n = factor.rank
    vertices = n + 1 if actual == "A" else n
    # the simple roots' own edges: e_k - e_(k+1), then B's last root e_(n-1)
    # or D's last root e_(n-2) + e_(n-1)
    simple_edges = [(k, k + 1, 1) for k in range(n if actual == "A" else n - 1)]
    if actual == "B":
        simple_edges.append((n - 1, n - 1, 1))
    elif actual == "D":
        simple_edges.append((n - 2, n - 1, -1))

    def edge_of(t: int) -> tuple[int, int, int]:
        # the root's coordinates on e_0..e_(vertices-1): a loop for e_i, a
        # plain edge for e_i - e_j, a negative edge for e_i + e_j
        ambient = [0] * vertices
        for c, (i, j, sign) in zip(factor.root_vector(t), simple_edges):
            ambient[i] += c
            if i != j:
                ambient[j] -= sign * c
        support = [i for i, c in enumerate(ambient) if c]
        if len(support) == 1:
            return (support[0], support[0], 1)
        i, j = support
        return (i, j, 1 if ambient[i] != ambient[j] else -1)

    return factor, edge_of, vertices


def signed_graph_of(
    w: CoxeterGroup, refl_ids: Iterable[int], family: str | None = None
) -> SignedGraph:
    """Translate reflections of an A/B/D group into a signed graph.

    >>> signed_graph_of(CoxeterGroup("A3"), [0, 1, 2])
    SignedGraph(n=4, edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    """
    _, edge_of, vertices = _graph_model(w, family)
    ids = set(refl_ids)
    w.check_reflection_ids(ids)
    edges = [edge_of(t) for t in ids]
    return SignedGraph(n=vertices, edges=tuple(sorted(edges)))


def reflections_of_graph(w: CoxeterGroup, graph: SignedGraph) -> tuple[int, ...]:
    """Inverse translation: the reflection ids realizing a signed graph.

    >>> path = SignedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    >>> reflections_of_graph(CoxeterGroup("A3"), path)
    (0, 1, 2)
    """
    factor, edge_of, vertices = _graph_model(w, None)
    if graph.n != vertices:
        raise TypeMismatch(f"graph on {graph.n} vertices, group needs {vertices}")
    by_edge = {edge_of(t): t for t in range(factor.num_reflections)}
    try:
        return tuple(sorted(by_edge[e] for e in graph.edges))
    except KeyError as e:
        raise TypeMismatch(f"edge {e.args[0]} has no reflection in {w.name}")


def _spanning_forest(
    graph: SignedGraph,
) -> tuple[list[tuple[int, int, int]], list[int], int]:
    """One depth-first pass over the non-loop edges: the edges of a spanning
    forest, each vertex's parity (the number of negative edges on its tree
    path from its component's least vertex, mod 2), and the number of
    components.  It records tree edges and parities, not just the vertices
    reached, so it keeps its own loop instead of ``groups.breadth_first``."""
    adj: list[list[tuple[int, tuple[int, int, int]]]] = [[] for _ in range(graph.n)]
    for edge in graph.edges:
        i, j, _ = edge
        if i != j:
            adj[i].append((j, edge))
            adj[j].append((i, edge))
    parity = [-1] * graph.n
    tree = []
    components = 0
    for root in range(graph.n):
        if parity[root] >= 0:
            continue
        components += 1
        parity[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, edge in adj[x]:
                if parity[y] < 0:
                    parity[y] = parity[x] ^ (edge[2] < 0)
                    tree.append(edge)
                    stack.append(y)
    return tree, parity, components


def _negative_chord(
    graph: SignedGraph, parity: list[int]
) -> tuple[int, int, int] | None:
    """The first non-loop edge that closes a cycle with an odd number of
    negative edges, or None when the graph is balanced.  Tree edges agree
    with the parities, so only a chord can disagree."""
    for i, j, s in graph.edges:
        if i != j and parity[i] ^ parity[j] != (s < 0):
            return (i, j, s)
    return None


def graph_generation_test(graph: SignedGraph, family: str) -> bool:
    """The graph-theoretic generation criterion.

    Type A: connected.  Type B: connected with at least one loop.  Type D:
    connected with a negative cycle (some cycle with an odd number of
    ``e_i + e_j`` edges)."""
    if family not in _GRAPH_FAMILIES:
        raise TypeMismatch(f"no graph criterion for family {family!r}")
    if family in ("A", "D") and graph.loops:
        raise TypeMismatch(f"type {family} graphs cannot carry loops")
    _, parity, components = _spanning_forest(graph)
    if components != 1:
        return False
    if family == "A":
        return True
    if family == "B":
        return bool(graph.loops)
    return _negative_chord(graph, parity) is not None


def extract_minimum_subset(graph: SignedGraph, family: str) -> SignedGraph:
    """A rank-size generating subset inside a generating graph: a spanning
    tree (A), a spanning tree plus a loop (B), or a spanning unicycle whose
    cycle is negative (D).

    >>> w = CoxeterGroup("B3")
    >>> extract_minimum_subset(signed_graph_of(w, w.reflection_ids()), "B")
    SignedGraph(n=3, edges=((0, 0, 1), (0, 1, -1), (0, 2, -1)))
    """
    if not graph_generation_test(graph, family):
        raise NotGenerating(f"graph does not generate a type-{family} group")
    tree, parity, _ = _spanning_forest(graph)
    if family == "B":
        first_loop = min(graph.loops)
        tree.append((first_loop, first_loop, 1))
    elif family == "D":
        tree.append(_negative_chord(graph, parity))
    return SignedGraph(graph.n, tuple(sorted(tree)))


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

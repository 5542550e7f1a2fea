from fractions import Fraction
from functools import lru_cache
from typing import Callable

import pytest

from coxorbits.groups import build_group
from coxorbits.linalg import Matrix, kernel_basis, rank
from coxorbits.roots import IrreducibleDatum
from coxorbits.scalars import HALF, Scalar


@lru_cache(maxsize=None)
def cached_group(label: str):
    return build_group(label)


@pytest.fixture
def group():
    """Session-cached group factory: heavy tables survive across tests."""
    return cached_group


@lru_cache(maxsize=None)
def bfs_length_table(label: str) -> tuple[int, ...]:
    """Independent reflection-length oracle: breadth-first distance from the
    identity in the Cayley graph over the full reflection set.  Shares no
    logic with the geometric (fixed-space codimension) route, nor with the
    package's ``breadth_first`` search, so its loop is written out here.
    Its Cayley neighbours are component products, not ``refl_mult_table``
    rows, so the table the length route reads is not its own oracle."""
    w = cached_group(label)
    ids = w.element_ids()
    elems = w.elements()
    refl = [w.reflection(t) for t in w.reflection_ids()]
    dist = [-1] * len(ids)
    start = ids[w.identity.comps]
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        new = []
        for e in frontier:
            for r in refl:
                x = ids[(r * elems[e]).comps]
                if dist[x] < 0:
                    dist[x] = d
                    new.append(x)
        frontier = new
    return tuple(dist)


def conjugacy_class(h) -> frozenset:
    """Oracle for the conjugacy class of ``h``: its closure under ``x ->
    g x g^-1`` for the simple reflections ``g``, which generate the group,
    by element multiplication.  It reads neither ``refl_mult_table`` nor
    the package's ``breadth_first``, so its loop is written out here."""
    w = h.group
    gens = [w.reflection(s) for s in w.simple_reflection_ids]
    pairs = [(g, g.inverse()) for g in gens]
    found = {h}
    frontier = [h]
    while frontier:
        new = []
        for x in frontier:
            for g, g_inv in pairs:
                y = g * x * g_inv
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return frozenset(found)


def element_closure(w, gens) -> frozenset:
    """Oracle for the subgroup of ``w`` that ``gens`` generate: the closure
    of the identity under left multiplication by the generators, by element
    multiplication.  It reads neither element ids nor ``refl_mult_table``,
    nor the package's ``breadth_first``, so its loop is written out here."""
    found = {w.identity}
    frontier = [w.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return frozenset(found)


@lru_cache(maxsize=None)
def gram_matrix(ir: IrreducibleDatum) -> Matrix:
    """Oracle for the form behind a vector family's Cartan integers: the
    Gram matrix ``(alpha_i, alpha_j)`` of its simple roots, in ``Scalar``
    arithmetic from the diagram bonds and root norms, so that
    ``<alpha_i, alpha_j^vee> = 2 G_ij / G_jj``.

    Long roots have norm 2 and short roots norm 1; all of H's roots are
    short.  Bonded roots of norms ``a`` and ``b`` whose reflections have
    product of order ``m`` meet in ``-sqrt(a*b)*cos(pi/m)``.  For every
    bond of A, B, D, E and F that is ``-max(a, b)/2``: ``-1`` between long
    roots and across the double bond of B and F, ``-1/2`` between short
    roots.  H's simple bonds are ``-1/2`` too, and its five-fold bond is
    ``-cos(pi/5)``.
    """
    family, n = ir.family, ir.rank
    bonds = [(k, k + 1) for k in range(n - 1)]
    if family == "D":
        bonds[-1] = (n - 3, n - 1)
    elif family == "E":
        bonds = [(0, 2), (1, 3)] + bonds[2:]
    norms = [Scalar.one() if family == "H" else Scalar.from_int(2)] * n
    if family == "B":
        norms[-1] = Scalar.one()
    elif family == "F":
        norms[2:] = [Scalar.one(), Scalar.one()]
    entries = {(i, i): a for i, a in enumerate(norms)}
    for i, j in bonds:
        entries[i, j] = entries[j, i] = -max(norms[i], norms[j]) * HALF
    if family == "H":
        cos_pi_5 = Scalar(Fraction(1, 4), Fraction(1, 4))  # (1 + sqrt5)/4
        entries[0, 1] = entries[1, 0] = -cos_pi_5
    return Matrix(
        tuple(
            tuple(entries.get((i, j), Scalar.zero()) for j in range(n))
            for i in range(n)
        )
    )


def scalar_reflection(form: Matrix, alpha: tuple) -> Callable[[tuple], tuple]:
    """The reflection ``v -> v - <v, alpha^vee> alpha`` of ``Scalar``
    coordinate vectors, with ``alpha^vee = 2 F alpha / (alpha, F alpha)``
    for the Gram form ``F``."""
    f_alpha = form.apply(alpha)
    norm = sum((a * b for a, b in zip(alpha, f_alpha)), Scalar.zero())
    coroot = tuple(Scalar.from_int(2) * c / norm for c in f_alpha)

    def reflect(v: tuple) -> tuple:
        c = sum((a * b for a, b in zip(v, coroot) if a and b), Scalar.zero())
        return tuple(a - c * b for a, b in zip(v, alpha))

    return reflect


@lru_cache(maxsize=None)
def scalar_root_system(ir: IrreducibleDatum) -> tuple[tuple, tuple, tuple]:
    """Oracle for a vector factor's root list, independent of its integer
    lattice: the closure of the simple roots (the unit vectors) under the
    simple reflections, in ``Scalar`` coordinates on :func:`gram_matrix`.
    Breadth first, each layer's new roots in order of (root, simple
    reflection), so the list order is the one the package must keep.

    Returns the roots, the indices of the positive ones (those of positive
    height, the sum of the coordinates) and each root's negative's index."""
    form = gram_matrix(ir)
    simples = Matrix.identity(ir.rank).rows
    reflections = [scalar_reflection(form, alpha) for alpha in simples]
    found = list(simples)
    seen = set(found)
    layer = found
    while layer:
        new = []
        for v in layer:
            for reflect in reflections:
                u = reflect(v)
                if u not in seen:
                    seen.add(u)
                    new.append(u)
        found = found + new
        layer = new
    index = {v: i for i, v in enumerate(found)}
    positive = tuple(
        i for i, v in enumerate(found) if sum(v, Scalar.zero()).sign() > 0
    )
    neg_of = tuple(index[tuple(-a for a in v)] for v in found)
    return tuple(found), positive, neg_of


def geometric_reflection_perm(ir: IrreducibleDatum, f, t: int) -> tuple[int, ...]:
    """Oracle for the reflection permutation of the vector factor ``f``
    realizing ``ir``: the image of each root under ``s_alpha`` (see
    :func:`scalar_reflection`), computed in ``Scalar`` arithmetic for every
    root, on the roots' ``Scalar`` coordinates."""
    roots = [f.scalar_vector(v) for v in f.roots]
    index = {v: i for i, v in enumerate(roots)}
    reflect = scalar_reflection(gram_matrix(ir), f.scalar_vector(f.root_vector(t)))
    return tuple(index[reflect(v)] for v in roots)


@lru_cache(maxsize=2)
def _brute_products(w, k: int) -> dict:
    """Every length-k reflection tuple of ``w``, in lexicographic order,
    bucketed by its product (element multiplication, no pruning)."""
    refl = [w.reflection(t) for t in w.reflection_ids()]
    layer = [((), w.identity)]
    for _ in range(k):
        layer = [
            (tup + (t,), prod * r)
            for tup, prod in layer
            for t, r in enumerate(refl)
        ]
    out: dict = {}
    for tup, prod in layer:
        out.setdefault(prod, []).append(tup)
    return out


def brute_reduced_factorizations(g, k: int) -> list[tuple[int, ...]]:
    """Oracle: all length-k reflection tuples multiplying to ``g``, found by
    filtering the full product space (exponential; tiny inputs only)."""
    return list(_brute_products(g.group, k).get(g, []))


def fixed_space_codim(m: Matrix) -> int:
    """Oracle for reflection length: ``rank(M - I)`` of the ambient matrix,
    by Bareiss elimination on ``Scalar`` entries rather than the factors'
    root cycles."""
    if m.n_rows != m.n_cols:
        raise ValueError("fixed_space_codim needs a square matrix")
    return rank(m - Matrix.identity(m.n_rows))


def kernel_contains(m: Matrix, n: Matrix) -> bool:
    """Oracle for containment of fixed spaces: whether ``Fix(M)`` contains
    ``Fix(N)``, i.e. ``M - I`` kills every kernel basis vector of ``N - I``."""
    if m.n_rows != m.n_cols or n.n_rows != n.n_cols or m.n_rows != n.n_rows:
        raise ValueError("kernel_contains needs square matrices of equal size")
    ident = Matrix.identity(m.n_rows)
    return kills(m - ident, kernel_basis(n - ident))


def kills(diff: Matrix, basis: list) -> bool:
    """:func:`kernel_contains`'s rule on a difference ``M - I`` and a kernel
    basis of ``N - I`` computed once, for callers that test many pairs.
    Each row meets each basis vector in a dot product that skips the zero
    entries, which most rows of a reflection's ``M - I`` are."""
    zero = Scalar.zero()
    return all(
        not sum((a * x for a, x in zip(row, v) if a and x), zero)
        for v in basis
        for row in diff.rows
    )

"""Exact computations with finite real reflection groups.

The package builds finite Coxeter groups from their classification labels,
computes reflection lengths and absolute order exactly, enumerates Hurwitz
orbits of reflection factorizations, classifies parabolic quasi-Coxeter
elements, and analyzes minimal versus minimum reflection generating sets.
Everything is exact: roots and fixed spaces on integer lattice coordinates,
matrices over the field Q(sqrt 5); no floating point is involved in any
decision.

Quick tour:

>>> from coxorbits import build_group
>>> w = build_group("A3")
>>> w.census_order, w.num_reflections
(24, 6)

Module map: :mod:`~coxorbits.scalars` and :mod:`~coxorbits.linalg` provide
the exact arithmetic; :mod:`~coxorbits.roots` and :mod:`~coxorbits.groups`
build root systems and groups; :mod:`~coxorbits.absorder` covers reflection
length, absolute order and quasi-Coxeter classification;
:mod:`~coxorbits.hurwitz` enumerates factorizations and their orbits;
:mod:`~coxorbits.gensets` analyzes generating sets; and
:mod:`~coxorbits.campaigns`/:mod:`~coxorbits.cli` drive whole-group
verification sweeps.
"""
from .errors import (
    BadFactorization,
    CapExceeded,
    CoxorbitsError,
    GroupMismatch,
    IndexOutOfRange,
    NotDistinct,
    NotGenerating,
    ParseError,
    ShapeNotFound,
    TypeMismatch,
    UnsupportedType,
)
from .groups import build_group
from .scalars import Scalar

__all__ = [
    "BadFactorization",
    "CapExceeded",
    "CoxorbitsError",
    "GroupMismatch",
    "IndexOutOfRange",
    "NotDistinct",
    "NotGenerating",
    "ParseError",
    "Scalar",
    "ShapeNotFound",
    "TypeMismatch",
    "UnsupportedType",
    "build_group",
]


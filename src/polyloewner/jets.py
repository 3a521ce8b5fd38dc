"""Truncated multivariate power-series jets as values.

A jet stores the Taylor coefficients of a holomorphic function of ``dim``
complex variables through total degree ``degree``; everything of higher
order is discarded.  Multi-indices are plain integer tuples ordered
graded-lexicographically (by total degree, then lexicographic).  Only
this module knows how a jet is stored: as a read-only view of a complex
array on that basis, one row for a ``MultiJet`` and one per component for
a ``JetMap``: the (n, B) array of ``kernels``.  A lower degree's basis is
a prefix, so truncation is a column slice.

This module holds jet values only: construction (from {alpha: c} dicts,
or from an engine array), coefficient reads, the constant and linear
parts, pointwise evaluation, distances and JSON.  It has no arithmetic:
every product, composition and evolution step runs on the arrays in
``kernels``.  A dict-jet ring stays in the tests as that engine's oracle.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "JetShapeError",
    "DomainError",
    "SingularityError",
    "Normalization",
    "MultiJet",
    "JetMap",
    "grlex_key",
    "multiindices",
    "rotation_phases",
    "assert_normalization",
    "check_normalization",
    "jet_distance",
    "map_distance",
    "jet_to_json",
    "jet_from_json",
    "map_to_json",
    "MAX_BASIS_SIZE",
    "check_jet_shape",
]

# Largest jet basis C(dim + degree, dim) accepted from outside: it admits
# (3, 16) with 969 monomials and (4, 10) with 1001.
MAX_BASIS_SIZE = 1001


class JetShapeError(ValueError):
    """Dimension or truncation degree mismatch between operands."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


class SingularityError(ArithmeticError):
    """Constant term of a jet matrix is singular."""


def grlex_key(alpha: Sequence[int]) -> tuple:
    """Sort key realizing graded-lexicographic order on multi-indices."""
    return (sum(alpha), tuple(alpha))


def multiindices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with ``|alpha| <= degree``, graded-lex sorted."""
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        # a multi-index of total degree d is a multiset of d variables
        for combo in itertools.combinations_with_replacement(range(dim), total):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    out.sort(key=grlex_key)
    return out


@lru_cache(maxsize=None)
def _basis(dim: int, degree: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """The graded-lex multi-indices of (dim, degree) and the column of each."""
    alphas = tuple(multiindices(dim, degree))
    return alphas, {a: k for k, a in enumerate(alphas)}


def check_jet_shape(dim: int, degree: int) -> None:
    """Refuse a jet shape whose basis has more than ``MAX_BASIS_SIZE`` monomials.

    The basis of (dim, degree) has C(dim + degree, dim) monomials.  The
    count is built as a product of binomials and stops at the first
    partial count past the cap, so a huge request costs a few steps.
    Shapes with dim < 1 or degree < 0 are left to the callers' own checks.
    """
    size, big, small = 1, max(dim, degree), min(dim, degree)
    for k in range(1, small + 1):
        size = size * (big + k) // k  # C(big + k, k)
        if size > MAX_BASIS_SIZE:
            raise JetShapeError(
                f"jet shape (dim {dim}, degree {degree}) has more than "
                f"{MAX_BASIS_SIZE} monomials"
            )


def _validate_alpha(alpha: Sequence[int], dim: int, degree: int) -> tuple[int, ...]:
    a = tuple(int(x) for x in alpha)
    if len(a) != dim:
        raise JetShapeError(f"multi-index {a} has length {len(a)}, expected {dim}")
    if any(x < 0 for x in a):
        raise DomainError(f"multi-index {a} has a negative entry")
    if sum(a) > degree:
        raise JetShapeError(f"multi-index {a} exceeds truncation degree {degree}")
    return a


def _fill(obj: "_Jet", array: np.ndarray, **fields) -> None:
    """Set a jet's fields once; its ``array`` becomes a read-only view."""
    array = np.asarray(array, dtype=np.complex128).view()
    array.flags.writeable = False
    obj.__dict__.update(array=array, **fields)  # past the read-only __setattr__


def _refilled(cls: type, fields: dict) -> "_Jet":
    """A copy of a jet of type ``cls``, filled through ``_fill`` like the original."""
    out = object.__new__(cls)
    _fill(out, **fields)
    return out


def _basis_degree(shape: tuple[int, ...]) -> int:
    """The degree D of an (n, B) array on the graded-lex basis: B = C(n + D, n)."""
    if len(shape) == 2 and shape[0] >= 1:
        n, size = shape
        degree = 0
        while math.comb(n + degree, n) < size:
            degree += 1
        if math.comb(n + degree, n) == size:
            return degree
    raise JetShapeError(f"no (dim, degree) jet basis gives an array of shape {shape}")


def _row_values(row: np.ndarray, alphas: Sequence[tuple[int, ...]], z: np.ndarray) -> np.ndarray:
    """The polynomial of one row at the points z, over its nonzero columns.

    Each term is c * z_j**p * ... left to right, added in basis order:
    the bits of a term-by-term loop over the coefficients in that order.
    """
    out = np.zeros(z.shape[:-1], dtype=np.complex128)
    for k in np.flatnonzero(row):
        term = np.full(z.shape[:-1], row[k])
        for j, p in enumerate(alphas[k]):
            if p:
                term = term * z[..., j] ** p
        out = out + term
    return out


class _Jet:
    """Read-only coefficients on the graded-lex basis of (dim, degree)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        # pickle and deepcopy rebuild through _fill, so a copy stays read-only
        return _refilled, (type(self), dict(self.__dict__))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.dim, self.degree) == (other.dim, other.degree)
            and getattr(self, "normalization", None) == getattr(other, "normalization", None)
            and bool(np.array_equal(self.array, other.array))
        )

    def _read(self, row: tuple, alphas: Sequence[Sequence[int]]) -> list[complex]:
        """The coefficients of ``alphas`` in ``row``, gathered in one read."""
        index = _basis(self.dim, self.degree)[1]
        ks = [index.get(tuple(map(int, a)), -1) for a in alphas]  # -1: not in the basis
        vals = self.array[row][ks].tolist()
        # an exact zero, or a multi-index past the basis, reads +0j, as a term never stored
        return [c if k >= 0 and c else 0j for k, c in zip(ks, vals)]

    def _values(self, rows: np.ndarray, z) -> list:
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[-1] != self.dim:
            raise JetShapeError(f"points have last axis {z.shape[-1]}, expected {self.dim}")
        alphas = _basis(self.dim, self.degree)[0]
        return [_row_values(row, alphas, z) for row in rows]


class MultiJet(_Jet):
    """A scalar-valued jet: one row of coefficients on the graded-lex basis.

    ``MultiJet(dim, degree, {alpha: c})`` fills the row once; a multi-index
    of the wrong length or past ``degree`` raises ``JetShapeError``.
    """

    def __init__(self, dim: int, degree: int, coeffs: Optional[Mapping] = None) -> None:
        if dim < 1 or degree < 0:
            raise JetShapeError(f"need dim >= 1 and degree >= 0, got ({dim}, {degree})")
        index = _basis(dim, degree)[1]
        row = np.zeros(len(index), dtype=np.complex128)
        for alpha, c in (coeffs or {}).items():
            a = _validate_alpha(alpha, dim, degree)
            c = complex(c)
            if c != 0:
                row[index[a]] = c
        _fill(self, dim=dim, degree=degree, array=row)

    def coefficient(self, alpha: Sequence[int]) -> complex:
        return self._read((), (alpha,))[0]

    def __call__(self, z) -> np.ndarray:
        return self._values(self.array[None], z)[0]


class Normalization(enum.Enum):
    """Linear-part convention a jet map is declared to satisfy."""

    UNIVALENT = "normalized-univalent"    # value 0, linear part +identity
    GENERATOR = "generator-normalized"    # value 0, linear part -identity
    GENERAL = "general"


class JetMap(_Jet):
    """A map jet: a read-only view of one (dim, B) array, one row per component.

    ``JetMap((MultiJet, ...), normalization)`` stacks its components once;
    ``JetMap.from_array`` wraps an array the engine already holds, uncopied,
    and reads the degree off its shape.
    """

    def __init__(
        self, components: Sequence[MultiJet], normalization: Normalization = Normalization.GENERAL
    ) -> None:
        comps = tuple(components)
        shapes = sorted({(c.dim, c.degree) for c in comps})
        if len(shapes) != 1 or shapes[0][0] != len(comps):
            raise JetShapeError(f"need dim components of one shape, got {len(comps)} of {shapes}")
        array = np.stack([c.array for c in comps])
        _fill(self, dim=len(comps), degree=shapes[0][1], array=array, normalization=normalization)

    @classmethod
    def from_array(
        cls, array: np.ndarray, normalization: Normalization = Normalization.GENERAL
    ) -> "JetMap":
        """The map whose row i holds component i on the graded-lex basis."""
        degree = _basis_degree(array.shape)
        out = object.__new__(cls)
        _fill(out, dim=len(array), degree=degree, array=array, normalization=normalization)
        return out

    def component(self, i: int) -> MultiJet:
        """Component i as a scalar jet viewing row i."""
        out = object.__new__(MultiJet)
        _fill(out, dim=self.dim, degree=self.degree, array=self.array[i])
        return out

    def coefficient(self, i: int, alpha: Sequence[int]) -> complex:
        return self._read((i,), (alpha,))[0]

    def coefficients(self, i: int, alphas: Sequence[Sequence[int]]) -> list[complex]:
        """The coefficients of z^alpha in component i for each of ``alphas``, in one read."""
        return self._read((i,), alphas)

    def constant_terms(self) -> np.ndarray:
        return self.array[:, 0].copy()

    def linear_part(self) -> np.ndarray:
        """Matrix L with L[i, j] = coefficient of z_j in component i."""
        eye = [tuple(int(v == j) for v in range(self.dim)) for j in range(self.dim)]
        return np.array([self.coefficients(i, eye) for i in range(self.dim)])

    def __call__(self, z) -> np.ndarray:
        return np.stack(self._values(self.array, z), axis=-1)


def assert_normalization(f: JetMap, tol: float = 1e-8) -> None:
    """Check the declared normalization tag against the coefficients."""
    if f.normalization is not Normalization.GENERAL:
        sign = 1.0 if f.normalization is Normalization.UNIVALENT else -1.0
        check_normalization(f.constant_terms(), f.linear_part(), sign, tol)


def check_normalization(constant: np.ndarray, linear: np.ndarray, sign: float, tol: float) -> None:
    """Refuse a constant term above ``tol`` or a linear part off sign * identity."""
    const = max(abs(c) for c in constant.tolist())  # Python floats: cheap at these sizes
    if const > tol:
        raise DomainError(f"tagged map has constant term of size {const:.3e}")
    rows = enumerate(linear.tolist())
    dev = max(abs(v - sign * (i == j)) for i, row in rows for j, v in enumerate(row))
    if dev > tol:
        raise DomainError(
            f"linear part deviates from {'+' if sign > 0 else '-'}identity by {dev:.3e}"
        )


# -- rotations ------------------------------------------------------------


def rotation_phases(columns: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Unit phases exp(i*(<alpha, angles> - angles[j])) of a torus rotation.

    ``columns`` is an (n, m) float array of exponents, row v the powers of
    z_v in m monomials (``kernels.BasisTables.exponent_columns`` holds it
    per basis, so a rotation converts no types); entry [j, k] of the (n, m)
    result multiplies the coefficient of monomial k in component j.  The
    sum <alpha, angles> starts from 0.0 and runs over the coordinates left
    to right, so a rotated array and a dict jet rotated with these phases
    get the same bits.  The diagonal phase of the linear part, alpha = e_j
    in component j, is exactly 1.
    """
    th = np.asarray(angles, dtype=np.float64)
    total = 0.0
    for column, angle in zip(columns, th.tolist()):
        total = total + column * angle
    return np.exp(1j * (total[None, :] - th[:, None]))


# -- distances ------------------------------------------------------------


def jet_distance(a: MultiJet, b: MultiJet) -> float:
    """Largest absolute coefficient difference."""
    if a.dim != b.dim or a.degree != b.degree:
        raise JetShapeError("jets must share dim and degree to compare")
    d = a.array - b.array
    # hypot, as Python's abs of a complex: np.abs differs from it in the last bit
    return float(np.max(np.hypot(d.real, d.imag), initial=0.0))


def map_distance(f: JetMap, g: JetMap) -> float:
    """Largest absolute coefficient difference over the components."""
    return jet_distance(f, g)


# -- serialization --------------------------------------------------------


def jet_to_json(jet: MultiJet) -> dict:
    """The nonzero coefficients, in basis order, which is graded-lex order."""
    coeffs = [
        {"alpha": list(a), "re": c.real, "im": c.imag}
        for a, c in zip(_basis(jet.dim, jet.degree)[0], jet.array.tolist())
        if c != 0
    ]
    return {"dim": jet.dim, "degree": jet.degree, "coeffs": coeffs}


def jet_from_json(obj: Mapping) -> MultiJet:
    try:
        dim = int(obj["dim"])
        degree = int(obj["degree"])
        entries = obj["coeffs"]
        coeffs = {
            tuple(int(x) for x in e["alpha"]): complex(float(e["re"]), float(e.get("im", 0.0)))
            for e in entries
        }
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed jet object: {exc}") from exc
    check_jet_shape(dim, degree)
    for alpha, c in coeffs.items():
        if not cmath.isfinite(c):
            raise DomainError(f"jet coefficient of {alpha} is not finite: {c}")
    return MultiJet(dim, degree, coeffs)


def map_to_json(f: JetMap) -> dict:
    return {
        "dim": f.dim,
        "degree": f.degree,
        "normalization": f.normalization.value,
        "components": [jet_to_json(f.component(i)) for i in range(f.dim)],
    }

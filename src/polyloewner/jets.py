"""Truncated multivariate power-series jets as values.

A jet stores the Taylor coefficients of a holomorphic function of ``dim``
complex variables through total degree ``degree``; everything of higher
order is discarded.  Multi-indices are plain integer tuples ordered
graded-lexicographically (by total degree, then lexicographic), which is
the order of the dense array basis in ``kernels`` and of serialization.

This module holds jet values only: construction, coefficient reads, the
constant and linear parts, pointwise evaluation, distances and JSON.  It
has no arithmetic: every product, composition and evolution step runs on
the dense arrays of ``kernels``.  A dict-jet ring (sums, products and
derivatives) stays in the tests as that engine's oracle.
"""

from __future__ import annotations

import cmath
import enum
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class MultiJet:
    """A scalar-valued jet: coefficients of a truncated power series.

    ``coeffs`` maps multi-indices to complex coefficients; exact zeros are
    never stored.  Instances are immutable.
    """

    dim: int
    degree: int
    coeffs: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise JetShapeError(f"dim must be >= 1, got {self.dim}")
        if self.degree < 0:
            raise JetShapeError(f"degree must be >= 0, got {self.degree}")
        clean: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.coeffs.items():
            a = _validate_alpha(alpha, self.dim, self.degree)
            c = complex(c)
            if c != 0:
                clean[a] = c
        object.__setattr__(self, "coeffs", clean)

    # -- basic queries ----------------------------------------------------

    def coefficient(self, alpha: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(int(x) for x in alpha), 0j)

    def constant_term(self) -> complex:
        return self.coeffs.get((0,) * self.dim, 0j)

    # -- evaluation -------------------------------------------------------

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[-1] != self.dim:
            raise JetShapeError(f"points have last axis {z.shape[-1]}, expected {self.dim}")
        out = np.zeros(z.shape[:-1], dtype=np.complex128)
        for a, c in self.coeffs.items():
            term = np.full(z.shape[:-1], c, dtype=np.complex128)
            for j, p in enumerate(a):
                if p:
                    term = term * z[..., j] ** p
            out = out + term
        return out


class Normalization(enum.Enum):
    """Linear-part convention a jet map is declared to satisfy."""

    UNIVALENT = "normalized-univalent"    # value 0, linear part +identity
    GENERATOR = "generator-normalized"    # value 0, linear part -identity
    GENERAL = "general"


@dataclass(frozen=True)
class JetMap:
    """A tuple of ``dim`` scalar jets sharing dim and degree: a map jet."""

    components: tuple[MultiJet, ...]
    normalization: Normalization = Normalization.GENERAL

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise JetShapeError("jet map needs at least one component")
        dim, degree = comps[0].dim, comps[0].degree
        if len(comps) != dim:
            raise JetShapeError(f"{len(comps)} components for dim {dim}; maps are square")
        for c in comps:
            if c.dim != dim or c.degree != degree:
                raise JetShapeError("components disagree on dim or degree")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return self.components[0].degree

    def coefficient(self, i: int, alpha: Sequence[int]) -> complex:
        return self.components[i].coefficient(alpha)

    def constant_terms(self) -> np.ndarray:
        return np.array([c.constant_term() for c in self.components])

    def linear_part(self) -> np.ndarray:
        """Matrix L with L[i, j] = coefficient of z_j in component i."""
        n = self.dim
        out = np.zeros((n, n), dtype=np.complex128)
        for i, comp in enumerate(self.components):
            for j in range(n):
                e = tuple(1 if k == j else 0 for k in range(n))
                out[i, j] = comp.coefficient(e)
        return out

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        vals = [comp(z) for comp in self.components]
        return np.stack(vals, axis=-1)


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


def rotation_phases(alphas: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Unit phases exp(i*(<alpha, angles> - angles[j])) of a torus rotation.

    ``alphas`` is an (m, n) array of exponents; entry [j, k] of the (n, m)
    result multiplies the coefficient of z^alphas[k] in component j.  The
    sum <alpha, angles> runs over the coordinates left to right, so a
    rotated array and a dict jet rotated with these phases get the same
    bits.  The diagonal phase of the linear part, alpha = e_j in
    component j, is exactly 1.
    """
    th = np.asarray(angles, dtype=np.float64)
    total = np.zeros(len(alphas))
    for v in range(th.size):
        total = total + alphas[:, v] * th[v]
    return np.exp(1j * (total[None, :] - th[:, None]))


# -- distances ------------------------------------------------------------


def jet_distance(a: MultiJet, b: MultiJet) -> float:
    """Largest absolute coefficient difference."""
    if a.dim != b.dim or a.degree != b.degree:
        raise JetShapeError("jets must share dim and degree to compare")
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coefficient(k) - b.coefficient(k)) for k in keys), default=0.0)


def map_distance(f: JetMap, g: JetMap) -> float:
    if f.dim != g.dim:
        raise JetShapeError("maps must share dim to compare")
    return max(jet_distance(a, b) for a, b in zip(f.components, g.components))


# -- serialization --------------------------------------------------------


def jet_to_json(jet: MultiJet) -> dict:
    coeffs = [
        {"alpha": list(a), "re": c.real, "im": c.imag}
        for a, c in sorted(jet.coeffs.items(), key=lambda kv: grlex_key(kv[0]))
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
        "components": [jet_to_json(c) for c in f.components],
    }

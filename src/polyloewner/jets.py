"""Truncated multivariate power-series jets.

A jet stores the Taylor coefficients of a holomorphic function of ``dim``
complex variables through total degree ``degree``; everything of higher
order is discarded.  Multi-indices are plain integer tuples ordered
graded-lexicographically (by total degree, then lexicographic), which is
the order used for serialization and for the order-by-order linear solve.

The algebra here is exact in the truncation sense: addition, scalar and
Cauchy products, composition with a constant-term-free inner map,
differentiation, and the matrix solve all produce the mathematically
correct coefficients through ``degree`` (up to float roundoff).  This
module is the readable dict-based reference path; the dense array kernels
in ``kernels`` mirror its semantics for the hot evolution loops.
"""

from __future__ import annotations

import cmath
import enum
import itertools
from dataclasses import dataclass, field
from operator import add
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
    "zero_jet",
    "constant_jet",
    "variable_jet",
    "series_in_var",
    "analytic_jet",
    "compose",
    "compose_scalar",
    "jacobian",
    "matrix_solve",
    "identity_map",
    "rotation_phases",
    "rotate_map",
    "assert_normalization",
    "check_normalization",
    "jet_distance",
    "map_distance",
    "jet_to_json",
    "jet_from_json",
    "map_to_json",
    "map_from_json",
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


def _term_order(jet: "MultiJet") -> list:
    return sorted((a, c.real, c.imag) for a, c in jet.coeffs.items())


@dataclass(frozen=True)
class MultiJet:
    """A scalar-valued jet: coefficients of a truncated power series.

    ``coeffs`` maps multi-indices to complex coefficients; exact zeros are
    never stored.  Instances are immutable; all arithmetic returns new jets.
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

    def homogeneous_part(self, total: int) -> dict[tuple[int, ...], complex]:
        return {a: c for a, c in self.coeffs.items() if sum(a) == total}

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "MultiJet") -> None:
        if self.dim != other.dim or self.degree != other.degree:
            raise JetShapeError(
                f"jet shapes differ: ({self.dim},{self.degree}) vs "
                f"({other.dim},{other.degree})"
            )

    def __add__(self, other: "MultiJet") -> "MultiJet":
        if not isinstance(other, MultiJet):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0j) + c
        return MultiJet(self.dim, self.degree, out)

    def __sub__(self, other: "MultiJet") -> "MultiJet":
        if not isinstance(other, MultiJet):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MultiJet":
        return MultiJet(self.dim, self.degree, {a: -c for a, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, MultiJet):
            self._check_compatible(other)
            # a*b and b*a run one loop over the same sorted terms, so the
            # product commutes exactly, rounding included
            first, second = sorted((self, other), key=_term_order)
            terms = sorted((sum(b), b, cb) for b, cb in second.coeffs.items())
            out: dict[tuple[int, ...], complex] = {}
            for a, ca in sorted(first.coeffs.items()):
                room = self.degree - sum(a)
                for db, b, cb in terms:
                    if db > room:
                        break
                    g = tuple(map(add, a, b))
                    out[g] = out.get(g, 0j) + ca * cb
            return MultiJet(self.dim, self.degree, out)
        if isinstance(other, (int, float, complex)):
            s = complex(other)
            return MultiJet(self.dim, self.degree, {a: s * c for a, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def truncated(self, degree: int) -> "MultiJet":
        """Re-truncate; raising the degree treats absent coefficients as 0."""
        return MultiJet(self.dim, degree, {a: c for a, c in self.coeffs.items() if sum(a) <= degree})

    def derivative(self, var: int) -> "MultiJet":
        if not 0 <= var < self.dim:
            raise JetShapeError(f"variable index {var} out of range for dim {self.dim}")
        out: dict[tuple[int, ...], complex] = {}
        for a, c in self.coeffs.items():
            if a[var] == 0:
                continue
            b = list(a)
            b[var] -= 1
            out[tuple(b)] = c * a[var]
        return MultiJet(self.dim, max(self.degree - 1, 0), out)

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

    def truncated(self, degree: int) -> "JetMap":
        return JetMap(tuple(c.truncated(degree) for c in self.components), self.normalization)

    def with_normalization(self, normalization: Normalization, tol: float = 1e-8) -> "JetMap":
        out = JetMap(self.components, normalization)
        assert_normalization(out, tol)
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


# -- constructors ---------------------------------------------------------


def zero_jet(dim: int, degree: int) -> MultiJet:
    return MultiJet(dim, degree, {})


def constant_jet(dim: int, degree: int, value: complex) -> MultiJet:
    return MultiJet(dim, degree, {(0,) * dim: complex(value)})


def variable_jet(dim: int, degree: int, var: int) -> MultiJet:
    if not 0 <= var < dim:
        raise JetShapeError(f"variable index {var} out of range for dim {dim}")
    if degree < 1:
        raise JetShapeError("degree must be >= 1 to hold a linear term")
    e = tuple(1 if k == var else 0 for k in range(dim))
    return MultiJet(dim, degree, {e: 1.0 + 0j})


def series_in_var(dim: int, degree: int, var: int, coeffs: Sequence[complex]) -> MultiJet:
    """Jet of ``sum_k coeffs[k] * z_var**k`` truncated at ``degree``."""
    if not 0 <= var < dim:
        raise JetShapeError(f"variable index {var} out of range for dim {dim}")
    out: dict[tuple[int, ...], complex] = {}
    for k, c in enumerate(coeffs):
        if k > degree:
            break
        a = tuple(k if j == var else 0 for j in range(dim))
        out[a] = complex(c)
    return MultiJet(dim, degree, out)


def analytic_jet(kind: str, dim: int, degree: int, var: int, u: complex | None = None) -> MultiJet:
    """Jet of a stock one-variable analytic function of ``z_var``.

    Kinds: ``log1p`` for log(1+z); ``geometric`` for 1/(1-z); ``mobius``
    for (u+z)/(u-z) with ``u`` on the unit circle.
    """
    if kind == "log1p":
        coeffs = [0.0] + [(-1.0) ** (k + 1) / k for k in range(1, degree + 1)]
    elif kind == "geometric":
        coeffs = [1.0] * (degree + 1)
    elif kind == "mobius":
        if u is None:
            raise DomainError("mobius jet needs the unimodular parameter u")
        u = complex(u)
        if abs(abs(u) - 1.0) > 1e-12:
            raise DomainError(f"mobius parameter must lie on the unit circle, got |u|={abs(u)}")
        coeffs = [1.0 + 0j] + [2.0 / u**k for k in range(1, degree + 1)]
    else:
        raise DomainError(f"unknown analytic jet kind {kind!r}")
    return series_in_var(dim, degree, var, coeffs)


def identity_map(dim: int, degree: int) -> JetMap:
    return JetMap(tuple(variable_jet(dim, degree, j) for j in range(dim)), Normalization.UNIVALENT)


# -- composition ----------------------------------------------------------


def _monomial_table(inner: JetMap, degree: int) -> dict[tuple[int, ...], MultiJet]:
    """Jets of all monomials ``inner**alpha`` with ``|alpha| <= degree``."""
    n = len(inner.components)
    table: dict[tuple[int, ...], MultiJet] = {}
    one = constant_jet(inner.dim, degree, 1.0)
    for alpha in multiindices(n, degree):
        if sum(alpha) == 0:
            table[alpha] = one
            continue
        var = next(j for j, a in enumerate(alpha) if a > 0)
        parent = list(alpha)
        parent[var] -= 1
        table[alpha] = table[tuple(parent)] * inner.components[var].truncated(degree)
    return table


def compose_scalar(outer: MultiJet, inner: JetMap) -> MultiJet:
    """Jet of ``outer(inner(z))``; exact through the common degree.

    The inner map must have zero constant term, otherwise the truncated
    coefficients of the composite are not determined by the operands.
    """
    if outer.dim != len(inner.components):
        raise JetShapeError(
            f"outer takes {outer.dim} variables, inner supplies {len(inner.components)}"
        )
    if np.max(np.abs(inner.constant_terms())) != 0:
        raise DomainError("inner map of a composition must have zero constant term")
    degree = min(outer.degree, inner.degree)
    table = _monomial_table(inner, degree)
    acc = zero_jet(inner.dim, degree)
    for alpha, c in outer.coeffs.items():
        if sum(alpha) > degree:
            continue
        acc = acc + c * table[alpha]
    return acc


def compose(outer: JetMap, inner: JetMap) -> JetMap:
    """Componentwise composition ``outer o inner`` of square jet maps."""
    if outer.dim != inner.dim:
        raise JetShapeError(f"dim mismatch in composition: {outer.dim} vs {inner.dim}")
    if np.max(np.abs(inner.constant_terms())) != 0:
        raise DomainError("inner map of a composition must have zero constant term")
    degree = min(outer.degree, inner.degree)
    table = _monomial_table(inner, degree)
    comps = []
    for comp in outer.components:
        acc = zero_jet(inner.dim, degree)
        for alpha, c in comp.coeffs.items():
            if sum(alpha) > degree:
                continue
            acc = acc + c * table[alpha]
        comps.append(acc)
    return JetMap(tuple(comps))


def jacobian(f: JetMap) -> tuple[tuple[MultiJet, ...], ...]:
    """Matrix of partial-derivative jets, truncated one degree lower."""
    return tuple(tuple(comp.derivative(j) for j in range(f.dim)) for comp in f.components)


def matrix_solve(
    A: Sequence[Sequence[MultiJet]],
    b: Sequence[MultiJet],
) -> tuple[MultiJet, ...]:
    """Solve ``A(z) x(z) = b(z)`` for a jet vector, order by order.

    ``A`` is an n-by-n matrix of jets whose constant term must be an
    invertible matrix; entries may be truncated one degree below ``b``
    (enough when the solution has no constant term, as in the starlike
    inversion).  Coefficients of ``x`` are determined degree by degree:
    the degree-d layer satisfies a linear system with the constant matrix
    on the left and lower layers feeding the right-hand side.
    """
    n = len(b)
    if any(len(row) != n for row in A) or len(A) != n:
        raise JetShapeError("matrix and right-hand side sizes disagree")
    dim = b[0].dim
    degree = b[0].degree
    for entry in [e for row in A for e in row] + list(b):
        if entry.dim != dim:
            raise JetShapeError("matrix entries and rhs must share dim")
    A0 = np.array([[A[i][j].constant_term() for j in range(n)] for i in range(n)])
    try:
        A0_inv = np.linalg.inv(A0)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("constant term of jet matrix is singular") from exc

    x_coeffs: list[dict[tuple[int, ...], complex]] = [{} for _ in range(n)]
    for gamma in multiindices(dim, degree):
        rhs = np.array([b[i].coefficient(gamma) for i in range(n)], dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                for beta, c in A[i][j].coeffs.items():
                    if sum(beta) == 0:
                        continue
                    delta = tuple(g - bb for g, bb in zip(gamma, beta))
                    if any(d < 0 for d in delta):
                        continue
                    xc = x_coeffs[j].get(delta)
                    if xc is not None:
                        rhs[i] -= c * xc
        layer = A0_inv @ rhs
        for j in range(n):
            if layer[j] != 0:
                x_coeffs[j][gamma] = complex(layer[j])
    return tuple(MultiJet(dim, degree, x_coeffs[j]) for j in range(n))


# -- rotations ------------------------------------------------------------


def rotation_phases(alphas: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Unit phases exp(i*(<alpha, angles> - angles[j])) of a torus rotation.

    ``alphas`` is an (m, n) array of exponents; entry [j, k] of the (n, m)
    result multiplies the coefficient of z^alphas[k] in component j.  The
    sum <alpha, angles> runs over the coordinates left to right, so the
    dict jets here and the arrays of ``kernels`` get the same bits.  The
    diagonal phase of the linear part, alpha = e_j in component j, is
    exactly 1.
    """
    th = np.asarray(angles, dtype=np.float64)
    total = np.zeros(len(alphas))
    for v in range(th.size):
        total = total + alphas[:, v] * th[v]
    return np.exp(1j * (total[None, :] - th[:, None]))


def rotate_map(f: JetMap, angles: Sequence[float]) -> JetMap:
    """Conjugate by the torus rotation with the given coordinate angles.

    Component j of the result is exp(-i*angles[j]) * f_j(exp(i*angles) * z),
    which multiplies the coefficient of z^alpha in component j by
    exp(i*(<alpha, angles> - angles[j])) (see ``rotation_phases``).
    Normalization tags survive.
    """
    th = np.asarray(angles, dtype=np.float64)
    if th.shape != (f.dim,):
        raise JetShapeError(f"need {f.dim} angles, got shape {th.shape}")
    comps = []
    for j, comp in enumerate(f.components):
        alphas = list(comp.coeffs)
        exps = np.array(alphas, dtype=np.int64).reshape(len(alphas), f.dim)
        phases = rotation_phases(exps, th)[j]
        out = {a: c * complex(p) for a, c, p in zip(alphas, comp.coeffs.values(), phases)}
        comps.append(MultiJet(f.dim, f.degree, out))
    return JetMap(tuple(comps), f.normalization)


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


def map_from_json(obj: Mapping) -> JetMap:
    try:
        comps = tuple(jet_from_json(c) for c in obj["components"])
        norm = Normalization(obj.get("normalization", "general"))
        return JetMap(comps, norm)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed jet map object: {exc}") from exc

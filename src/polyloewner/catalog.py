"""Built-in catalog of extremal starlike maps and their generators.

Names F1..F7 are normalized starlike maps on the polydisc, each attaining
one sharp degree-2 coefficient bound; H1..H7 are the matching generators
-Df^{-1} f.  Each entry carries an exact truncated jet, a vectorized
closed-form evaluator (with the rational forms falling back to the jet
within 1e-6 of their polar sets), a closed-form Jacobian for the maps,
and, for the generators, the coordinate dependency sets of their
membership margins.  Every Taylor coefficient of an entry is a closed-form
number (an integer, +-2 or +-1/k), so each jet is written directly as a
table {alpha: c} per component, with no jet arithmetic.  Entries are
cached per (name, dim, degree).

F/H pairs extend to larger dimensions by appending identity (maps) or
negated-identity (generators) coordinates: the builders' tail rows and
each evaluator's ``out = +-w.copy()`` are that padding.  So an entry is
consistency-checked (evaluator against jet on the torus of
``fourier.torus_grid``, at 1e-10) only at its minimal dimension, once:
a build at a larger dim first reads the minimal entry through the entry
cache, which builds and checks it if it is not there yet, and the tests
prove that the entry at a larger dim is the padded minimal one, bit for
bit.  Entries of dim 5 or more, whose torus would be too large to
mesh, exist for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import kernels
from .bounds import coeff_bound_report
from .fourier import torus_error
from .generators import (
    MEMBERSHIP_TOL,
    Admission,
    Generator,
    MembershipCertificate,
    from_starlike,
    membership_check,
)
from .jets import (
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    assert_normalization,
    check_jet_shape,
    map_to_json,
)

__all__ = [
    "NamedMap",
    "catalog_names",
    "minimal_dimension",
    "catalog_get",
    "catalog_generator",
    "CatalogCheck",
    "CatalogReport",
    "verify_catalog",
]

_POLE_GUARD = 1e-6


def _vectorized(dim: int, fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    def wrapped(z):
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[-1] != dim:
            raise JetShapeError(f"points have last axis {z.shape[-1]}, expected {dim}")
        flat = z.reshape(-1, dim)
        out = fn(flat)
        return out.reshape(z.shape[:-1] + out.shape[1:])

    return wrapped


def _guarded_ratio(num, den, flat, jet_component):
    near = np.abs(den) < _POLE_GUARD
    if not np.any(near):
        return num / den
    out = np.where(near, 0j, num / np.where(near, 1.0, den))
    out[near] = jet_component(flat[near])
    return out


def _eye_jac(m: int, dim: int) -> np.ndarray:
    out = np.zeros((m, dim, dim), dtype=np.complex128)
    idx = np.arange(dim)
    out[:, idx, idx] = 1.0
    return out


def _near_diagonal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a - b, the points with |a - b| < 1e-4, and a - b with 1 there (a safe divisor)."""
    d = a - b
    near = np.abs(d) < 1e-4
    return d, near, np.where(near, 1.0, d)


def _log_quotient_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S(a, b) = (log(1+a) - log(1+b))/(a-b), series-continued across a == b.

    The series runs only on the points with |a - b| < 1e-4.  Off them
    S(b, a) equals S(a, b) to the bit: both differences only change sign.
    """
    d, near, safe = _near_diagonal(a, b)
    out = (np.log(1.0 + a) - np.log(1.0 + b)) / safe
    if near.any():
        w = d[near] / (1.0 + b[near])
        ser = np.zeros_like(w)
        term = np.ones_like(w)
        for m in range(8):
            ser = ser + term / (m + 1.0)
            term = term * (-w)
        out[near] = ser / (1.0 + b[near])
    return out


def _log_quotient_da(a: np.ndarray, b: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Partial derivative in the first argument of S, given S = S(a, b) or S(b, a).

    Only the points off the near set read ``S``, where the two are equal.
    """
    d, near, safe = _near_diagonal(a, b)
    out = (1.0 / (1.0 + a) - S) / safe
    if near.any():
        w = d[near] / (1.0 + b[near])
        ser = np.zeros_like(w)
        term = np.ones_like(w)
        for m in range(1, 9):
            ser = ser + m * term / (m + 1.0)
            term = term * (-w)
        out[near] = -ser / (1.0 + b[near]) ** 2
    return out


@dataclass(frozen=True, eq=False)
class NamedMap:
    """One catalog entry: exact jet plus closed-form pointwise data."""

    name: str
    role: str  # "starlike" or "generator"
    dim: int
    degree: int
    minimal_dim: int
    jet: JetMap
    evaluator: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    margin_deps: Optional[tuple[frozenset, ...]] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "role": self.role,
            "dim": self.dim,
            "degree": self.degree,
            "jet": map_to_json(self.jet),
        }


_MINIMAL_DIM = {
    "F1": 2, "F2": 2, "F3": 2, "F4": 2, "F5": 2, "F6": 3, "F7": 3,
    "H1": 2, "H2": 2, "H3": 2, "H4": 2, "H5": 2, "H6": 3, "H7": 3,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_MINIMAL_DIM, key=lambda s: (s[0], int(s[1:]))))


def minimal_dimension(name: str) -> int:
    key = name.upper()
    if key not in _MINIMAL_DIM:
        raise DomainError(f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}")
    return _MINIMAL_DIM[key]


def _z(dim: int, *exponents: int) -> tuple[int, ...]:
    """The multi-index of z0^e0 z1^e1 ..., padded with zeros to ``dim``."""
    return exponents + (0,) * (dim - len(exponents))


# -z_j and the negated Cayley series -(1 - z)/(1 + z) have imaginary parts
# -0.0, as -(x + 0j) has, and every other coefficient +0.0.  Printed JSON
# shows these zeros (a zero-angle rotation is the catalog generator itself,
# and check-generator prints convex combinations), so they are kept as the
# catalog has always printed them.
_MINUS = complex(-1.0, -0.0)


def _minus_cayley(m: int) -> complex:
    """Coefficient of z^m in -(1 - z)/(1 + z): -1, then 2 (-1)^(m+1)."""
    return complex(2.0 * (-1.0) ** (m + 1) if m else -1.0, -0.0)


def _jet_map(
    rows: list[dict], dim: int, degree: int, tail: complex, normalization: Normalization
) -> JetMap:
    """Components ``rows``, then ``tail`` * z_j for each remaining coordinate.

    Terms past ``degree`` are dropped.
    """
    rows = rows + [{_z(dim, *(0,) * j, 1): tail} for j in range(len(rows), dim)]
    return JetMap(
        tuple(
            MultiJet(dim, degree, {a: c for a, c in row.items() if sum(a) <= degree})
            for row in rows
        ),
        normalization,
    )


def _build_starlike(name: str, dim: int, degree: int):
    n, top = dim, degree + 1
    if name == "F1":  # z0/(1 - z0)^2
        rows = [{_z(n, k): k for k in range(1, top)}]

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] / (1.0 - w[:, 0]) ** 2
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 0] = (1.0 + w[:, 0]) / (1.0 - w[:, 0]) ** 3
            return J

    elif name == "F2":
        rows = [{_z(n, 1): 1, _z(n, 1, 1): 2, _z(n, 1, 2): 1}]

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] * (1.0 + w[:, 1]) ** 2
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 0] = (1.0 + w[:, 1]) ** 2
            J[:, 0, 1] = 2.0 * w[:, 0] * (1.0 + w[:, 1])
            return J

    elif name == "F3":
        # z0 (1 + z1)/(1 - z1) and z1/(1 - z1)
        rows = [
            {_z(n, 1, m): 2 if m else 1 for m in range(degree)},
            {_z(n, 0, k): 1 for k in range(1, top)},
        ]

        def ev(w):
            out = w.copy()
            den = 1.0 - w[:, 1]
            out[:, 0] = _guarded_ratio(w[:, 0] * (1.0 + w[:, 1]), den, w, jet.component(0))
            out[:, 1] = _guarded_ratio(w[:, 1], den, w, jet.component(1))
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            den = 1.0 - w[:, 1]
            J[:, 0, 0] = (1.0 + w[:, 1]) / den
            J[:, 0, 1] = 2.0 * w[:, 0] / den**2
            J[:, 1, 1] = 1.0 / den**2
            return J

    elif name == "F4":
        rows = [{_z(n, 1): 1, _z(n, 0, 2): 1}]

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] + w[:, 1] ** 2
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 1] = 2.0 * w[:, 1]
            return J

    elif name == "F5":
        # (z0 - z0 z1 + z1^2)/(1 - z1) = z0 + z1^2/(1 - z1)
        rows = [
            {_z(n, 1): 1, **{_z(n, 0, k): 1 for k in range(2, top)}},
            {_z(n, 0, k): 1 for k in range(1, top)},
        ]

        def ev(w):
            out = w.copy()
            den = 1.0 - w[:, 1]
            num = w[:, 0] - w[:, 0] * w[:, 1] + w[:, 1] ** 2
            out[:, 0] = _guarded_ratio(num, den, w, jet.component(0))
            out[:, 1] = _guarded_ratio(w[:, 1], den, w, jet.component(1))
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            den = 1.0 - w[:, 1]
            J[:, 0, 0] = 1.0
            J[:, 0, 1] = (2.0 * w[:, 1] - w[:, 1] ** 2) / den**2
            J[:, 1, 1] = 1.0 / den**2
            return J

    elif name == "F6":
        rows = [{_z(n, 1): 1, _z(n, 0, 1, 1): 1}]

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] + w[:, 1] * w[:, 2]
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 1] = w[:, 2]
            J[:, 0, 2] = w[:, 1]
            return J

    elif name == "F7":
        # z1 z2 (log(1 + z1) - log(1 + z2))/(z1 - z2) has (-1)^(k+1)/k at
        # z1^(i+1) z2^(j+1), k = i + j + 1; z/(1 + z) has (-1)^(k+1) at z^k
        log_quotient = {
            _z(n, 0, i + 1, j + 1): (-1.0) ** (i + j) / (i + j + 1)
            for i in range(degree - 1)
            for j in range(degree - 1 - i)
        }
        rows = [
            {_z(n, 1): 1, **log_quotient},
            {_z(n, 0, k): (-1.0) ** (k + 1) for k in range(1, top)},
            {_z(n, 0, 0, k): (-1.0) ** (k + 1) for k in range(1, top)},
        ]

        def ev(w):
            out = w.copy()
            a, b = w[:, 1], w[:, 2]
            out[:, 0] = w[:, 0] + a * b * _log_quotient_values(a, b)
            out[:, 1] = _guarded_ratio(a, 1.0 + a, w, jet.component(1))
            out[:, 2] = _guarded_ratio(b, 1.0 + b, w, jet.component(2))
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            a, b = w[:, 1], w[:, 2]
            S = _log_quotient_values(a, b)
            J[:, 0, 1] = b * S + a * b * _log_quotient_da(a, b, S)
            J[:, 0, 2] = a * S + a * b * _log_quotient_da(b, a, S)
            J[:, 1, 1] = 1.0 / (1.0 + a) ** 2
            J[:, 2, 2] = 1.0 / (1.0 + b) ** 2
            return J

    else:  # pragma: no cover
        raise DomainError(f"unknown starlike map {name!r}")

    jet = _jet_map(rows, dim, degree, 1.0, Normalization.UNIVALENT)
    return jet, _vectorized(dim, ev), _vectorized(dim, jac)


def _build_generator(name: str, dim: int, degree: int):
    n = dim
    if name == "H1":  # -z0 (1 - z0)/(1 + z0)
        rows = [{_z(n, m + 1): _minus_cayley(m) for m in range(degree)}]
        deps = [frozenset({0})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 0]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 0]), den, w, jet.component(0))
            return out

    elif name == "H2":
        rows = [{_z(n, 1, m): _minus_cayley(m) for m in range(degree)}]
        deps = [frozenset({1})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 1]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 1]), den, w, jet.component(0))
            return out

    elif name == "H3":
        rows = [
            {_z(n, 1, m): _minus_cayley(m) for m in range(degree)},
            {_z(n, 0, 1): _MINUS, _z(n, 0, 2): 1.0},
        ]
        deps = [frozenset({1}), frozenset({1})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 1]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 1]), den, w, jet.component(0))
            out[:, 1] = -w[:, 1] * (1.0 - w[:, 1])
            return out

    elif name == "H4":
        rows = [{_z(n, 1): _MINUS, _z(n, 0, 2): 1.0}]
        deps = [frozenset({0, 1})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] ** 2
            return out

    elif name == "H5":
        rows = [
            {_z(n, 1): _MINUS, _z(n, 0, 2): 1.0},
            {_z(n, 0, 1): _MINUS, _z(n, 0, 2): 1.0},
        ]
        deps = [frozenset({0, 1}), frozenset({1})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] ** 2
            out[:, 1] = -w[:, 1] * (1.0 - w[:, 1])
            return out

    elif name == "H6":
        rows = [{_z(n, 1): _MINUS, _z(n, 0, 1, 1): 1.0}]
        deps = [frozenset({0, 1, 2})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] * w[:, 2]
            return out

    elif name == "H7":
        rows = [
            {_z(n, 1): _MINUS, _z(n, 0, 1, 1): 1.0},
            {_z(n, 0, 1): _MINUS, _z(n, 0, 2): -1.0},
            {_z(n, 0, 0, 1): _MINUS, _z(n, 0, 0, 2): -1.0},
        ]
        deps = [frozenset({0, 1, 2}), frozenset({1}), frozenset({2})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] * w[:, 2]
            out[:, 1] = -w[:, 1] * (1.0 + w[:, 1])
            out[:, 2] = -w[:, 2] * (1.0 + w[:, 2])
            return out

    else:  # pragma: no cover
        raise DomainError(f"unknown generator {name!r}")

    jet = _jet_map(rows, dim, degree, _MINUS, Normalization.GENERATOR)
    deps += [frozenset()] * (dim - len(deps))
    return jet, _vectorized(dim, ev), tuple(deps)


def _entry_key(name: str, dim: Optional[int], degree: int) -> tuple[str, int, int]:
    """The one cache key of an entry: upper-case name, ambient dim, int degree."""
    key = str(name).upper()
    if key not in _MINIMAL_DIM:
        raise DomainError(f"unknown catalog name {name!r}; know {', '.join(catalog_names())}")
    minimal = _MINIMAL_DIM[key]
    n = minimal if dim is None else int(dim)
    if n < minimal:
        raise DomainError(f"{key} needs dim >= {minimal}, got {n}")
    degree = int(degree)
    if degree < 2:
        raise DomainError(f"catalog jets need degree >= 2, got {degree}")
    check_jet_shape(n, degree)
    return key, n, degree


def catalog_get(name: str, dim: Optional[int] = None, degree: int = 4) -> NamedMap:
    """Fetch a catalog entry at ambient dimension ``dim`` (default minimal).

    Every call form of the same entry (positional or keyword, any letter
    case, ``dim=None`` or the minimal dimension) shares one cached object.
    """
    return _cached_entry(*_entry_key(name, dim, degree))


@lru_cache(maxsize=None)
def _cached_entry(key: str, n: int, degree: int) -> NamedMap:
    """Entry ``key`` at (n, degree); only the minimal entry is checked, once, through this cache."""
    starlike = key.startswith("F")
    build = _build_starlike if starlike else _build_generator
    minimal = _MINIMAL_DIM[key]
    if n > minimal:
        _cached_entry(key, minimal, degree)
    jet, evaluator, extra = build(key, n, degree)
    if n == minimal:
        assert_normalization(jet, tol=1e-12)
        err = torus_error(evaluator, jet.array, kernels.basis_tables(minimal, degree))
        if not err <= 1e-10:
            raise DomainError(f"catalog entry {key} failed its consistency check: {err:.3e}")
    return NamedMap(
        name=key,
        role="starlike" if starlike else "generator",
        dim=n,
        degree=degree,
        minimal_dim=minimal,
        jet=jet,
        evaluator=evaluator,
        jacobian=extra if starlike else None,
        margin_deps=None if starlike else extra,
    )


def catalog_generator(name: str, dim: Optional[int] = None, degree: int = 4) -> Generator:
    """Catalog generator wrapped for the evolution engine (a ``TRUSTED`` member).

    Cached like ``catalog_get``: every call form returns the same object.
    Its Koenigs map is the matching F_j, fetched only when first asked for.
    """
    return _cached_generator(*_entry_key(name, dim, degree))


@lru_cache(maxsize=None)
def _cached_generator(key: str, n: int, degree: int) -> Generator:
    named = _cached_entry(key, n, degree)
    if named.role != "generator":
        raise DomainError(f"{named.name} is a starlike map, not a generator")
    return Generator(
        named.jet,
        named.evaluator,
        {"kind": "catalog", "name": named.name, "dim": named.dim},
        margin_deps=named.margin_deps,
        admission=Admission.TRUSTED,
        koenigs_map=lambda: _starlike_pair("F" + key[1:], n, degree),
    )


def _starlike_pair(key: str, n: int, degree: int):
    """Evaluator and Jacobian of F_j, the Koenigs map of H_j = -DF_j^-1 F_j."""
    entry = _cached_entry(key, n, degree)
    return entry.evaluator, entry.jacobian


# -- catalog verification --------------------------------------------------


@dataclass(frozen=True)
class CatalogCheck:
    pair: str
    jet_error: float
    identity_passed: bool
    membership: MembershipCertificate
    bounds_passed: bool

    @property
    def passed(self) -> bool:
        return self.identity_passed and self.membership.passed and self.bounds_passed

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "jet_error": self.jet_error,
            "identity_passed": self.identity_passed,
            "membership": self.membership.to_json(),
            "bounds_passed": self.bounds_passed,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CatalogReport:
    degree: int
    tol: float
    checks: tuple[CatalogCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_jet_error(self) -> float:
        return max(c.jet_error for c in self.checks)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "tol": self.tol,
            "max_jet_error": self.max_jet_error,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
        }


def verify_catalog(
    degree: int = 4,
    tol: float = 1e-10,
    membership_tol: float = MEMBERSHIP_TOL,
) -> CatalogReport:
    """Check every F/H pair: generator identity, membership, coefficient bounds.

    Membership is scanned on ``REFERENCE_GRID`` at ``membership_tol``.
    """
    checks = []
    for j in range(1, 8):
        fname, hname = f"F{j}", f"H{j}"
        n = _MINIMAL_DIM[fname]
        fmap = catalog_get(fname, n, degree)
        hgen = catalog_generator(hname, n, degree)
        derived = from_starlike(fmap)
        err = float(np.max(np.abs(derived.jet_array(degree) - hgen.jet_array(degree))))
        cert = membership_check(hgen, tol=membership_tol)
        breport = coeff_bound_report(fmap.jet, subject=fname)
        checks.append(
            CatalogCheck(
                pair=f"{fname}/{hname}",
                jet_error=err,
                identity_passed=bool(err <= tol),
                membership=cert,
                bounds_passed=breport.passed,
            )
        )
    return CatalogReport(degree=degree, tol=tol, checks=tuple(checks))

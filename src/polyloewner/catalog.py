"""Built-in catalog of extremal starlike maps and their generators.

Names F1..F7 are normalized starlike maps on the polydisc, each attaining
one sharp degree-2 coefficient bound; H1..H7 are the matching generators
-Df^{-1} f.  Each entry carries an exact truncated jet, a vectorized
closed-form evaluator (with the rational forms falling back to the jet
within 1e-6 of their polar sets), a closed-form Jacobian for the maps,
and, for the generators, the coordinate dependency sets of their
membership margins.  Entries are consistency-checked (evaluator against
jet on the torus of ``fourier.torus_grid``, at 1e-10) once per
(name, dim, degree) and cached.

F/H pairs extend to larger dimensions by appending identity (maps) or
negated-identity (generators) coordinates.
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
    analytic_jet,
    assert_normalization,
    check_jet_shape,
    map_to_json,
    series_in_var,
    variable_jet,
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

# (1-z)/(1+z) and z/(1+z) power-series coefficient helpers.


def _cayley_coeffs(degree: int) -> list[complex]:
    return [1.0] + [2.0 * (-1.0) ** k for k in range(1, degree + 1)]


def _damp_coeffs(degree: int) -> list[complex]:
    return [0.0] + [(-1.0) ** (k + 1) for k in range(1, degree + 1)]


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


def _log_quotient_jet(dim: int, degree: int, va: int, vb: int) -> MultiJet:
    """Jet of (log(1+a) - log(1+b))/(a - b) in variables a = z_va, b = z_vb."""
    coeffs: dict[tuple[int, ...], complex] = {}
    for k in range(1, degree + 2):
        for i in range(k):
            j = k - 1 - i
            if i + j > degree:
                continue
            alpha = [0] * dim
            alpha[va] = i
            alpha[vb] = j
            key = tuple(alpha)
            coeffs[key] = coeffs.get(key, 0j) + (-1.0) ** (k + 1) / k
    return MultiJet(dim, degree, coeffs)


def _log_quotient_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(log(1+a) - log(1+b))/(a-b), series-continued across a == b."""
    d = a - b
    near = np.abs(d) < 1e-4
    safe = np.where(near, 1.0, d)
    direct = (np.log(1.0 + a) - np.log(1.0 + b)) / safe
    w = d / (1.0 + b)
    ser = np.zeros_like(a)
    term = np.ones_like(a)
    for m in range(8):
        ser = ser + term / (m + 1.0)
        term = term * (-w)
    ser = ser / (1.0 + b)
    return np.where(near, ser, direct)


def _log_quotient_da(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial derivative in the first argument of the quotient above."""
    d = a - b
    near = np.abs(d) < 1e-4
    safe = np.where(near, 1.0, d)
    S = _log_quotient_values(a, b)
    direct = (1.0 / (1.0 + a) - S) / safe
    w = d / (1.0 + b)
    ser = np.zeros_like(a)
    term = np.ones_like(a)
    for m in range(1, 9):
        ser = ser + m * term / (m + 1.0)
        term = term * (-w)
    ser = -ser / (1.0 + b) ** 2
    return np.where(near, ser, direct)


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


def _map_tail(comps: list[MultiJet], dim: int, degree: int) -> tuple[MultiJet, ...]:
    lead = len(comps)
    return tuple(comps) + tuple(variable_jet(dim, degree, j) for j in range(lead, dim))


def _gen_tail(comps: list[MultiJet], dim: int, degree: int) -> tuple[MultiJet, ...]:
    lead = len(comps)
    return tuple(comps) + tuple(-variable_jet(dim, degree, j) for j in range(lead, dim))


def _build_starlike(name: str, dim: int, degree: int):
    z0 = variable_jet(dim, degree, 0)
    z1 = variable_jet(dim, degree, 1)
    one_plus_z1 = series_in_var(dim, degree, 1, [1.0, 1.0])
    geo1 = analytic_jet("geometric", dim, degree, 1)

    if name == "F1":
        geo0 = analytic_jet("geometric", dim, degree, 0)
        comps = [z0 * geo0 * geo0]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] / (1.0 - w[:, 0]) ** 2
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 0] = (1.0 + w[:, 0]) / (1.0 - w[:, 0]) ** 3
            return J

    elif name == "F2":
        comps = [z0 * one_plus_z1 * one_plus_z1]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

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
        comps = [z0 * one_plus_z1 * geo1, z1 * geo1]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

        def ev(w):
            out = w.copy()
            den = 1.0 - w[:, 1]
            out[:, 0] = _guarded_ratio(w[:, 0] * (1.0 + w[:, 1]), den, w, jet.components[0])
            out[:, 1] = _guarded_ratio(w[:, 1], den, w, jet.components[1])
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            den = 1.0 - w[:, 1]
            J[:, 0, 0] = (1.0 + w[:, 1]) / den
            J[:, 0, 1] = 2.0 * w[:, 0] / den**2
            J[:, 1, 1] = 1.0 / den**2
            return J

    elif name == "F4":
        comps = [z0 + z1 * z1]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

        def ev(w):
            out = w.copy()
            out[:, 0] = w[:, 0] + w[:, 1] ** 2
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            J[:, 0, 1] = 2.0 * w[:, 1]
            return J

    elif name == "F5":
        comps = [(z0 - z0 * z1 + z1 * z1) * geo1, z1 * geo1]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

        def ev(w):
            out = w.copy()
            den = 1.0 - w[:, 1]
            num = w[:, 0] - w[:, 0] * w[:, 1] + w[:, 1] ** 2
            out[:, 0] = _guarded_ratio(num, den, w, jet.components[0])
            out[:, 1] = _guarded_ratio(w[:, 1], den, w, jet.components[1])
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            den = 1.0 - w[:, 1]
            J[:, 0, 0] = 1.0
            J[:, 0, 1] = (2.0 * w[:, 1] - w[:, 1] ** 2) / den**2
            J[:, 1, 1] = 1.0 / den**2
            return J

    elif name == "F6":
        z2 = variable_jet(dim, degree, 2)
        comps = [z0 + z1 * z2]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

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
        z2 = variable_jet(dim, degree, 2)
        damp1 = series_in_var(dim, degree, 1, _damp_coeffs(degree))
        damp2 = series_in_var(dim, degree, 2, _damp_coeffs(degree))
        comps = [z0 + z1 * z2 * _log_quotient_jet(dim, degree, 1, 2), damp1, damp2]
        jet = JetMap(_map_tail(comps, dim, degree), Normalization.UNIVALENT)

        def ev(w):
            out = w.copy()
            a, b = w[:, 1], w[:, 2]
            out[:, 0] = w[:, 0] + a * b * _log_quotient_values(a, b)
            out[:, 1] = _guarded_ratio(a, 1.0 + a, w, jet.components[1])
            out[:, 2] = _guarded_ratio(b, 1.0 + b, w, jet.components[2])
            return out

        def jac(w):
            J = _eye_jac(len(w), dim)
            a, b = w[:, 1], w[:, 2]
            S = _log_quotient_values(a, b)
            J[:, 0, 1] = b * S + a * b * _log_quotient_da(a, b)
            J[:, 0, 2] = a * S + a * b * _log_quotient_da(b, a)
            J[:, 1, 1] = 1.0 / (1.0 + a) ** 2
            J[:, 2, 2] = 1.0 / (1.0 + b) ** 2
            return J

    else:  # pragma: no cover
        raise DomainError(f"unknown starlike map {name!r}")

    return jet, _vectorized(dim, ev), _vectorized(dim, jac)


def _build_generator(name: str, dim: int, degree: int):
    z0 = variable_jet(dim, degree, 0)
    z1 = variable_jet(dim, degree, 1)
    cayley = _cayley_coeffs(degree)
    empty = frozenset()

    if name == "H1":
        comps = [-(z0 * series_in_var(dim, degree, 0, cayley))]
        deps = [frozenset({0})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 0]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 0]), den, w, jet_ref[0])
            return out

    elif name == "H2":
        comps = [-(z0 * series_in_var(dim, degree, 1, cayley))]
        deps = [frozenset({1})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 1]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 1]), den, w, jet_ref[0])
            return out

    elif name == "H3":
        comps = [-(z0 * series_in_var(dim, degree, 1, cayley)), -z1 + z1 * z1]
        deps = [frozenset({1}), frozenset({1})]

        def ev(w):
            out = -w.copy()
            den = 1.0 + w[:, 1]
            out[:, 0] = _guarded_ratio(-w[:, 0] * (1.0 - w[:, 1]), den, w, jet_ref[0])
            out[:, 1] = -w[:, 1] * (1.0 - w[:, 1])
            return out

    elif name == "H4":
        comps = [-z0 + z1 * z1]
        deps = [frozenset({0, 1})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] ** 2
            return out

    elif name == "H5":
        comps = [-z0 + z1 * z1, -z1 + z1 * z1]
        deps = [frozenset({0, 1}), frozenset({1})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] ** 2
            out[:, 1] = -w[:, 1] * (1.0 - w[:, 1])
            return out

    elif name == "H6":
        z2 = variable_jet(dim, degree, 2)
        comps = [-z0 + z1 * z2]
        deps = [frozenset({0, 1, 2})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] * w[:, 2]
            return out

    elif name == "H7":
        z2 = variable_jet(dim, degree, 2)
        comps = [-z0 + z1 * z2, -z1 - z1 * z1, -z2 - z2 * z2]
        deps = [frozenset({0, 1, 2}), frozenset({1}), frozenset({2})]

        def ev(w):
            out = -w.copy()
            out[:, 0] = -w[:, 0] + w[:, 1] * w[:, 2]
            out[:, 1] = -w[:, 1] * (1.0 + w[:, 1])
            out[:, 2] = -w[:, 2] * (1.0 + w[:, 2])
            return out

    else:  # pragma: no cover
        raise DomainError(f"unknown generator {name!r}")

    jet = JetMap(_gen_tail(comps, dim, degree), Normalization.GENERATOR)
    jet_ref = jet.components  # evaluator pole fallbacks close over the final jet
    deps += [empty] * (dim - len(deps))
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
    starlike = key.startswith("F")
    if starlike:
        jet, evaluator, jac = _build_starlike(key, n, degree)
        deps = None
    else:
        jet, evaluator, deps = _build_generator(key, n, degree)
        jac = None
    assert_normalization(jet, tol=1e-12)
    tables = kernels.basis_tables(n, degree)
    err = torus_error(evaluator, kernels.map_to_array(jet, tables), tables)
    if not err <= 1e-10:
        raise DomainError(f"catalog entry {key} failed its consistency check: {err:.3e}")
    return NamedMap(
        name=key,
        role="starlike" if starlike else "generator",
        dim=n,
        degree=degree,
        minimal_dim=_MINIMAL_DIM[key],
        jet=jet,
        evaluator=evaluator,
        jacobian=jac,
        margin_deps=deps,
    )


def catalog_generator(name: str, dim: Optional[int] = None, degree: int = 4) -> Generator:
    """Catalog generator wrapped for the evolution engine (trusted member).

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
        trusted=True,
        check=False,
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

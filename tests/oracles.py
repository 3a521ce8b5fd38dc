"""Slow, independent reference implementations that the tests check the program against.

None of these is on a path the program runs; each computes its result a
different way from the engine it checks:

- ``compose`` and ``compose_scalar``: composition by dict-jet products,
  independent of the sparse pair tables of ``kernels.compose_arrays``;
- ``matrix_solve``: the order-by-order jet solve A(z) x(z) = b(z), the
  reference for the ``from_starlike`` inversion;
- ``rotate_map``: a torus rotation applied to a dict jet;
- ``ring_jacobian``: Jacobians from Cauchy ring averages, the reference for
  the catalog's closed-form Jacobians;
- ``scaled_transition``: the limit jet by RK4 to a finite horizon, the
  reference for the exact Koenigs chain of ``parametric_limit``;
- ``map_from_json``: parses the jet maps that the command line prints.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from polyloewner import (
    DomainError,
    HerglotzField,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    SingularityError,
    evolve_jet,
    jet_from_json,
    multiindices,
    variable_jet,
)
from polyloewner.jets import rotation_phases


def zero_jet(dim: int, degree: int) -> MultiJet:
    return MultiJet(dim, degree, {})


def constant_jet(dim: int, degree: int, value: complex) -> MultiJet:
    return MultiJet(dim, degree, {(0,) * dim: complex(value)})


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
    """Componentwise composition ``outer o inner`` of square jet maps.

    Unlike ``polyloewner.compose``, it accepts degree 0 and bases of any size.
    """
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


# -- the starlike inversion -----------------------------------------------


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


def rotate_map(f: JetMap, angles: Sequence[float]) -> JetMap:
    """Conjugate by the torus rotation with the given coordinate angles.

    Component j of the result is exp(-i*angles[j]) * f_j(exp(i*angles) * z),
    which multiplies the coefficient of z^alpha in component j by
    exp(i*(<alpha, angles> - angles[j])) (see ``jets.rotation_phases``).
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


# -- Jacobians by Cauchy integrals ----------------------------------------


def ring_jacobian(
    evaluator: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    rel_radius: float = 0.25,
    samples: int = 16,
) -> np.ndarray:
    """Complex Jacobians at interior points via Cauchy ring averages.

    For each point and each input variable, the derivative is the first
    Fourier mode of the evaluator on a small circle around the point; the
    circle radius is ``rel_radius`` times the distance to the unit
    polydisc boundary, so all probe points stay strictly inside.  The
    truncation error is of order radius**samples.
    """
    z = np.asarray(z, dtype=np.complex128)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    m, n = z.shape
    gap = 1.0 - np.max(np.abs(z), axis=1)
    if np.any(gap <= 0):
        raise DomainError("ring_jacobian needs points strictly inside the polydisc")
    rho = np.minimum(rel_radius * gap, 0.2)  # (m,)
    omega = np.exp(2j * np.pi * np.arange(samples) / samples)
    # probe[p, j, s] = z[p] + rho[p] * omega[s] * e_j, flattened for one call
    probes = np.tile(z[:, None, None, :], (1, n, samples, 1))
    for j in range(n):
        probes[:, j, :, j] += rho[:, None] * omega[None, :]
    vals = np.asarray(evaluator(probes.reshape(-1, n)), dtype=np.complex128)
    vals = vals.reshape(m, n, samples, n)
    modes = np.tensordot(vals, np.conj(omega), axes=([2], [0])) / samples  # (m, n_in, n_out)
    jac = np.swapaxes(modes, 1, 2) / rho[:, None, None]
    return jac[0] if single else jac


# -- the limit by RK4 to a horizon ----------------------------------------


def scaled_transition(
    field: HerglotzField,
    s: float,
    t: float,
    degree: int = 4,
    step: float = 1e-2,
) -> JetMap:
    """e^(t-s) * phi_{s,t}: the normalized transition jet (Df(0) = I)."""
    raw = evolve_jet(field, s, t, degree=degree, step=step)
    scale = math.exp(t - s)
    comps = tuple(scale * c for c in raw.components)
    return JetMap(comps, Normalization.UNIVALENT)


# -- serialization --------------------------------------------------------


def map_from_json(obj: Mapping) -> JetMap:
    try:
        comps = tuple(jet_from_json(c) for c in obj["components"])
        norm = Normalization(obj.get("normalization", "general"))
        return JetMap(comps, norm)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed jet map object: {exc}") from exc

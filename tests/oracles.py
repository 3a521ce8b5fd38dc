"""Slow, independent reference implementations that the tests check the program against.

None of these is on a path the program runs; each computes its result a
different way from the engine it checks.  The dict-jet ring, and the
catalog jets and compositions built on it, use nothing of the program but
its jet values (``MultiJet``, ``JetMap``), read as dicts:

- ``coeffs`` and ``components``: a jet's nonzero terms as {alpha: c} and
  a map's components, the only places here that read a jet's array;
- ``dict_evaluate`` and ``dict_jet_to_json``: the evaluation loop and the
  JSON writer the program ran on dict jets, the references for the
  nonzero-column evaluation and the basis-order writer of ``jets``;
- the dict-jet ring: ``add``, ``neg``, ``sub``, ``mul``, ``scaled``,
  ``truncated``, ``derivative`` and ``jacobian`` on ``MultiJet`` values,
  with the constructors ``variable_jet``, ``series_in_var`` and
  ``geometric_jet``: the reference for ``kernels.mul_arrays`` and the
  pair tables;
- ``catalog_jet``: the catalog's jets built by the ring from their
  closed forms, the reference for the coefficient tables of ``catalog``;
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
from functools import lru_cache
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
)
from polyloewner.jets import grlex_key, rotation_phases


# -- dict jets --------------------------------------------------------------


@lru_cache(maxsize=None)
def _alphas(dim: int, degree: int) -> tuple:
    return tuple(multiindices(dim, degree))


def coeffs(jet: MultiJet) -> dict[tuple[int, ...], complex]:
    """The nonzero coefficients of a jet as {alpha: c}, in graded-lex order."""
    return {a: c for a, c in zip(_alphas(jet.dim, jet.degree), jet.array.tolist()) if c != 0}


def components(f: JetMap) -> tuple[MultiJet, ...]:
    return tuple(f.component(i) for i in range(f.dim))


def dict_evaluate(terms: Mapping[tuple[int, ...], complex], z: np.ndarray) -> np.ndarray:
    """A dict jet at points z, term by term in the dict's order.

    This is the evaluation loop the program ran on its dict jets: each
    term is its coefficient times z_j**p left to right, every power formed
    afresh, and the terms are added in turn.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape[:-1], dtype=np.complex128)
    for a, c in terms.items():
        term = np.full(z.shape[:-1], c, dtype=np.complex128)
        for j, p in enumerate(a):
            if p:
                term = term * z[..., j] ** p
        out = out + term
    return out


def dict_jet_to_json(dim: int, degree: int, terms: Mapping) -> dict:
    """The JSON of a dict jet as the program wrote it from dicts.

    The dict constructor kept each term of degree at most ``degree`` as
    ``complex(c)`` unless it was an exact zero; the writer sorted the kept
    terms by ``grlex_key``.
    """
    kept = {tuple(a): complex(c) for a, c in terms.items() if sum(a) <= degree and complex(c) != 0}
    return {
        "dim": dim,
        "degree": degree,
        "coeffs": [
            {"alpha": list(a), "re": c.real, "im": c.imag}
            for a, c in sorted(kept.items(), key=lambda kv: grlex_key(kv[0]))
        ],
    }


# -- the dict-jet ring -----------------------------------------------------
#
# Sums, products and negations follow Python's complex arithmetic term by
# term, signed zeros included: a product or a sum into a fresh key starts
# from 0j, and a negation flips the sign of both parts.


def _check_compatible(a: MultiJet, b: MultiJet) -> None:
    if a.dim != b.dim or a.degree != b.degree:
        raise JetShapeError(
            f"jet shapes differ: ({a.dim},{a.degree}) vs ({b.dim},{b.degree})"
        )


def add(a: MultiJet, b: MultiJet) -> MultiJet:
    _check_compatible(a, b)
    out = dict(coeffs(a))
    for alpha, c in coeffs(b).items():
        out[alpha] = out.get(alpha, 0j) + c
    return MultiJet(a.dim, a.degree, out)


def neg(a: MultiJet) -> MultiJet:
    return MultiJet(a.dim, a.degree, {alpha: -c for alpha, c in coeffs(a).items()})


def sub(a: MultiJet, b: MultiJet) -> MultiJet:
    return add(a, neg(b))


def scaled(s: complex, a: MultiJet) -> MultiJet:
    s = complex(s)
    return MultiJet(a.dim, a.degree, {alpha: s * c for alpha, c in coeffs(a).items()})


def _term_order(jet: MultiJet) -> list:
    return sorted((alpha, c.real, c.imag) for alpha, c in coeffs(jet).items())


def mul(a: MultiJet, b: MultiJet) -> MultiJet:
    """Truncated Cauchy product of two jets of one shape."""
    _check_compatible(a, b)
    # a*b and b*a run one loop over the same sorted terms, so the product
    # commutes exactly, rounding included
    first, second = sorted((a, b), key=_term_order)
    terms = sorted((sum(beta), beta, cb) for beta, cb in coeffs(second).items())
    out: dict[tuple[int, ...], complex] = {}
    for alpha, ca in sorted(coeffs(first).items()):
        room = a.degree - sum(alpha)
        for dbeta, beta, cb in terms:
            if dbeta > room:
                break
            g = tuple(x + y for x, y in zip(alpha, beta))
            out[g] = out.get(g, 0j) + ca * cb
    return MultiJet(a.dim, a.degree, out)


def truncated(a: MultiJet, degree: int) -> MultiJet:
    """Re-truncate; raising the degree treats absent coefficients as 0."""
    kept = {alpha: c for alpha, c in coeffs(a).items() if sum(alpha) <= degree}
    return MultiJet(a.dim, degree, kept)


def derivative(a: MultiJet, var: int) -> MultiJet:
    if not 0 <= var < a.dim:
        raise JetShapeError(f"variable index {var} out of range for dim {a.dim}")
    out: dict[tuple[int, ...], complex] = {}
    for alpha, c in coeffs(a).items():
        if alpha[var]:
            beta = list(alpha)
            beta[var] -= 1
            out[tuple(beta)] = c * alpha[var]
    return MultiJet(a.dim, max(a.degree - 1, 0), out)


def jacobian(f: JetMap) -> tuple[tuple[MultiJet, ...], ...]:
    """Matrix of partial-derivative jets, truncated one degree lower."""
    return tuple(tuple(derivative(comp, j) for j in range(f.dim)) for comp in components(f))


def variable_jet(dim: int, degree: int, var: int) -> MultiJet:
    if not 0 <= var < dim:
        raise JetShapeError(f"variable index {var} out of range for dim {dim}")
    return MultiJet(dim, degree, {tuple(int(k == var) for k in range(dim)): 1.0 + 0j})


def series_in_var(dim: int, degree: int, var: int, coeffs: Sequence[complex]) -> MultiJet:
    """Jet of ``sum_k coeffs[k] * z_var**k`` truncated at ``degree``."""
    if not 0 <= var < dim:
        raise JetShapeError(f"variable index {var} out of range for dim {dim}")
    out = {
        tuple(k if j == var else 0 for j in range(dim)): complex(c)
        for k, c in enumerate(coeffs[: degree + 1])
    }
    return MultiJet(dim, degree, out)


def geometric_jet(dim: int, degree: int, var: int) -> MultiJet:
    """Jet of 1/(1 - z_var)."""
    return series_in_var(dim, degree, var, [1.0] * (degree + 1))


def zero_jet(dim: int, degree: int) -> MultiJet:
    return MultiJet(dim, degree, {})


def constant_jet(dim: int, degree: int, value: complex) -> MultiJet:
    return MultiJet(dim, degree, {(0,) * dim: complex(value)})


def identity_map(dim: int, degree: int) -> JetMap:
    return JetMap(tuple(variable_jet(dim, degree, j) for j in range(dim)), Normalization.UNIVALENT)


# -- the catalog by the ring ------------------------------------------------


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


def catalog_jet(name: str, dim: int, degree: int) -> JetMap:
    """The jet of catalog entry ``name`` built by ring products of its closed form.

    F maps extend by identity coordinates and H generators by negated ones.
    """
    z0, z1 = variable_jet(dim, degree, 0), variable_jet(dim, degree, 1)
    z2 = variable_jet(dim, degree, 2) if dim > 2 else None
    one_plus_z1 = series_in_var(dim, degree, 1, [1.0, 1.0])
    geo0, geo1 = geometric_jet(dim, degree, 0), geometric_jet(dim, degree, 1)
    cayley = [1.0] + [2.0 * (-1.0) ** k for k in range(1, degree + 1)]  # (1-z)/(1+z)
    damp = [0.0] + [(-1.0) ** (k + 1) for k in range(1, degree + 1)]  # z/(1+z)
    sq1 = mul(z1, z1)
    rings = {
        "F1": lambda: [mul(mul(z0, geo0), geo0)],
        "F2": lambda: [mul(mul(z0, one_plus_z1), one_plus_z1)],
        "F3": lambda: [mul(mul(z0, one_plus_z1), geo1), mul(z1, geo1)],
        "F4": lambda: [add(z0, sq1)],
        "F5": lambda: [mul(add(sub(z0, mul(z0, z1)), sq1), geo1), mul(z1, geo1)],
        "F6": lambda: [add(z0, mul(z1, z2))],
        "F7": lambda: [
            add(z0, mul(mul(z1, z2), _log_quotient_jet(dim, degree, 1, 2))),
            series_in_var(dim, degree, 1, damp),
            series_in_var(dim, degree, 2, damp),
        ],
        "H1": lambda: [neg(mul(z0, series_in_var(dim, degree, 0, cayley)))],
        "H2": lambda: [neg(mul(z0, series_in_var(dim, degree, 1, cayley)))],
        "H3": lambda: [neg(mul(z0, series_in_var(dim, degree, 1, cayley))), add(neg(z1), sq1)],
        "H4": lambda: [add(neg(z0), sq1)],
        "H5": lambda: [add(neg(z0), sq1), add(neg(z1), sq1)],
        "H6": lambda: [add(neg(z0), mul(z1, z2))],
        "H7": lambda: [
            add(neg(z0), mul(z1, z2)),
            sub(neg(z1), sq1),
            sub(neg(z2), mul(z2, z2)),
        ],
    }
    comps = rings[name]()
    tail = [variable_jet(dim, degree, j) for j in range(len(comps), dim)]
    if name.startswith("F"):
        return JetMap(tuple(comps + tail), Normalization.UNIVALENT)
    return JetMap(tuple(comps + [neg(z) for z in tail]), Normalization.GENERATOR)


# -- composition ----------------------------------------------------------


def _monomial_table(inner: JetMap, degree: int) -> dict[tuple[int, ...], MultiJet]:
    """Jets of all monomials ``inner**alpha`` with ``|alpha| <= degree``."""
    n = inner.dim
    table: dict[tuple[int, ...], MultiJet] = {}
    one = constant_jet(inner.dim, degree, 1.0)
    for alpha in multiindices(n, degree):
        if sum(alpha) == 0:
            table[alpha] = one
            continue
        var = next(j for j, a in enumerate(alpha) if a > 0)
        parent = list(alpha)
        parent[var] -= 1
        table[alpha] = mul(table[tuple(parent)], truncated(inner.component(var), degree))
    return table


def compose_scalar(outer: MultiJet, inner: JetMap) -> MultiJet:
    """Jet of ``outer(inner(z))``; exact through the common degree.

    The inner map must have zero constant term, otherwise the truncated
    coefficients of the composite are not determined by the operands.
    """
    if outer.dim != inner.dim:
        raise JetShapeError(f"outer takes {outer.dim} variables, inner supplies {inner.dim}")
    if np.max(np.abs(inner.constant_terms())) != 0:
        raise DomainError("inner map of a composition must have zero constant term")
    degree = min(outer.degree, inner.degree)
    table = _monomial_table(inner, degree)
    acc = zero_jet(inner.dim, degree)
    for alpha, c in coeffs(outer).items():
        if sum(alpha) > degree:
            continue
        acc = add(acc, scaled(c, table[alpha]))
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
    for comp in components(outer):
        acc = zero_jet(inner.dim, degree)
        for alpha, c in coeffs(comp).items():
            if sum(alpha) > degree:
                continue
            acc = add(acc, scaled(c, table[alpha]))
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
    A0 = np.array([[A[i][j].coefficient((0,) * dim) for j in range(n)] for i in range(n)])
    try:
        A0_inv = np.linalg.inv(A0)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("constant term of jet matrix is singular") from exc

    x_coeffs: list[dict[tuple[int, ...], complex]] = [{} for _ in range(n)]
    for gamma in multiindices(dim, degree):
        rhs = np.array([b[i].coefficient(gamma) for i in range(n)], dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                for beta, c in coeffs(A[i][j]).items():
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
    for j, comp in enumerate(components(f)):
        terms = coeffs(comp)
        exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), f.dim)
        phases = rotation_phases(exps, th)[j]
        out = {a: c * complex(p) for (a, c), p in zip(terms.items(), phases)}
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
    comps = tuple(scaled(scale, c) for c in components(raw))
    return JetMap(comps, Normalization.UNIVALENT)


# -- serialization --------------------------------------------------------


def map_from_json(obj: Mapping) -> JetMap:
    try:
        comps = tuple(jet_from_json(c) for c in obj["components"])
        norm = Normalization(obj.get("normalization", "general"))
        return JetMap(comps, norm)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed jet map object: {exc}") from exc

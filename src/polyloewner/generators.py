"""Infinitesimal generators on the unit polydisc and membership testing.

A generator is a holomorphic map h with h(0) = 0, Dh(0) = -identity, and
Re(h_j(z)/z_j) <= 0 whenever the sup-norm of z is attained at |z_j| > 0
(the class M of Graham & Kohr, *Geometric Function Theory in One and
Higher Dimensions*, 2003).  A generator stores one read-only (n, B)
coefficient array, written directly by its constructor, a pointwise
evaluator checked against it spectrally, and its provenance.  It also
owns its Koenigs data, the solution K of DK.h = -K with K = z + ...:
the series pair (K, L = K^-1) per degree (``Generator.koenigs_pair``)
and, where the construction knows it, the pointwise map F with its
Jacobian (``Generator.koenigs_map``).  The evolution engine reads only
these two methods.

Membership is certified by sampling the margin Re(h_j(z)/z_j) on a
deterministic grid, and for h holomorphic on the closed polydisc
0.95*D^n one torus is enough, by the maximum principle.  Take z with
|z_j| = r = ||z||_inf <= 0.95 and put w = (0.95/r) z.  Since h_j(0) = 0,
mu -> h_j(mu w)/(mu w_j) is holomorphic on the closed unit disc, so its
real part at mu = r/0.95 is at most its maximum on |mu| = 1.  With z_j
fixed, Re(h_j/z_j) is pluriharmonic in the other coordinates, so its
maximum lies where they all have modulus 0.95.  The supremum over every
sup-norm shell of 0.95*D^n is therefore the supremum over the torus
0.95*T^n, and ``REFERENCE_GRID`` samples that torus only.

The premise fails for ``from_starlike``: -Df^{-1} f has a pole wherever
det Df vanishes inside the polydisc, and the torus can miss it (for
f(z) = z + 2z^3 the pole sits at |z| = 1/sqrt(6) while every torus margin
is negative).  Such generators are scanned on ``SHELL_GRID`` instead:
ten sup-norm shells from 0.1 to 0.95, the other coordinates at moduli 0,
r/2 and r, each mesh evaluated in slices of ``_SCAN_SLICE`` points.

Constructions whose margins provably depend on only a few coordinates
declare those dependency sets, and the scan then meshes only the
declared axes (the remaining coordinates are pinned), which is an exact
reduction, not a heuristic.  A passing certificate means no violation
was found on the grid it records; a failing one carries a concrete
witness point; a margin that is not finite raises ``SingularityError``.

Each generator carries one ``Admission`` value, which says how its
membership is established; no constructor decides membership.
``require_admissible`` is the one rule that admits generators where
membership is required (field builds, ``bounds --generator``): it scans
every distinct generator that is not ``TRUSTED`` once and raises
``MembershipError`` on the first failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .fourier import torus_error
from .jets import (
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    SingularityError,
    check_normalization,
    map_to_json,
    rotation_phases,
)

__all__ = [
    "GridSpec",
    "REFERENCE_GRID",
    "SHELL_GRID",
    "MEMBERSHIP_TOL",
    "CHECK_TOL",
    "MembershipCertificate",
    "MembershipError",
    "require_admissible",
    "AtomicMeasure",
    "Admission",
    "Generator",
    "dilation_generator",
    "membership_check",
    "from_starlike",
    "rotate_generator",
    "product_form",
    "convex_combination",
    "shear_linear",
    "shear_quadratic",
]

MEMBERSHIP_TOL = 1e-9
# h(0), Dh(0) + I and the evaluator's torus coefficients off the array are refused above this
CHECK_TOL = 1e-8
# the most mesh points a membership scan evaluates at once
_SCAN_SLICE = 2**16
# the most points ``_lu_solve`` factors at once
_LU_SLICE = 2**12


@dataclass(frozen=True)
class GridSpec:
    """Deterministic membership sampling grid.

    ``radii`` are the tested sup-norm levels; the distinguished coordinate
    sweeps ``angle_count`` equispaced angles at each radius, and every
    other scanned coordinate takes moduli ``factor * r`` over the same
    angles (modulus zero collapses to the single point 0).  The defaults
    are ``SHELL_GRID``, for evaluators that may have poles inside the
    polydisc; ``REFERENCE_GRID`` keeps only the torus of radius 0.95,
    which bounds the margin of every generator holomorphic on 0.95*D^n.
    """

    radii: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    angle_count: int = 64
    companion_factors: tuple[float, ...] = (0.0, 0.5, 1.0)

    def __post_init__(self) -> None:
        if not self.radii or any(not 0.0 < r < 1.0 for r in self.radii):
            raise DomainError("grid radii must lie strictly inside (0, 1)")
        if list(self.radii) != sorted(self.radii):
            raise DomainError("grid radii must be ascending")
        if self.angle_count < 8:
            raise DomainError("grid needs at least 8 angles")
        if any(not 0.0 <= f <= 1.0 for f in self.companion_factors):
            raise DomainError("companion factors must lie in [0, 1]")

    def to_json(self) -> dict:
        return {
            "radii": list(self.radii),
            "angle_count": self.angle_count,
            "companion_factors": list(self.companion_factors),
        }


REFERENCE_GRID = GridSpec(radii=(0.95,), companion_factors=(1.0,))
SHELL_GRID = GridSpec()


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a grid membership scan (one-sided: pass = none found).

    ``grid`` is the grid actually scanned.
    """

    passed: bool
    worst_margin: float
    witness_point: tuple[complex, ...]
    witness_coordinate: int
    tol: float
    grid: GridSpec

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness_point": [{"re": c.real, "im": c.imag} for c in self.witness_point],
            "witness_coordinate": self.witness_coordinate,
            "tol": self.tol,
            "grid": self.grid.to_json(),
        }


class MembershipError(ValueError):
    """A generator failed its membership scan where one was required."""

    def __init__(self, message: str, certificate: MembershipCertificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic probability measure on the circle: (angle, weight) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        if not atoms:
            raise DomainError("atomic measure needs at least one atom")
        if not all(math.isfinite(a) and math.isfinite(w) for a, w in atoms):
            raise DomainError(f"atom angles and weights must be finite, got {atoms}")
        if any(w < 0 for _, w in atoms):
            raise DomainError("atom weights must be nonnegative")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"atom weights must sum to 1, got {total!r}")
        object.__setattr__(self, "atoms", atoms)

    def herglotz_coefficient(self, k: int) -> complex:
        """Taylor coefficient c_k = 2 * sum of weight * u^-k, u = exp(i angle); c_0 = 1.

        Powers of u stay finite at any angle, where k * angle can overflow.
        """
        if k == 0:
            return 1.0 + 0j
        return sum(w * (2.0 / complex(np.exp(1j * a)) ** k) for a, w in self.atoms)

    def transform_jet(self, dim: int, degree: int, var: int) -> MultiJet:
        """Jet of p(z_var) = sum of weight * (u + z_var)/(u - z_var): the moments c_k.

        A ``var`` outside [0, dim) gives multi-indices of the wrong length,
        so ``MultiJet`` raises ``JetShapeError``.
        """
        return MultiJet(
            dim,
            degree,
            {
                (0,) * var + (k,) + (0,) * (dim - 1 - var): self.herglotz_coefficient(k)
                for k in range(degree + 1)
            },
        )

    def transform_values(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        out = np.zeros_like(w)
        for a, wt in self.atoms:
            u = np.exp(1j * a)
            out = out + wt * (u + w) / (u - w)
        return out

    def to_json(self) -> dict:
        return {"atoms": [{"angle": a, "weight": w} for a, w in self.atoms]}

    @staticmethod
    def from_json(obj) -> "AtomicMeasure":
        try:
            atoms = tuple((float(e["angle"]), float(e["weight"])) for e in obj["atoms"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed atomic measure: {exc}") from exc
        return AtomicMeasure(atoms)


class Admission(IntEnum):
    """How a generator's membership is established, in increasing order.

    ``TRUSTED``: a member by construction (catalog entries, the dilation,
    product forms); ``require_admissible`` skips it.  ``TORUS``: holomorphic
    on 0.95*D^n, so ``membership_check`` scans ``REFERENCE_GRID``.
    ``SHELLS``: may have poles inside (``from_starlike`` inverts Df), so it
    scans ``SHELL_GRID``.  A rotation keeps its base's value, a convex
    combination takes its parts' largest and a shear at least ``TORUS``.
    """

    TRUSTED = 0
    TORUS = 1
    SHELLS = 2


def _require_torus_agreement(g: "Generator", message: str) -> None:
    """``DomainError`` unless g's evaluator gives its array to ``CHECK_TOL`` on the probe torus."""
    err = torus_error(g.evaluate, g.jet_array(g.degree), kernels.basis_tables(g.dim, g.degree))
    if not err <= CHECK_TOL:
        raise DomainError(f"{message}: coefficient error {err:.3e}")


class Generator:
    """An infinitesimal generator: coefficient array + evaluator + provenance.

    ``jet`` is a ``JetMap`` or an (n, B) array on the basis of
    ``kernels.basis_tables(n, degree)``; it is copied once, and the
    attribute ``jet`` is a read-only view of that copy.  A
    coefficient that is not finite raises ``DomainError`` before any
    other check; then h(0) = 0 and Dh(0) = -I are checked to
    ``CHECK_TOL``.  A lower degree's basis is a prefix of the graded-lex
    one, so ``jet_array(d)`` is a view of the first columns.

    ``margin_deps`` optionally lists, per component j, the coordinate
    indices that Re(h_j(z)/z_j) actually depends on; ``None`` means scan
    everything.  ``admission`` (an ``Admission``) says how membership is
    established.  At ``TORUS``, the default for a caller's own generator,
    the constructor checks the evaluator against the array on the probe
    torus of ``fourier.torus_grid`` and raises ``DomainError`` if they
    disagree; ``TRUSTED`` and ``SHELLS`` run no probe.

    ``rotation`` is (base, angles, phases) for ``rotate_generator(base,
    angles)``, phases the (n, B) array of ``rotation_phases``, and None
    otherwise; a rotation derives its Koenigs data from its base's.

    ``koenigs_map``, where the construction knows it, is a callable that
    returns the pointwise Koenigs map F of h and its Jacobian DF as a pair
    of vectorized functions.  It is called only by the method of the same
    name, so building a generator resolves nothing.  Rotations leave it
    None and conjugate their base's map instead.
    """

    def __init__(
        self,
        jet: Union[JetMap, np.ndarray],
        evaluator: Callable[[np.ndarray], np.ndarray],
        provenance: dict,
        *,
        margin_deps: Optional[Sequence[Iterable[int]]] = None,
        admission: Admission = Admission.TORUS,
        rotation: Optional[tuple["Generator", tuple[float, ...], np.ndarray]] = None,
        koenigs_map: Optional[Callable[[], tuple[Callable, Callable]]] = None,
    ):
        arr = np.array(jet.array if isinstance(jet, JetMap) else jet, dtype=np.complex128)
        self.jet = JetMap.from_array(arr, Normalization.GENERATOR)
        self.dim, self.degree = self.jet.dim, self.jet.degree
        if not np.isfinite(arr).all():
            raise DomainError("generator jet has coefficients that are not finite")
        tables = kernels.basis_tables(self.dim, self.degree)
        check_normalization(arr[:, 0], arr[:, tables.linear], -1.0, CHECK_TOL)
        self.rotation = rotation
        self._koenigs_source = koenigs_map
        self._koenigs_pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._evaluator = evaluator
        self.provenance = dict(provenance)
        if margin_deps is not None:
            margin_deps = tuple(frozenset(int(i) for i in d) for d in margin_deps)
            if len(margin_deps) != self.dim:
                raise JetShapeError("margin_deps needs one entry per component")
        self.margin_deps = margin_deps
        self.admission = Admission(admission)
        if self.admission is Admission.TORUS:
            _require_torus_agreement(self, "generator evaluator and jet disagree")

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[-1] != self.dim:
            raise JetShapeError(f"points have last axis {z.shape[-1]}, expected {self.dim}")
        return np.asarray(self._evaluator(z), dtype=np.complex128)

    def koenigs_pair(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Koenigs map K of h and its inverse L through ``degree``: (n, B) arrays.

        Solved once per degree and kept; the arrays are read-only.  A
        rotation's pair is its base's pair times the rotation phases (K of
        R h R^-1 is R K R^-1), never a solve of its own, so cold and warm
        calls agree to the bit.
        """
        pair = self._koenigs_pairs.get(degree)
        if pair is None:
            if self.rotation is None:
                tables = kernels.basis_tables(self.dim, degree)
                pair = _solve_koenigs_pair(self.jet_array(degree), tables)
            else:
                base, _, phases = self.rotation
                pair = tuple(f * phases[:, : f.shape[1]] for f in base.koenigs_pair(degree))
            for f in pair:
                f.flags.writeable = False
            self._koenigs_pairs[degree] = pair
        return pair

    def koenigs_map(self) -> Optional[tuple[Callable, Callable]]:
        """The pointwise Koenigs map F of h and its Jacobian DF, or None.

        F and DF are vectorized over leading axes, with DF.h = -F, F(0) = 0
        and DF(0) = I.  Catalog generators, the dilation and
        ``from_starlike`` know F; a rotation conjugates its base's pair,
        F_rot(z) = e^-i.angles F(e^i.angles z) and DF_rot = e^-i.angles DF
        e^i.angles; every other construction returns None.
        """
        if self.rotation is None:
            source = self._koenigs_source
            return None if source is None else source()
        base, angles, _ = self.rotation
        pair = base.koenigs_map()
        if pair is None:
            return None
        F, DF = pair
        th = np.asarray(angles)
        phases, inv_phases = np.exp(1j * th), np.exp(-1j * th)
        return (
            lambda z: inv_phases * F(phases * z),
            lambda z: inv_phases[:, None] * DF(phases * z) * phases,
        )

    def jet_array(self, degree: int) -> np.ndarray:
        """Read-only (dim, basis) coefficient array through ``degree``."""
        if not 1 <= degree <= self.degree:
            raise JetShapeError(
                f"generator jet holds degrees 1 to {self.degree}, cannot serve degree {degree}"
            )
        return self.jet.array[:, : math.comb(self.dim + degree, self.dim)]

    def to_json(self) -> dict:
        return {"provenance": self.provenance, "jet": map_to_json(self.jet)}


def _solve_koenigs_pair(
    h: np.ndarray, tables: kernels.BasisTables
) -> tuple[np.ndarray, np.ndarray]:
    """K and L by series from the coefficient array h of a generator.

    With h = -z + g, DK.h = -K reads (d-1) K_d = [DK.g]_d on the degree-d
    layer, and [DK.g]_d involves only layers below d: each pass of the
    loop settles one more degree.  The reversion L <- L + z - K o L
    settles one more degree of K o L = z per pass in the same way.
    """
    ident = kernels.identity_array(tables)
    deg = tables.degrees
    g = np.where(deg >= 2, h, 0.0)
    solve = np.where(deg >= 2, 1.0 / np.maximum(deg - 1, 1), 0.0)
    K = ident
    for _ in range(tables.degree - 1):
        K = ident + solve * kernels.jacobian_times(K, g, tables)
    L = ident
    for _ in range(tables.degree - 1):
        L = L + ident - kernels.compose_arrays(K, L, tables)
    return K, L


# -- membership -----------------------------------------------------------


def _membership_mesh(
    dim: int, j: int, deps: frozenset, r: float, grid: GridSpec
) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(grid.angle_count) / grid.angle_count
    circle = np.exp(1j * theta)
    axes_coords: list[int] = []
    axes_vals: list[np.ndarray] = []
    for k in range(dim):
        if k == j:
            v = r * circle if j in deps else np.array([r + 0j])
        elif k in deps:
            v = np.concatenate(
                [f * r * circle if f else np.array([0j]) for f in grid.companion_factors]
            )
        else:
            continue
        axes_coords.append(k)
        axes_vals.append(v)
    # the "ij" mesh, axis 0 slowest, written by broadcasting with no copies of its axes
    shape = tuple(len(v) for v in axes_vals)
    pts = np.zeros(shape + (dim,), dtype=np.complex128)
    for axis, (coord, v) in enumerate(zip(axes_coords, axes_vals)):
        pts[..., coord] = v.reshape((-1,) + (1,) * (len(shape) - 1 - axis))
    return pts.reshape(-1, dim)


def membership_check(
    g: Generator, grid: GridSpec = REFERENCE_GRID, tol: float = MEMBERSHIP_TOL
) -> MembershipCertificate:
    """Scan Re(h_j(z)/z_j) over the grid; certify if it stays <= tol.

    The default grid is the torus 0.95*T^n, whose maximum is the maximum
    over the whole closed polydisc 0.95*D^n when h is holomorphic there
    (see the module docstring).  A ``SHELLS`` generator is scanned on
    ``SHELL_GRID`` whenever ``REFERENCE_GRID`` is asked for; any other grid
    is scanned as given.  The certificate records the grid scanned.

    The scan is deterministic; the witness is the first grid point (in
    coordinate, radius, mesh order) attaining the worst margin, whatever
    the slices the mesh is evaluated in.  A margin that is not finite
    raises ``SingularityError`` naming its point.
    """
    if g.admission is Admission.SHELLS and grid == REFERENCE_GRID:
        grid = SHELL_GRID
    n = g.dim
    worst = -math.inf
    wit_point: tuple[complex, ...] = (0j,) * n
    wit_coord = 0
    for j in range(n):
        deps = g.margin_deps[j] if g.margin_deps is not None else frozenset(range(n))
        for r in grid.radii:
            mesh = _membership_mesh(n, j, deps, r, grid)
            for start in range(0, len(mesh), _SCAN_SLICE):
                pts = mesh[start : start + _SCAN_SLICE]
                margins = np.real(g.evaluate(pts)[:, j] / pts[:, j])
                finite = np.isfinite(margins)
                if not finite.all():
                    where = [complex(c) for c in pts[int(np.argmin(finite))]]
                    raise SingularityError(
                        f"membership margin of component {j} is not finite at z = {where}"
                    )
                k = int(np.argmax(margins))
                m = float(margins[k])
                if m > worst:
                    worst = m
                    wit_point = tuple(complex(c) for c in pts[k])
                    wit_coord = j
    return MembershipCertificate(
        passed=bool(worst <= tol),
        worst_margin=worst,
        witness_point=wit_point,
        witness_coordinate=wit_coord,
        tol=tol,
        grid=grid,
    )


def require_admissible(gens: Iterable[Generator]) -> None:
    """Raise ``MembershipError`` unless every generator is in the class M.

    This is the one admissibility rule of the program: each distinct
    generator that is not ``TRUSTED`` is scanned once by
    ``membership_check`` at its defaults (``REFERENCE_GRID`` at
    ``MEMBERSHIP_TOL``, or ``SHELL_GRID`` for ``SHELLS``), and the first
    failure raises with its certificate.
    """
    seen: set[int] = set()
    for g in gens:
        if g.admission is Admission.TRUSTED or id(g) in seen:
            continue
        seen.add(id(g))
        cert = membership_check(g)
        if not cert.passed:
            raise MembershipError("generator fails the admissibility inequality", cert)


# -- constructions --------------------------------------------------------


def dilation_generator(dim: int, degree: int = 4) -> Generator:
    """The generator h(z) = -z of the pure dilation semigroup (Koenigs map: z)."""

    def evaluator(z: np.ndarray) -> np.ndarray:
        return -z

    def identity_pair():
        return (lambda z: z), (lambda z: np.broadcast_to(np.eye(dim), z.shape + (dim,)))

    return Generator(
        -kernels.identity_array(kernels.basis_tables(dim, degree)),
        evaluator,
        {"kind": "dilation", "dim": dim},
        margin_deps=[frozenset()] * dim,
        admission=Admission.TRUSTED,
        koenigs_map=identity_pair,
    )


def _polynomial_jacobian_fn(
    f: np.ndarray, tables: kernels.BasisTables
) -> Callable[[np.ndarray], np.ndarray]:
    """Df of the polynomial with coefficient array ``f``.

    Row i is the jet map (df_i/dz_0, df_i/dz_1, ...), read off
    ``BasisTables.deriv_gather`` and evaluated pointwise.
    """
    col, factor = tables.deriv_gather
    rows = [JetMap.from_array(f[i, col] * factor) for i in range(tables.dim)]
    return lambda z: np.stack([row(z) for row in rows], axis=-2)


def _lu_solve(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = jac^-1 rhs and det jac at every point: (..., n, n), (..., n) -> (..., n), (...).

    One LU factorization with partial pivoting per point, vectorized over
    the points and run on slices of ``_LU_SLICE`` of them.  The pivot is
    the first entry of largest |Re| + |Im| in its column, as LAPACK's
    izamax picks it.  A zero pivot (its column is zero from the diagonal
    down) eliminates nothing and makes det 0; the solve then divides by
    it, so x there is not finite, and no warning is raised for it.
    """
    n = rhs.shape[-1]
    lead = rhs.shape[:-1]
    jac = jac.reshape(-1, n, n)
    rhs = rhs.reshape(-1, n)
    x = np.empty(rhs.shape, dtype=np.complex128)
    det = np.empty(len(rhs), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for start in range(0, len(rhs), _LU_SLICE):
            part = slice(start, start + _LU_SLICE)
            count = len(rhs[part])
            # rows x (columns, rhs) x points: each entry is a contiguous run of points
            m = np.empty((n, n + 1, count), dtype=np.complex128)
            m[:, :n] = jac[part].transpose(1, 2, 0)
            m[:, n] = rhs[part].T
            d = np.ones(count, dtype=np.complex128)
            for k in range(n):
                mag = np.abs(m[k:, k].real) + np.abs(m[k:, k].imag)
                p, top = np.zeros(count, dtype=np.intp), mag[0]
                for r in range(1, n - k):
                    larger = mag[r] > top
                    p, top = np.where(larger, r, p), np.where(larger, mag[r], top)
                for r in range(1, n - k):
                    swap = p == r
                    if swap.any():
                        row, other = m[k, k:], m[k + r, k:]
                        m[k, k:], m[k + r, k:] = np.where(swap, other, row), np.where(swap, row, other)
                pivot = m[k, k]
                d = np.where(p > 0, -d, d) * pivot
                scale = m[k + 1 :, k] / np.where(pivot == 0, 1.0, pivot)
                m[k + 1 :, k + 1 :] -= scale[:, None] * m[k, k + 1 :]
            xs = np.empty((n, count), dtype=np.complex128)
            for i in range(n - 1, -1, -1):
                xs[i] = (m[i, n] - (m[i, i + 1 : n] * xs[i + 1 :]).sum(axis=0)) / m[i, i]
            x[part] = xs.T
            det[part] = d
    return x.reshape(lead + (n,)), det.reshape(lead)


def from_starlike(f, *, degree: Optional[int] = None) -> Generator:
    """Generator -Df(z)^{-1} f(z) of a normalized starlike map.

    ``f`` is either a catalog starlike map (``catalog.NamedMap``, with
    ``jet``, ``evaluator`` and ``jacobian``) or a bare ``JetMap``, in which
    case the jet, truncated to ``degree``, doubles as a polynomial
    evaluator and its derivative jets as the Jacobian.  A series
    coefficient that overflows is refused by the ``Generator`` constructor
    (``DomainError``) before any check runs.  The provenance
    records the map as a description (``catalog`` with its name, dim and
    degree, or ``polynomial`` with the truncated jet), so it can be fed
    back to ``descriptions.generator_from_json``.  The array of the
    result solves Df * x = f order by order.  The evaluator solves
    Df(z) x = f(z) at every point with one LU factorization (``_lu_solve``,
    vectorized over the points), which also gives det Df(z); where
    |det Df| < 1e-12 it raises ``SingularityError`` naming the first such
    point in input order.  Df may vanish inside the polydisc, so the
    result is ``SHELLS``.  Its evaluator is checked against its array on
    the probe torus: a pole of -Df^-1 f near that torus makes them
    disagree, and such an f is not univalent, hence not starlike, so the
    disagreement raises ``DomainError``.  Its Koenigs map is f itself:
    Df.h = -f.
    """
    polynomial = isinstance(f, JetMap)
    fjet = f if polynomial else f.jet
    tables = kernels.basis_tables(fjet.dim, fjet.degree if degree is None else degree)
    # a lower degree's basis is a prefix of a higher one's: cut or zero-pad the columns
    farr = fjet.array[:, : tables.size]
    farr = np.pad(farr, ((0, 0), (0, tables.size - farr.shape[1])))
    check_normalization(farr[:, 0], farr[:, tables.linear], 1.0, 1e-10)

    # x <- x + Df(0)^-1 (f - Df x): Df - Df(0) raises the degree, so each
    # pass settles one more degree of x, from its constant term up
    inv_linear = np.linalg.inv(farr[:, tables.linear])
    x = np.zeros_like(farr)
    # a coefficient that overflows is not finite, and the constructor refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tables.degree + 1):
            x = x + inv_linear @ (farr - kernels.jacobian_times(farr, x, tables))

    if polynomial:
        fev, fjac = JetMap.from_array(farr), _polynomial_jacobian_fn(farr, tables)
        source = {"kind": "polynomial", "components": map_to_json(fev)["components"]}
    else:
        fev, fjac = f.evaluator, f.jacobian
        source = {"kind": "catalog", "name": f.name, "dim": f.dim, "degree": f.degree}

    def evaluator(z: np.ndarray) -> np.ndarray:
        vals = np.asarray(fev(z), dtype=np.complex128)
        jac_vals = np.asarray(fjac(z), dtype=np.complex128)
        sol, dets = _lu_solve(jac_vals, vals)
        bad = np.abs(dets) < 1e-12
        if np.any(bad):
            where = z[bad][0] if z.ndim > 1 else z
            raise SingularityError(f"Jacobian of the starlike map is singular near {where}")
        return -sol

    g = Generator(
        -x,
        evaluator,
        {"kind": "from-starlike", "map": source},
        admission=Admission.SHELLS,
        koenigs_map=lambda: (fev, fjac),
    )
    _require_torus_agreement(g, "-Df^-1 f and its series disagree, so f is not starlike")
    return g


def rotate_generator(g: Generator, angles: Sequence[float]) -> Generator:
    """Conjugate a generator by a torus rotation.

    Component j of the result is exp(-i a_j) h_j(exp(i a) z); on jets this
    multiplies coefficients by unit phases.  Rotating a rotation collapses
    to a single rotation of the original base with summed angles, so a
    rotation by angles followed by its negation returns the base object
    itself, coefficient-for-coefficient identical.

    The array is the base's array times ``rotation_phases``; a phase that
    is not finite (angles near 1e308) raises ``DomainError``.  The result
    keeps base, angles and phases as ``rotation``: K of R h R^-1 is
    R K R^-1, so ``koenigs_pair`` rotates the base's pair with the same
    phases instead of solving it.
    """
    th = np.asarray(angles, dtype=np.float64)
    if th.shape != (g.dim,):
        raise JetShapeError(f"need {g.dim} angles, got shape {th.shape}")
    base = g
    if g.rotation is not None:
        base = g.rotation[0]
        th = th + np.asarray(g.rotation[1])
    if not th.any():
        return base

    phases = np.exp(1j * th)
    inv_phases = np.exp(-1j * th)

    def evaluator(z: np.ndarray) -> np.ndarray:
        return inv_phases * base.evaluate(phases * z)

    angles_out = tuple(float(a) for a in th)
    alphas = kernels.basis_tables(base.dim, base.degree).alpha_matrix
    # a phase that overflows is not finite, and the constructor refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        rot_phases = rotation_phases(alphas, th)
    return Generator(
        base.jet_array(base.degree) * rot_phases,
        evaluator,
        {"kind": "rotation", "angles": list(angles_out), "base": base.provenance},
        margin_deps=base.margin_deps,
        admission=base.admission,
        rotation=(base, angles_out, rot_phases),
    )


def product_form(
    selectors: Sequence[int],
    measures: Sequence[Optional[AtomicMeasure]],
    degree: int = 4,
) -> Generator:
    """Generator with components h_k(z) = -z_k p_k(z_{selectors[k]}).

    Each p_k is the Herglotz transform of an atomic measure (``None``
    means p_k = 1).  Such maps are generators for any selector choice,
    so the result is ``TRUSTED``, and its two closed forms are compared in
    the tests, not at each build.  Component k of the array is -1
    at z_k and -c_m at z_k z_s^m, s = selectors[k], with c_m the
    measure's ``herglotz_coefficient(m)``.
    """
    n = len(selectors)
    if len(measures) != n:
        raise JetShapeError("need one measure (or None) per coordinate")
    sel = [int(s) for s in selectors]
    if any(not 0 <= s < n for s in sel):
        raise DomainError(f"selectors must be coordinate indices in [0, {n}), got {sel}")

    tables = kernels.basis_tables(n, degree)
    arr = -kernels.identity_array(tables)
    margin_deps = []
    for k, measure in enumerate(measures):
        if measure is None:
            margin_deps.append(frozenset())
            continue
        margin_deps.append(frozenset({sel[k]}))
        for m in range(1, degree):
            alpha = tuple(int(v == k) + m * int(v == sel[k]) for v in range(n))
            arr[k, tables.index[alpha]] = -measure.herglotz_coefficient(m)

    def component_fn(z: np.ndarray, j: int) -> np.ndarray:
        if measures[j] is None:
            return -z[..., j]
        return -z[..., j] * measures[j].transform_values(z[..., sel[j]])

    def evaluator(z: np.ndarray) -> np.ndarray:
        return np.stack([component_fn(z, j) for j in range(n)], axis=-1)

    return Generator(
        arr,
        evaluator,
        {
            "kind": "product-form",
            "selectors": sel,
            "measures": [m.to_json() if m is not None else None for m in measures],
        },
        margin_deps=margin_deps,
        admission=Admission.TRUSTED,
    )


def convex_combination(parts: Sequence[Generator], weights: Sequence[float]) -> Generator:
    """Convex combination of generators (the class is a convex cone)."""
    if not parts:
        raise DomainError("need at least one generator")
    if len(weights) != len(parts):
        raise JetShapeError("need one weight per generator")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w):
        raise DomainError("weights must be nonnegative")
    if not abs(sum(w) - 1.0) <= 1e-12:
        raise DomainError(f"weights must sum to 1, got {sum(w)!r}")
    n = parts[0].dim
    if any(p.dim != n for p in parts):
        raise JetShapeError("generators disagree on dim")
    degree = min(p.degree for p in parts)
    arr = sum(wt * p.jet_array(degree) for wt, p in zip(w, parts))

    def evaluator(z: np.ndarray) -> np.ndarray:
        return sum(wt * p.evaluate(z) for wt, p in zip(w, parts))

    if all(p.margin_deps is not None for p in parts):
        margin_deps = [
            frozenset().union(*(p.margin_deps[j] for p in parts)) for j in range(n)
        ]
    else:
        margin_deps = None

    return Generator(
        arr,
        evaluator,
        {
            "kind": "convex-combination",
            "weights": w,
            "parts": [p.provenance for p in parts],
        },
        margin_deps=margin_deps,
        admission=max(p.admission for p in parts),
    )


# -- coordinate shears ----------------------------------------------------


def _sheared_profile_fn(g: Generator) -> Callable[[np.ndarray], np.ndarray]:
    """p(w) = 1 - sum_k c_{(1,k)} w^k as an exact pointwise function.

    Averaging h_1(x e^{i t}, w)/(x e^{i t}) over the full circle kills
    every coefficient with first exponent != 1 (the x-dependence drops
    out), leaving -1 + sum_k c_{(1,k)} w^k; the trapezoid rule on the
    circle evaluates that average to roundoff.
    """
    samples = 64
    ring = 0.5 * np.exp(2j * np.pi * np.arange(samples) / samples)

    def profile(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        pts = np.empty(w.shape + (samples, 2), dtype=np.complex128)
        pts[..., 0] = ring
        pts[..., 1] = w[..., None]
        vals = g.evaluate(pts)[..., 0] / ring
        return -np.mean(vals, axis=-1)

    return profile


def _sheared(
    g: Generator,
    kind: str,
    keep: Sequence[tuple[int, int]],
    first: Callable[[np.ndarray, np.ndarray], np.ndarray],
    first_deps: frozenset,
) -> Generator:
    """g with h_1 replaced: at least ``TORUS``, so scanned wherever it is required.

    Row 0 of the array is -z_1 plus g's row-0 coefficients c at the
    exponents ``keep``, and h_1(z) is ``first(z, c)``; row 1 and h_2 are
    g's.
    """
    if g.dim != 2:
        raise DomainError("coordinate shears are defined for dim 2 generators")
    if any(sum(a) > g.degree for a in keep):
        raise JetShapeError(f"{kind} needs a jet of degree >= 2")
    tables = kernels.basis_tables(2, g.degree)
    base = g.jet_array(g.degree)
    cols = [tables.index[a] for a in keep]
    c = base[0, cols]
    arr = np.zeros_like(base)
    arr[0, tables.linear[0]] = -1.0
    arr[0, cols] = c
    arr[1] = base[1]

    def evaluator(z: np.ndarray) -> np.ndarray:
        return np.stack([first(z, c), g.evaluate(z)[..., 1]], axis=-1)

    base_deps = g.margin_deps[1] if g.margin_deps is not None else frozenset({0, 1})
    return Generator(
        arr,
        evaluator,
        {"kind": kind, "base": g.provenance},
        margin_deps=[first_deps, base_deps],
        admission=max(Admission.TORUS, g.admission),
    )


def shear_linear(g: Generator) -> Generator:
    """Replace h_1 by -z_1 (1 - sum_k c_{(1,k)} z_2^k), keep h_2.

    The array keeps the coefficients c_{(1,k)}, k <= degree-1, of g; the
    evaluator realizes the full series by circle averaging.  The result
    is not ``TRUSTED``: ``require_admissible`` scans it where it is used.
    """
    profile = _sheared_profile_fn(g)
    keep = [(1, k) for k in range(1, g.degree)]
    return _sheared(
        g, "shear-linear", keep, lambda z, c: -z[..., 0] * profile(z[..., 1]), frozenset({1})
    )


def shear_quadratic(g: Generator) -> Generator:
    """Replace h_1 by -z_1 + c_{(0,2)} z_2^2, keep h_2 (scanned, like ``shear_linear``)."""
    return _sheared(
        g, "shear-quadratic", [(0, 2)], lambda z, c: -z[..., 0] + c[0] * z[..., 1] ** 2,
        frozenset({0, 1}),
    )

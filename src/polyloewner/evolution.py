"""Time evolution driven by piecewise-constant generator fields.

A field assigns a generator to every t >= 0: finitely many pieces, each
active up to its breakpoint, then a tail generator forever.  Transition
maps (``evolve_jet``, ``evolve_point``, ``limit_evaluator``) are
integrated with classic RK4 on points and on truncated jets.

Limit jets (``parametric_limit``) need no integration.  Every generator
has Dh(0) = -I, so on each constant piece the flow is conjugate to the
dilation z -> e^-t z through the Koenigs map K of h (DK.h = -K,
K = z + ...), and e^t phi_{0,t} is a short chain of jet compositions,
exact in the truncated jet ring.  The limit itself, T = inf, is the
same chain up to the tail's K (``search.objective`` reads it).  The RK4
jet path stays as the test oracle.  Each generator keeps its pair
(K, L) per degree.  Koenigs maps are equivariant under torus rotations
R: K of R h R^-1 is R K R^-1, so the pair of ``rotate_generator(g,
angles)`` is g's pair times the phase array exp(i(<alpha, angles> -
angles_j)), and a whole search over rotated catalog generators solves
one pair per catalog entry.  Limits and their normalization checks stay
on (n, B) arrays; a rotation's dict jet is never built here, only
``LimitResult.jet`` is.

Step placement: every integration between s and t uses the nodes
{k * step} intersected with (s, t), plus the field's breakpoints, plus
the endpoints.  Two runs over adjacent windows therefore hit the exact
same nodes as one run over the union, which makes the two-sided
semigroup identity hold to roundoff rather than to O(step^4).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .generators import Generator, MembershipError, membership_check
from .jets import DomainError, JetMap, Normalization, map_distance, rotation_phases
from .kernels import (
    BasisTables,
    array_to_map,
    basis_tables,
    compose_arrays,
    identity_array,
    mul_arrays,
    rk4_jet_arrays,
)

__all__ = [
    "IntegrationError",
    "HerglotzField",
    "evolve_point",
    "evolve_jet",
    "scaled_transition",
    "LimitResult",
    "parametric_limit",
    "limit_evaluator",
    "EvolutionResult",
    "evolve_report",
]

# tolerated uphill drift of the sup-norm before flagging divergence
_NORM_SLACK = 1e-9
# RK4 steps one integration may take; past it the node list alone would exhaust memory
_MAX_STEPS = 10**6


class IntegrationError(RuntimeError):
    """Numerical evolution left the polydisc or lost its invariants."""

    def __init__(self, message: str, time: Optional[float] = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class HerglotzField:
    """Piecewise-constant generator schedule on [0, infinity).

    ``pieces`` is a tuple of (until, generator): the k-th generator acts
    on [previous until, until).  ``tail`` acts from the last breakpoint
    onward.
    """

    pieces: tuple[tuple[float, Generator], ...]
    tail: Generator

    def __post_init__(self):
        dim = self.tail.dim
        prev = 0.0
        for until, gen in self.pieces:
            if gen.dim != dim:
                raise DomainError(f"mixed dimensions in field: {gen.dim} vs {dim}")
            if not (until > prev):
                raise DomainError("piece breakpoints must be positive and strictly increasing")
            prev = until

    @staticmethod
    def build(
        generators: Sequence[Generator],
        breakpoints: Sequence[float] = (),
        *,
        verify_membership: bool = True,
    ) -> "HerglotzField":
        """Field from m generators and m-1 increasing breakpoints.

        Untrusted generators without a passing certificate get a full
        membership check here, on ``REFERENCE_GRID`` at ``MEMBERSHIP_TOL``;
        a failure raises MembershipError so that no evolution ever runs on
        a non-admissible field.
        """
        gens = list(generators)
        brk = [float(b) for b in breakpoints]
        if not gens:
            raise DomainError("need at least one generator")
        if len(brk) != len(gens) - 1:
            raise DomainError(
                f"{len(gens)} generators need {len(gens) - 1} breakpoints, got {len(brk)}"
            )
        if verify_membership:
            seen: set[int] = set()
            for g in gens:
                if id(g) in seen:
                    continue
                seen.add(id(g))
                if g.trusted:
                    continue
                cert = g.certificate
                if cert is not None and cert.passed:
                    continue
                cert = membership_check(g)
                if not cert.passed:
                    raise MembershipError(
                        "field rejected: generator fails the admissibility inequality", cert
                    )
        return HerglotzField(
            pieces=tuple(zip(brk, gens[:-1])),
            tail=gens[-1],
        )

    @staticmethod
    def constant(generator: Generator, **kwargs) -> "HerglotzField":
        return HerglotzField.build([generator], [], **kwargs)

    @property
    def dim(self) -> int:
        return self.tail.dim

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(until for until, _ in self.pieces)

    def generator_at(self, t: float) -> Generator:
        for until, gen in self.pieces:
            if t < until:
                return gen
        return self.tail

    def generators(self) -> tuple[Generator, ...]:
        return tuple(g for _, g in self.pieces) + (self.tail,)

    def to_json(self) -> dict:
        entries = [
            {"until": until, "generator": gen.to_json()} for until, gen in self.pieces
        ]
        entries.append({"generator": self.tail.to_json()})
        return {"dim": self.dim, "schedule": entries}


def _step_times(s: float, t: float, step: float, breakpoints: Sequence[float]) -> np.ndarray:
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise DomainError(f"evolution times must be finite, got s={s}, t={t}")
    if (t - s) / step > _MAX_STEPS:
        raise DomainError(
            f"evolving from {s} to {t} at step {step} takes more than {_MAX_STEPS} steps"
        )
    if t < s:
        raise DomainError("backward evolution is not defined (need t >= s)")
    if t == s:
        return np.array([s], dtype=np.float64)
    first = math.floor(s / step) + 1
    last = math.ceil(t / step)
    nodes = [s, t]
    nodes.extend(step * k for k in range(first, last))
    nodes.extend(b for b in breakpoints if s < b < t)
    nodes.sort()
    merge_tol = 1e-12 + 1e-9 * step
    out = [nodes[0]]
    for u in nodes[1:]:
        if u - out[-1] > merge_tol:
            out.append(u)
    out[-1] = t
    return np.array(out, dtype=np.float64)


def evolve_point(
    field: HerglotzField,
    s: float,
    t: float,
    z: np.ndarray,
    step: float = 1e-2,
) -> np.ndarray:
    """Transition map phi_{s,t} applied to one point or a batch of points."""
    z = np.asarray(z, dtype=np.complex128)
    single = z.ndim == 1
    w = np.atleast_2d(z).copy()
    if w.shape[-1] != field.dim:
        raise DomainError(f"points have dim {w.shape[-1]}, field has dim {field.dim}")
    norms = np.max(np.abs(w), axis=-1)
    if np.any(norms >= 1.0):
        raise DomainError("initial points must lie strictly inside the polydisc")
    times = _step_times(s, t, step, field.breakpoints)
    for a, b in zip(times[:-1], times[1:]):
        h = b - a
        g = field.generator_at(0.5 * (a + b))
        k1 = g.evaluate(w)
        k2 = g.evaluate(w + 0.5 * h * k1)
        k3 = g.evaluate(w + 0.5 * h * k2)
        k4 = g.evaluate(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_norms = np.max(np.abs(w), axis=-1)
        if np.any(new_norms > norms + _NORM_SLACK) or np.any(new_norms >= 1.0):
            raise IntegrationError(
                "trajectory sup-norm stopped decreasing; evolution diverged", time=float(b)
            )
        norms = new_norms
    return w[0] if single else w


def _evolve_state(
    field: HerglotzField,
    s: float,
    t: float,
    state: np.ndarray,
    degree: int,
    step: float,
) -> np.ndarray:
    tables = basis_tables(field.dim, degree)
    times = _step_times(s, t, step, field.breakpoints)
    if len(times) < 2:
        return state.copy()
    mids = 0.5 * (times[:-1] + times[1:])
    hs = np.diff(times)
    # batch consecutive segments that share a generator into one kernel call;
    # the kernel needs h(0) = 0, and a description may leave |h(0)| <= 1e-8
    start = 0
    while start < len(mids):
        gen = field.generator_at(mids[start])
        stop = start + 1
        while stop < len(mids) and field.generator_at(mids[stop]) is gen:
            stop += 1
        arr = gen.jet_array(degree).copy()
        arr[:, 0] = 0.0
        state = rk4_jet_arrays(arr, state, hs[start:stop], tables)
        start = stop
    return state


def evolve_jet(
    field: HerglotzField,
    s: float,
    t: float,
    degree: int = 4,
    step: float = 1e-2,
) -> JetMap:
    """Truncated jet of the transition map phi_{s,t} at the origin."""
    tables = basis_tables(field.dim, degree)
    # a step past RK4's stability limit ends in a non-finite state, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        state = _evolve_state(field, s, t, identity_array(tables), degree, step)
    dev = np.max(np.abs(state[:, tables.linear] - math.exp(s - t) * np.eye(field.dim)))
    if not (dev <= 1e-6 and np.all(np.isfinite(state))):
        raise IntegrationError(
            f"transition jet lost its linear-part invariant (deviation {dev:.3e})", time=t
        )
    return array_to_map(state, tables, Normalization.GENERAL)


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


@dataclass(frozen=True)
class LimitResult:
    """Jet of e^T phi_{0,T} at the horizon T, with a Cauchy-style tail estimate.

    ``tail_bound`` is the coefficientwise distance between the scaled
    jets at horizon-1 and horizon; the scaled family converges at rate
    e^-t, so this overestimates the remaining drift roughly e-fold.
    ``step`` is the RK4 step the caller asked for; it is recorded but
    does not enter the Koenigs construction of the jet.
    """

    jet: JetMap
    tail_bound: float
    horizon: float
    degree: int
    step: float

    def to_json(self) -> dict:
        from .jets import map_to_json

        return {
            "jet": map_to_json(self.jet),
            "tail_bound": self.tail_bound,
            "horizon": self.horizon,
            "degree": self.degree,
            "step": self.step,
        }


def _rescaled(f: np.ndarray, tables: BasisTables, s: float) -> np.ndarray:
    """f^[s](z) = e^s f(e^-s z): degree-d coefficients times e^-(d-1)s.

    The factors never exceed 1, so no e^s is ever formed.
    """
    return f * np.exp(-(np.maximum(tables.degrees, 1) - 1) * s)


def _koenigs_pair(gen: Generator, tables: BasisTables) -> tuple[np.ndarray, np.ndarray]:
    """Koenigs map K of a generator and its inverse L, as (n, B) arrays.

    The pair is kept on the generator, one per degree.  A rotation's pair
    is its base's pair times the rotation phases (K of R h R^-1 is
    R K R^-1), never a solve of its own, so cold and warm calls agree to
    the bit.
    """
    pair = gen._koenigs_cache.get(tables.degree)
    if pair is None:
        if gen.rotation is None:
            pair = _solve_koenigs_pair(gen, tables)
        else:
            base, angles = gen.rotation
            phases = rotation_phases(tables.alpha_matrix, angles)
            pair = tuple(f * phases for f in _koenigs_pair(base, tables))
        for f in pair:
            f.flags.writeable = False
        gen._koenigs_cache[tables.degree] = pair
    return pair


def _solve_koenigs_pair(gen: Generator, tables: BasisTables) -> tuple[np.ndarray, np.ndarray]:
    """K and L by series: the solve behind ``_koenigs_pair``.

    With h = -z + g, DK.h = -K reads (d-1) K_d = [DK.g]_d on the degree-d
    layer, and [DK.g]_d involves only layers below d: each pass of the
    loop settles one more degree.  The reversion L <- L + z - K o L
    settles one more degree of K o L = z per pass in the same way.
    """
    ident = identity_array(tables)
    deg = tables.degrees
    g = np.where(deg >= 2, gen.jet_array(tables.degree), 0.0)
    solve = np.where(deg >= 2, 1.0 / np.maximum(deg - 1, 1), 0.0)
    col, factor = tables.deriv_gather
    K = ident
    for _ in range(tables.degree - 1):
        dK = (K[:, col] * factor).transpose(1, 0, 2)  # dK[j] = dK/dz_j
        DKg = mul_arrays(dK, g[:, None, :], tables).sum(axis=0)
        K = ident + solve * DKg
    L = ident
    for _ in range(tables.degree - 1):
        L = L + ident - compose_arrays(K, L, tables)
    return K, L


def _scaled_flow(
    field: HerglotzField, times: Sequence[float], tables: BasisTables, drift_until: float
) -> list[np.ndarray]:
    """Psi_t = e^t phi_{0,t} at increasing times, piece by piece.

    On a piece [a, b) driven by h, phi_{a,t} = L(e^-(t-a) K), hence
    Psi_t = L^[t] o K^[a] o Psi_a.  The first piece starts from the
    identity, so its inner map is K itself, with no composition.  A time
    of ``math.inf`` asks for the limit lim e^t phi_{0,t}: L^[t] tends to
    the identity, so it is the tail piece's K_tail^[T_last] o Psi_T_last,
    exact in the truncated jet ring (L^[inf] is never formed, since its
    rescaling would read 0 * inf).  The returned arrays may be a
    generator's cached K: read them, never write to them.

    Raises IntegrationError when the last jet lost its normalization:
    its linear part is off I, or the first-order linear drift that
    taking Dh(0) = -I leaves out, the sum over pieces of |Dh(0) + I|
    times the time each acts before the finite ``drift_until``, exceeds
    1e-6, or a coefficient is not finite.
    """
    pending = list(times)
    eye = np.eye(field.dim)
    psi: Optional[np.ndarray] = None  # None is the identity
    start, drift, out = 0.0, 0.0, []
    for end, gen in field.pieces + ((math.inf, field.tail),):
        K, L = _koenigs_pair(gen, tables)
        linear = gen.jet_array(tables.degree)[:, tables.linear]
        drift += float(np.max(np.abs(linear + eye))) * max(0.0, min(end, drift_until) - start)
        inner = K if psi is None else compose_arrays(_rescaled(K, tables, start), psi, tables)
        while pending and pending[0] <= end:
            t = pending.pop(0)
            out.append(
                inner if t == math.inf else compose_arrays(_rescaled(L, tables, t), inner, tables)
            )
        if not pending:
            break
        psi = compose_arrays(_rescaled(L, tables, end), inner, tables)
        start = end
    last = out[-1]
    dev = float(np.max(np.abs(last[:, tables.linear] - eye))) + drift
    if not (dev <= 1e-6 and np.all(np.isfinite(last))):
        raise IntegrationError(
            f"scaled limit lost normalization (deviation {dev:.3e})", time=drift_until
        )
    return out


def parametric_limit(
    field: HerglotzField,
    horizon: float = 15.0,
    degree: int = 4,
    step: float = 1e-2,
) -> LimitResult:
    """Jet of e^T phi_{0,T} at T = horizon, the field's normalized limit map.

    Built exactly from the Koenigs linearization of each constant piece
    (see the module docstring), so its cost does not grow with the
    horizon and e^T is never formed; ``tail_bound`` compares it with the
    same jet one time unit earlier.  ``step`` is validated and
    recorded but does not change the result; ``scaled_transition`` is
    the RK4 route to the same jet.
    """
    if not (math.isfinite(horizon) and horizon > 1.0):
        raise DomainError("horizon must be finite and exceed 1 to estimate the tail")
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive")
    tables = basis_tables(field.dim, degree)
    mid, end = _scaled_flow(field, (horizon - 1.0, horizon), tables, horizon)
    tail = float(np.max(np.abs(end - mid)))
    jet = array_to_map(end, tables, Normalization.UNIVALENT)
    return LimitResult(jet=jet, tail_bound=tail, horizon=horizon, degree=degree, step=step)


def limit_evaluator(
    field: HerglotzField,
    horizon: float = 15.0,
    step: float = 1e-2,
) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise evaluator of the limit map: z -> e^T phi_{0,T}(z).

    Unlike the truncated jet from parametric_limit, this stays accurate
    at points deep in the polydisc, where truncation error would swamp
    the growth-bound margins near extremal directions.
    """
    if not 0.0 < horizon < math.log(sys.float_info.max):
        raise DomainError(f"horizon must be positive with e^horizon finite, got {horizon}")
    scale = math.exp(horizon)

    def evaluate(z: np.ndarray) -> np.ndarray:
        return scale * evolve_point(field, 0.0, horizon, z, step=step)

    return evaluate


@dataclass(frozen=True)
class EvolutionResult:
    """Transition jet plus optional tracked points and an error estimate.

    ``error_estimate`` is a Richardson extrapolation figure: the jet is
    recomputed at half the step and the coefficientwise gap (about 15/16
    of the full-step error for a fourth-order scheme) is reported.
    """

    s: float
    t: float
    degree: int
    step: float
    jet: JetMap
    error_estimate: float
    points_in: Optional[np.ndarray] = None
    points_out: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        from .jets import map_to_json

        out = {
            "s": self.s,
            "t": self.t,
            "degree": self.degree,
            "step": self.step,
            "jet": map_to_json(self.jet),
            "error_estimate": self.error_estimate,
        }
        if self.points_in is not None:
            out["points"] = [
                {
                    "z": [{"re": c.real, "im": c.imag} for c in zin],
                    "phi": [{"re": c.real, "im": c.imag} for c in zout],
                }
                for zin, zout in zip(self.points_in, self.points_out)
            ]
        return out


def evolve_report(
    field: HerglotzField,
    s: float,
    t: float,
    points: Optional[np.ndarray] = None,
    degree: int = 4,
    step: float = 1e-2,
) -> EvolutionResult:
    jet = evolve_jet(field, s, t, degree=degree, step=step)
    finer = evolve_jet(field, s, t, degree=degree, step=0.5 * step)
    est = map_distance(jet, finer)
    pts_in = pts_out = None
    if points is not None:
        pts_in = np.atleast_2d(np.asarray(points, dtype=np.complex128))
        pts_out = evolve_point(field, s, t, pts_in, step=step)
    return EvolutionResult(
        s=s,
        t=t,
        degree=degree,
        step=step,
        jet=jet,
        error_estimate=est,
        points_in=pts_in,
        points_out=pts_out,
    )

"""Time evolution driven by piecewise-constant generator fields.

A field assigns a generator to every t >= 0: finitely many pieces, each
active up to its breakpoint, then a tail generator forever.
``HerglotzField.build`` admits its generators by the one rule
``generators.require_admissible``; this module makes no membership
decision of its own.

Jets need no integration.  Every generator has Dh(0) = -I, so on each
constant piece the flow is conjugate to the dilation z -> e^-t z through
the Koenigs map K of h (DK.h = -K, K = z + ...): phi_{a,t} = L(e^-(t-a) K)
with L = K^-1.  One chain of jet compositions over the pieces
(``_scaled_flow``), exact in the truncated jet ring, gives both the
transition jet phi_{s,t} of ``evolve_report`` and the normalized map
e^t phi_{0,t} of ``parametric_limit``; the limit itself, T = inf, is the
same chain up to the tail's K (``search.objective`` reads it).  The
chain reads arrays, not generators: per piece, its end, its pair (K, L)
and the linear part of h, asked for only when the piece is reached.
The Koenigs data belongs to the generator, and a field feeds the chain
from ``Generator.koenigs_pair`` (``_field_schedule``); the pointwise F
comes from ``Generator.koenigs_map``.  This module never looks inside a
generator.  A rotation's pair is its base's times phases, so a whole
search over rotated catalog generators solves one pair per catalog
entry, and ``search.objective`` feeds those products to the chain
without building a generator.  Each result's jet is a read-only view of
the array the chain ends with.

RK4 remains where no closed form is used.  ``evolve_jet`` and
``evolve_point`` integrate transition maps with one classic RK4 stepper
(``_rk4_steps``) that takes the velocity as a function: h o y, four
jet compositions a step, on truncated jets, and h(y) on points.  The jet
path is the chain's test oracle.
``limit_evaluator`` integrates RK4 only up to the last breakpoint T_last
and finishes with the tail's pointwise Koenigs map F where the tail
knows it (DF.h = -F, so F(phi_{T_last,T}(w)) = e^-(T-T_last) F(w)):
e^T phi_{0,T}(z) is e^T F^-1(e^-(T-T_last) F(w)), with F^-1 a guarded
Newton solve.  Tails without F, and points whose solve is refused, keep
RK4 to the horizon, which stays the test oracle.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .generators import Generator, _lu_solve, require_admissible
from .jets import DomainError, JetMap, Normalization, map_to_json
from .kernels import BasisTables, basis_tables, compose_arrays, identity_array

__all__ = [
    "IntegrationError",
    "HerglotzField",
    "evolve_point",
    "evolve_jet",
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
# Newton steps of the exact tail before a point falls back to RK4
_NEWTON_STEPS = 8
# an exact-tail solve is accepted when |F(v) - u| <= this * |u|
_NEWTON_RTOL = 1e-14
# past this tail length, e^-tail changes the exact tail far below roundoff
_TAIL_CAP = 200.0


class IntegrationError(RuntimeError):
    """Numerical evolution left the polydisc or lost its invariants."""

    def __init__(self, message: str, time: Optional[float] = None):
        super().__init__(message)
        self.time = time


def _check_breakpoints(breakpoints: Sequence[float]) -> None:
    """``DomainError`` unless the breakpoints are positive and strictly increasing."""
    prev = 0.0
    for until in breakpoints:
        if not (until > prev):
            raise DomainError("piece breakpoints must be positive and strictly increasing")
        prev = until


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
        for _, gen in self.pieces:
            if gen.dim != dim:
                raise DomainError(f"mixed dimensions in field: {gen.dim} vs {dim}")
        _check_breakpoints(self.breakpoints)

    @staticmethod
    def build(
        generators: Sequence[Generator], breakpoints: Sequence[float] = ()
    ) -> "HerglotzField":
        """Field from m generators and m-1 increasing breakpoints.

        The generators pass ``generators.require_admissible`` first, so no
        evolution runs on a field with a non-member (MembershipError).  The
        dataclass constructor is the unscreened path.
        """
        gens = list(generators)
        brk = [float(b) for b in breakpoints]
        if not gens:
            raise DomainError("need at least one generator")
        if len(brk) != len(gens) - 1:
            raise DomainError(
                f"{len(gens)} generators need {len(gens) - 1} breakpoints, got {len(brk)}"
            )
        require_admissible(gens)
        return HerglotzField(
            pieces=tuple(zip(brk, gens[:-1])),
            tail=gens[-1],
        )

    @staticmethod
    def constant(generator: Generator) -> "HerglotzField":
        return HerglotzField.build([generator], [])

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


def _check_window(s: float, t: float, step: float) -> None:
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise DomainError(f"evolution times must be finite, got s={s}, t={t}")
    if s < 0.0:
        raise DomainError(f"a field is a schedule on [0, inf), so s must be >= 0, got s={s}")
    if t < s:
        raise DomainError("backward evolution is not defined (need t >= s)")


def _step_times(s: float, t: float, step: float, breakpoints: Sequence[float]) -> np.ndarray:
    _check_window(s, t, step)
    if (t - s) / step > _MAX_STEPS:
        raise DomainError(
            f"evolving from {s} to {t} at step {step} takes more than {_MAX_STEPS} steps"
        )
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


def _rk4_steps(
    field: HerglotzField,
    s: float,
    t: float,
    step: float,
    y: np.ndarray,
    velocity: Callable[[Generator, np.ndarray], np.ndarray],
) -> Iterator[tuple[float, np.ndarray]]:
    """Classic RK4 for y' = velocity(h, y) on the nodes of ``_step_times``.

    h is the field's generator at the midpoint of each step.  Yields the
    node and the new state after every step; s == t yields nothing.
    """
    times = _step_times(s, t, step, field.breakpoints)
    for a, b in zip(times[:-1], times[1:]):
        h = b - a
        g = field.generator_at(0.5 * (a + b))
        k1 = velocity(g, y)
        k2 = velocity(g, y + 0.5 * h * k1)
        k3 = velocity(g, y + 0.5 * h * k2)
        k4 = velocity(g, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield float(b), y


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
    for b, w in _rk4_steps(field, s, t, step, w, Generator.evaluate):
        new_norms = np.max(np.abs(w), axis=-1)
        if np.any(new_norms > norms + _NORM_SLACK) or np.any(new_norms >= 1.0):
            raise IntegrationError(
                "trajectory sup-norm stopped decreasing; evolution diverged", time=b
            )
        norms = new_norms
    return w[0] if single else w


def evolve_jet(
    field: HerglotzField,
    s: float,
    t: float,
    degree: int = 4,
    step: float = 1e-2,
) -> JetMap:
    """Truncated jet of the transition map phi_{s,t} at the origin.

    RK4 on the (n, B) arrays with the velocity h o y, each generator's
    array read once, on the first step it drives.  A description may leave
    |h(0)| <= 1e-8 and a composition needs y(0) = 0, so that constant term
    is dropped; y(0) then stays 0 exactly.
    """
    tables = basis_tables(field.dim, degree)
    zeroed: dict[int, np.ndarray] = {}

    def velocity(g: Generator, y: np.ndarray) -> np.ndarray:
        if id(g) not in zeroed:
            zeroed[id(g)] = np.where(tables.degrees > 0, g.jet_array(degree), 0.0)
        return compose_arrays(zeroed[id(g)], y, tables)

    state = identity_array(tables)
    # a step past RK4's stability limit ends in a non-finite state, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for _, state in _rk4_steps(field, s, t, step, state, velocity):
            pass
    dev = np.max(np.abs(state[:, tables.linear] - math.exp(s - t) * np.eye(field.dim)))
    if not (dev <= 1e-6 and np.all(np.isfinite(state))):
        raise IntegrationError(
            f"transition jet lost its linear-part invariant (deviation {dev:.3e})", time=t
        )
    return JetMap.from_array(state)


@dataclass(frozen=True)
class LimitResult:
    """Jet of e^T phi_{0,T} at the horizon T, with a Cauchy-style tail estimate.

    ``tail_bound`` is the coefficientwise distance between the scaled
    jets at horizon-1 and horizon; the scaled family converges at rate
    e^-t, so this overestimates the remaining drift roughly e-fold.
    ``step`` is the RK4 step the caller asked for; it is recorded but
    does not enter the Koenigs construction of the jet.  ``jet`` is a
    read-only view of the chain's array at the horizon.
    """

    jet: JetMap
    tail_bound: float
    horizon: float
    degree: int
    step: float

    def to_json(self) -> dict:
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


# what the chain reads of one piece: (K, L, linear part of h), asked for only when used
_PieceArrays = Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _generator_arrays(gen: Generator, tables: BasisTables) -> _PieceArrays:
    """The chain's feed from a generator: its Koenigs pair and linear part on ``tables``."""
    degree = tables.degree
    return lambda: (*gen.koenigs_pair(degree), gen.jet_array(degree)[:, tables.linear])


def _field_schedule(
    field: HerglotzField, tables: BasisTables
) -> list[tuple[float, _PieceArrays]]:
    """(end, arrays) per piece of the field, the tail ending at ``math.inf``."""
    return [
        (end, _generator_arrays(gen, tables))
        for end, gen in field.pieces + ((math.inf, field.tail),)
    ]


def _scaled_flow(
    schedule: Iterable[tuple[float, _PieceArrays]],
    s: float,
    times: Sequence[float],
    tables: BasisTables,
    drift_until: float,
) -> tuple[list[np.ndarray], float]:
    """Psi_t = e^(t-s) phi_{s,t} at increasing times t > s, piece by piece.

    ``schedule`` lists each piece as (end, arrays) in order, the last
    ending at ``math.inf``: the piece acts from the previous end (or 0)
    up to its own, and arrays() returns its Koenigs pair (K, L) and the
    linear part Dh(0) of its generator, on the basis of ``tables``.  A
    field feeds it through ``_field_schedule``, and a search objective
    with catalog rotations feeds arrays directly.  A piece that ends at or
    before s is skipped without calling arrays(), so its pair is never
    solved.

    On a piece [a, b) driven by h, phi_{a,t} = L(e^-(t-a) K), hence
    Psi_t = L^[t-s] o K^[a-s] o Psi_a.  The piece that holds s starts
    from the identity, so its inner map is K itself, with no composition.
    A time of ``math.inf`` asks for the limit lim e^(t-s) phi_{s,t}:
    L^[t-s] tends to the identity, so it is the tail piece's
    K_tail^[T_last-s] o Psi_T_last, exact in the truncated jet ring
    (L^[inf] is never formed, since its rescaling would read 0 * inf).
    The returned arrays may be a K that arrays() returned, which may be
    a generator's cached pair: read them, never write to them.

    Also returns the first-order linear drift that taking Dh(0) = -I
    leaves out: the sum over pieces of |Dh(0) + I| times the time each
    acts between s and the finite ``drift_until``.  Raises
    IntegrationError when the last jet lost its normalization: its
    linear part is off I, or that drift exceeds 1e-6, or a coefficient
    is not finite.
    """
    pending = list(times)
    eye = np.eye(tables.dim)
    psi: Optional[np.ndarray] = None  # None is the identity
    start, drift, out = s, 0.0, []
    for end, arrays in schedule:
        if end <= s:
            continue
        K, L, linear = arrays()
        drift += float(np.abs(linear + eye).max()) * max(0.0, min(end, drift_until) - start)
        inner = K if psi is None else compose_arrays(_rescaled(K, tables, start - s), psi, tables)
        while pending and pending[0] <= end:
            t = pending.pop(0)
            out.append(
                inner
                if t == math.inf
                else compose_arrays(_rescaled(L, tables, t - s), inner, tables)
            )
        if not pending:
            break
        psi = compose_arrays(_rescaled(L, tables, end - s), inner, tables)
        start = end
    last = out[-1]
    dev = float(np.abs(last[:, tables.linear] - eye).max()) + drift
    if not (dev <= 1e-6 and np.isfinite(last).all()):
        raise IntegrationError(
            f"scaled flow lost normalization (deviation {dev:.3e})", time=drift_until
        )
    return out, drift


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
    recorded but does not change the result; e^T times ``evolve_jet``
    from 0 to T is the RK4 route to the same jet, and the tests keep it
    as the oracle.
    """
    if not (math.isfinite(horizon) and horizon > 1.0):
        raise DomainError("horizon must be finite and exceed 1 to estimate the tail")
    _check_window(0.0, horizon, step)
    tables = basis_tables(field.dim, degree)
    schedule = _field_schedule(field, tables)
    (mid, end), _ = _scaled_flow(schedule, 0.0, (horizon - 1.0, horizon), tables, horizon)
    tail = float(np.max(np.abs(end - mid)))
    jet = JetMap.from_array(end, Normalization.UNIVALENT)
    return LimitResult(jet=jet, tail_bound=tail, horizon=horizon, degree=degree, step=step)


def _exact_tail(
    F: Callable, DF: Callable, w: np.ndarray, tail: float
) -> tuple[np.ndarray, np.ndarray]:
    """x = e^tail F^-1(e^-tail F(w)) for rows of points w, and where it holds.

    Newton solves F(s x) = s F(w), s = e^-tail, from x = F(w); working in
    x rather than v = s x keeps every quantity the size of F(w).  A row is
    accepted once its residual |F(v) - u|, u = s F(w), is finite and at
    most ``_NEWTON_RTOL`` |u| with v inside the polydisc; a row whose
    Jacobian is singular or not finite, or that is not accepted within
    ``_NEWTON_STEPS``, is refused.  One ``generators._lu_solve`` per
    Newton step gives both the step and det DF.  Tails past ``_TAIL_CAP``
    are solved at the cap, which keeps s a normal float and changes x
    below roundoff.
    """
    s = math.exp(-min(tail, _TAIL_CAP))
    target = np.asarray(F(w), dtype=np.complex128)
    size = np.max(np.abs(target), axis=-1)
    x = target.copy()
    accepted = np.zeros(len(w), dtype=bool)
    rows = np.arange(len(w))
    with np.errstate(all="ignore"):
        for k in range(_NEWTON_STEPS + 1):
            v = s * x[rows]
            res = (np.asarray(F(v), dtype=np.complex128) - s * target[rows]) / s
            err = np.max(np.abs(res), axis=-1)
            done = err <= _NEWTON_RTOL * size[rows]
            accepted[rows[done & (np.max(np.abs(v), axis=-1) < 1.0)]] = True
            going = ~done & np.isfinite(err)
            if k == _NEWTON_STEPS or not going.any():
                break
            rows, v, res = rows[going], v[going], res[going]
            delta, det = _lu_solve(np.asarray(DF(v), dtype=np.complex128), res)
            regular = np.isfinite(det) & (det != 0)
            rows = rows[regular]
            x[rows] -= delta[regular]
    return x, accepted


def limit_evaluator(
    field: HerglotzField,
    horizon: float = 15.0,
    step: float = 1e-2,
) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise evaluator of the limit map: z -> e^T phi_{0,T}(z).

    Unlike the truncated jet from parametric_limit, this stays accurate
    at points deep in the polydisc, where truncation error would swamp
    the growth-bound margins near extremal directions.

    RK4 runs from 0 to the last breakpoint T_last (no steps when there is
    none).  When T > T_last and the tail knows its Koenigs map F (catalog
    generators, their rotations, the dilation, ``from_starlike``), the
    rest is exact: e^T F^-1(e^-(T-T_last) F(w)) by ``_exact_tail``, with
    no e^T formed.  Every other case, and every point whose Newton solve
    is refused, integrates RK4 on to T and scales by e^T, as
    ``evolve_point`` does for the whole span.
    """
    if not 0.0 < horizon < math.log(sys.float_info.max):
        raise DomainError(f"horizon must be positive with e^horizon finite, got {horizon}")
    scale = math.exp(horizon)
    last = field.breakpoints[-1] if field.pieces else 0.0
    pair = field.tail.koenigs_map() if horizon > last else None

    def evaluate(z: np.ndarray) -> np.ndarray:
        if pair is None:
            return scale * evolve_point(field, 0.0, horizon, z, step=step)
        w = evolve_point(field, 0.0, last, z, step=step)
        points = np.atleast_2d(w)
        x, accepted = _exact_tail(*pair, points, horizon - last)
        out = math.exp(last) * x
        if not accepted.all():
            rest = ~accepted
            out[rest] = scale * evolve_point(field, last, horizon, points[rest], step=step)
        return out[0] if w.ndim == 1 else out

    return evaluate


@dataclass(frozen=True)
class EvolutionResult:
    """Transition jet phi_{s,t} from the exact Koenigs chain, with its error bound.

    ``error_estimate`` is the linear drift that the chain leaves out by
    taking Dh(0) = -I on every piece, the sum over pieces of
    |Dh(0) + I| times the time each acts in [s, t]; it is 0 for catalog
    pieces.  ``step`` is the RK4 step the caller asked for; it is
    validated and recorded but does not enter the chain, and
    ``evolve_jet`` at that step is the RK4 route to the same jet.
    ``jet`` is a read-only view of the chain's array at t.
    """

    s: float
    t: float
    degree: int
    step: float
    jet: JetMap
    error_estimate: float

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "degree": self.degree,
            "step": self.step,
            "jet": map_to_json(self.jet),
            "error_estimate": self.error_estimate,
        }


def evolve_report(
    field: HerglotzField,
    s: float,
    t: float,
    degree: int = 4,
    step: float = 1e-2,
) -> EvolutionResult:
    """phi_{s,t} = e^-(t-s) Psi_t from the Koenigs chain started at s; s == t is the identity."""
    tables = basis_tables(field.dim, degree)
    _check_window(s, t, step)
    if t == s:
        state, drift = identity_array(tables), 0.0
    else:
        (psi,), drift = _scaled_flow(_field_schedule(field, tables), s, (t,), tables, t)
        state = math.exp(s - t) * psi
    return EvolutionResult(
        s=s,
        t=t,
        degree=degree,
        step=step,
        jet=JetMap.from_array(state),
        error_estimate=drift,
    )

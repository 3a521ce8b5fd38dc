"""Derivative-free maximization of limit-map coefficients over field families.

The search optimizes Re A_alpha of component 1 of the limit map over a
parameterized family of piecewise-constant generator schedules.  Every
parameter vector decodes to constructions that are admissible for any
parameter values (catalog rotations, product forms, convex combinations),
so every objective evaluation is a certified lower bound for the
coefficient maximum over the whole class.

The objective is the exact T = inf limit lim e^T phi_{0,T}, read from
the Koenigs chain of the schedule, so ``best_value`` carries no horizon
error.  ``horizon`` only bounds where breakpoints may fall and the window
of the linear-drift check; ``certified_value`` re-evaluates the best
field with ``parametric_limit`` at ``certify_horizon``, a finite-horizon
cross-check whose ``certified_tail`` is its tail estimate.

The objective decodes a catalog rotation straight into the arrays the
chain reads, with no generator or field built: the catalog generator's
cached Koenigs pair and array times the rotation phases, the array
screened by the ``Generator`` constructor's own check.  Product forms
and convex combinations need a Koenigs solve each, so they are built as
generators and feed the chain from them.  ``decode_field`` builds the
whole field, for ``best_field`` and the ``parametric_limit`` cross-check,
and the tests hold the objective to it bit for bit.

The optimizer is deterministic for a fixed seed: a canonical sweep over
catalog entries first, then seeded random restarts refined by coordinate
ascent with shrinking steps.  ``coordinate-ascent+polish`` stops those at
four fifths of the budget and spends the rest on a Nelder-Mead polish of
the continuous parameters of the best point.  Repeated parameter vectors
are served from a cache and do not consume budget.

A parameter vector is a pair (ints, floats).  Each family declares once
how one schedule piece lays out its ints and the kinds of its floats
(``_piece_layout``), and the breakpoints close the float vector.  The
decoders, the canonical sweep, the random starts and the length check all
read that declaration, and one table per float kind (``_kind_table``)
holds its sampling range, its clip rule and the first and smallest step
of coordinate ascent, which also sizes the Nelder-Mead simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import catalog_generator, catalog_names, minimal_dimension
from .evolution import (
    HerglotzField,
    IntegrationError,
    _check_breakpoints,
    _generator_arrays,
    _PieceArrays,
    _scaled_flow,
    parametric_limit,
)
from .generators import (
    AtomicMeasure,
    Generator,
    _rotation_phases,
    _screen_array,
    convex_combination,
    product_form,
    rotate_generator,
)
from .jets import DomainError, check_jet_shape
from .kernels import basis_tables

__all__ = [
    "FAMILIES",
    "SearchSpace",
    "Params",
    "decode_field",
    "objective",
    "SearchResult",
    "maximize",
]

FAMILIES = ("catalog-rotation", "product-form", "convex-combo")
_METHODS = ("coordinate-ascent", "coordinate-ascent+polish")

# value ties closer than this are broken toward the smaller parameter key
_TIE_TOL = 1e-9
# atoms per product-form measure, and parts per convex combination
_ATOMS = 2
_COMBO_SIZE = 2

Params = tuple[tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True)
class SearchSpace:
    """What to optimize: target coefficient, field family, schedule shape.

    ``horizon`` bounds the breakpoints and the window of the objective's
    linear-drift check; the objective itself is the T = inf limit.
    ``certify_horizon`` is where ``maximize`` cross-checks its best field
    with ``parametric_limit``.  Both must be finite, 1 < horizon <=
    certify_horizon.
    """

    dim: int
    alpha: tuple[int, ...]
    family: str = "catalog-rotation"
    pieces: int = 1
    names: tuple[str, ...] = ()
    horizon: float = 12.0
    certify_horizon: float = 15.0
    degree: int = 3

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError("search needs dim >= 2")
        check_jet_shape(self.dim, self.degree)
        alpha = tuple(int(a) for a in self.alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise DomainError(f"alpha must be {self.dim} nonnegative integers")
        if sum(alpha) < 2 or sum(alpha) > self.degree:
            raise DomainError("target degree must lie in [2, jet degree]")
        object.__setattr__(self, "alpha", alpha)
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.pieces < 1:
            raise DomainError("need at least one schedule piece")
        for name in ("horizon", "certify_horizon"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (1.0 < self.horizon <= self.certify_horizon):
            raise DomainError("need 1 < horizon <= certify_horizon")
        names = tuple(self.names) or tuple(
            n for n in catalog_names() if n.startswith("H") and minimal_dimension(n) <= self.dim
        )
        for n in names:
            if minimal_dimension(n) > self.dim:
                raise DomainError(f"{n} needs dim >= {minimal_dimension(n)}")
        object.__setattr__(self, "names", names)


# -- parameter layout --------------------------------------------------------
#
# Params are a pair (ints, floats).  Every piece of the schedule takes the
# same block of ints and floats, which ``_piece_layout`` declares once per
# family; the pieces - 1 breakpoints close the float vector.  Per piece:
#   catalog-rotation: ints  = one name index
#                     floats = dim angles
#   product-form:     ints  = dim selectors
#                     floats = per coordinate, _ATOMS * (angle, raw weight)
#   convex-combo:     ints  = _COMBO_SIZE name indices
#                     floats = per part, dim angles then one raw weight


def _piece_layout(space: SearchSpace) -> tuple[int, tuple[str, ...]]:
    """How many ints one piece takes, and the kinds of its floats."""
    n = space.dim
    if space.family == "catalog-rotation":
        return 1, ("angle",) * n
    if space.family == "product-form":
        return n, ("angle", "weight") * (n * _ATOMS)
    return _COMBO_SIZE, (("angle",) * n + ("weight",)) * _COMBO_SIZE


def _float_kinds(space: SearchSpace) -> tuple[str, ...]:
    return _piece_layout(space)[1] * space.pieces + ("break",) * (space.pieces - 1)


def _int_count(space: SearchSpace) -> int:
    return _piece_layout(space)[0] * space.pieces


def _int_options(space: SearchSpace) -> int:
    return space.dim if space.family == "product-form" else len(space.names)


def _kind_table(space: SearchSpace) -> dict[str, tuple]:
    """Per float kind: (sampling range, clip range, first step, smallest step).

    A clip range of None wraps the value modulo 2 pi.  A breakpoint's
    ranges and steps scale with the horizon.
    """
    h = space.horizon
    return {
        "angle": ((0.0, 2.0 * math.pi), None, 0.8, 1e-3),
        "weight": ((0.05, 1.0), (0.05, 1.0), 0.25, 5e-3),
        "break": ((0.05 * h, 0.95 * h), (0.02 * h, 0.98 * h), h / 8.0, 1e-3 * h),
    }


def _clip_float(clip: Optional[tuple[float, float]], x: float) -> float:
    if clip is None:
        return float(x % (2.0 * math.pi))
    return float(min(clip[1], max(clip[0], x)))


def _normalized(raw: Sequence[float]) -> list[float]:
    total = sum(raw)
    return [r / total for r in raw]


def _decode_breaks(tail: Sequence[float]) -> list[float]:
    breaks = sorted(float(b) for b in tail)
    for i in range(1, len(breaks)):
        if breaks[i] <= breaks[i - 1]:
            breaks[i] = breaks[i - 1] + 1e-6
    return breaks


def _chunks(seq: Sequence, size: int, count: int) -> list:
    """The first ``count`` consecutive slices of ``seq``, each ``size`` long."""
    return [seq[k * size : (k + 1) * size] for k in range(count)]


def _catalog_base(space: SearchSpace, index: int) -> Generator:
    name = space.names[index % len(space.names)]
    return catalog_generator(name, dim=space.dim, degree=space.degree)


def _rotated(space: SearchSpace, index: int, angles: Sequence[float]) -> Generator:
    return rotate_generator(_catalog_base(space, index), angles)


def _piece_generator(space: SearchSpace, ints: Sequence[int], floats: Sequence[float]) -> Generator:
    """The generator of one piece, from that piece's ints and floats."""
    n = space.dim
    if space.family == "catalog-rotation":
        return _rotated(space, ints[0], floats)
    if space.family == "product-form":
        measures = [
            AtomicMeasure(tuple(zip(c[0::2], _normalized(c[1::2]))))
            for c in _chunks(floats, 2 * _ATOMS, n)
        ]
        return product_form([i % n for i in ints], measures, degree=space.degree)
    parts = _chunks(floats, n + 1, _COMBO_SIZE)
    gens = [_rotated(space, i, part[:n]) for i, part in zip(ints, parts)]
    return convex_combination(gens, _normalized([part[n] for part in parts]))


def _decode_piece(space: SearchSpace, ints: Sequence[int], floats: Sequence[float]) -> _PieceArrays:
    """The Koenigs chain's feed for one piece, from that piece's ints and floats.

    A catalog rotation builds no generator.  Its arrays are those of
    ``_rotated``: for angles that are all zero, the catalog generator's
    own; otherwise its array times the rotation phases, screened by the
    ``Generator`` constructor's ``_screen_array``, with its cached Koenigs
    pair times the same phases.  A product form or a convex combination
    needs a Koenigs solve of its own, so it is built as a generator and
    fed from it.
    """
    tables = basis_tables(space.dim, space.degree)
    if space.family != "catalog-rotation":
        return _generator_arrays(_piece_generator(space, ints, floats), tables)
    base = _catalog_base(space, ints[0])
    if not any(floats):
        return _generator_arrays(base, tables)
    phases = _rotation_phases(tables, floats)
    h = base.jet_array(space.degree) * phases
    _screen_array(h, tables)
    K, L = base.koenigs_pair(space.degree)
    return lambda: (K * phases, L * phases, h[:, tables.linear])


def _decode(space: SearchSpace, params: Params, piece) -> tuple[list, list[float]]:
    """``piece(space, ints, floats)`` of every schedule piece, and the breakpoints."""
    ints, floats = params
    if len(ints) != _int_count(space) or len(floats) != len(_float_kinds(space)):
        raise DomainError("parameter vector does not match the space layout")
    ni, kinds = _piece_layout(space)
    m, nf = space.pieces, len(kinds)
    pieces = zip(_chunks(ints, ni, m), _chunks(floats, nf, m))
    return [piece(space, i, f) for i, f in pieces], _decode_breaks(floats[m * nf :])


def decode_field(space: SearchSpace, params: Params) -> HerglotzField:
    """Instantiate the schedule a parameter vector describes."""
    return HerglotzField.build(*_decode(space, params, _piece_generator))


def objective(space: SearchSpace, params: Params) -> float:
    """Re A_alpha of component 1 of the limit map lim e^T phi_{0,T}, T = inf.

    The limit is exact: the Koenigs chain of the schedule up to its tail
    generator, with no horizon.  The chain is fed per piece by
    ``_decode_piece``, so catalog rotations build no objects; the
    breakpoints pass the field's check.  Every generator a search decodes
    is ``TRUSTED``, so the admissibility screen of ``decode_field`` has
    nothing to scan.  ``space.horizon`` is only the window of the
    linear-drift normalization check, which fails with IntegrationError
    as ``parametric_limit`` does at that horizon.
    """
    tables = basis_tables(space.dim, space.degree)
    feeds, breaks = _decode(space, params, _decode_piece)
    _check_breakpoints(breaks)
    schedule = zip(breaks + [math.inf], feeds)
    (end,), _ = _scaled_flow(schedule, 0.0, (math.inf,), tables, space.horizon)
    return float(end[0, tables.index[space.alpha]].real)


# -- optimizer ----------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class SearchResult:
    space: SearchSpace
    method: str
    seed: int
    budget: int
    evaluations: int
    best_value: float
    certified_value: float
    certified_tail: float
    best_params: Params
    history: tuple[tuple[int, float], ...]

    def best_field(self) -> HerglotzField:
        return decode_field(self.space, self.best_params)

    def to_json(self) -> dict:
        return {
            "family": self.space.family,
            "alpha": list(self.space.alpha),
            "dim": self.space.dim,
            "method": self.method,
            "seed": self.seed,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "best_value": self.best_value,
            "certified_value": self.certified_value,
            "certified_tail": self.certified_tail,
            "certify_horizon": self.space.certify_horizon,
            "best_params": {
                "ints": list(self.best_params[0]),
                "floats": list(self.best_params[1]),
            },
            "best_field": self.best_field().to_json(),
            "history": [{"evaluation": e, "value": v} for e, v in self.history],
        }

    def history_csv_rows(self) -> list[tuple]:
        return [(e, v) for e, v in self.history]


def _canonical_params(space: SearchSpace) -> list[Params]:
    """The starts of the canonical sweep, every piece alike, breaks evenly spaced."""
    ni, kinds = _piece_layout(space)
    m = space.pieces
    breaks = tuple(space.horizon * k / m for k in range(1, m))
    if space.family == "product-form":
        return [
            (
                tuple((k + shift) % space.dim for k in range(ni)) * m,
                tuple(phase if k == "angle" else 1.0 for k in kinds) * m + breaks,
            )
            for shift in range(space.dim)
            for phase in (0.0, math.pi)
        ]
    floats = tuple(1.0 if k == "weight" else 0.0 for k in kinds) * m + breaks
    return [((idx,) * ni * m, floats) for idx in range(len(space.names))]


def _sample_params(space: SearchSpace, rng: np.random.Generator) -> Params:
    table = _kind_table(space)
    ints = tuple(int(v) for v in rng.integers(0, _int_options(space), size=_int_count(space)))
    return ints, tuple(float(rng.uniform(*table[k][0])) for k in _float_kinds(space))


def maximize(
    space: SearchSpace,
    budget: int = 500,
    seed: int = 0,
    method: str = "coordinate-ascent",
) -> SearchResult:
    """Budgeted coefficient maximization; deterministic for a fixed seed."""
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {_METHODS}")
    if budget < 1:
        raise DomainError("budget must be positive")
    kinds = _float_kinds(space)
    table = _kind_table(space)
    clips, first_steps, last_steps = zip(*(table[k][1:] for k in kinds))
    rng = np.random.default_rng(seed)
    cache: dict[Params, float] = {}
    polished = method.endswith("polish")
    # the sweep and the restarts stop here; a polish gets the last fifth of the budget
    limit = budget - budget // 5 if polished else budget
    evals = 0
    last_error: Optional[Exception] = None
    best_val = -math.inf
    best_params: Optional[Params] = None
    best_key: Optional[tuple] = None
    history: list[tuple[int, float]] = []

    def flat_key(params: Params) -> tuple:
        return params[0] + params[1]

    def consider(params: Params, val: float):
        nonlocal best_val, best_params, best_key
        key = flat_key(params)
        take = val > best_val + _TIE_TOL or (
            val > best_val - _TIE_TOL and (best_key is None or key < best_key)
        )
        if take:
            best_val = val if best_params is None else max(best_val, val)
            best_params, best_key = params, key
            history.append((evals, best_val))

    def run(params: Params) -> float:
        nonlocal evals, last_error
        if params in cache:
            return cache[params]
        if evals >= limit:
            raise _BudgetExhausted
        evals += 1
        try:
            val = objective(space, params)
        except (DomainError, IntegrationError) as exc:
            val = -math.inf
            last_error = exc
        cache[params] = val
        consider(params, val)
        return val

    def clipped(floats: tuple[float, ...], j: int, x: float) -> tuple[float, ...]:
        out = list(floats)
        out[j] = _clip_float(clips[j], x)
        return tuple(out)

    def ascent(start: Params):
        cur = start
        cur_val = run(cur)
        deltas = np.array(first_steps, dtype=np.float64)
        floor = np.array(last_steps, dtype=np.float64)
        options = _int_options(space)
        while True:
            improved = False
            for i in range(len(cur[0])):
                best_alt, alt_val = None, cur_val
                for opt in range(options):
                    if opt == cur[0][i]:
                        continue
                    cand = (cur[0][:i] + (opt,) + cur[0][i + 1 :], cur[1])
                    v = run(cand)
                    if v > alt_val + 1e-12:
                        best_alt, alt_val = cand, v
                if best_alt is not None:
                    cur, cur_val, improved = best_alt, alt_val, True
            for j in range(len(cur[1])):
                best_alt, alt_val = None, cur_val
                for sign in (1.0, -1.0):
                    cand = (cur[0], clipped(cur[1], j, cur[1][j] + sign * deltas[j]))
                    if cand[1] == cur[1]:
                        continue
                    v = run(cand)
                    if v > alt_val + 1e-12:
                        best_alt, alt_val = cand, v
                if best_alt is not None:
                    cur, cur_val, improved = best_alt, alt_val, True
            if not improved:
                deltas *= 0.5
                if np.all(deltas < floor):
                    return

    def polish(start: Params):
        # Nelder-Mead on the continuous block, categorical part frozen.
        ints = start[0]

        def f(x: np.ndarray) -> float:
            return run((ints, tuple(_clip_float(c, xj) for c, xj in zip(clips, x))))

        simplex = [np.array(start[1], dtype=np.float64)]
        for j in range(len(kinds)):
            v = simplex[0].copy()
            v[j] += 0.5 * first_steps[j]
            simplex.append(v)
        vals = [f(v) for v in simplex]
        for _ in range(4 * budget):
            order = sorted(range(len(simplex)), key=lambda i: -vals[i])
            simplex = [simplex[i] for i in order]
            vals = [vals[i] for i in order]
            if vals[0] - vals[-1] < 1e-10:
                return
            centroid = np.mean(simplex[:-1], axis=0)
            refl = centroid + (centroid - simplex[-1])
            fr = f(refl)
            if fr > vals[0]:
                exp = centroid + 2.0 * (centroid - simplex[-1])
                fe = f(exp)
                simplex[-1], vals[-1] = (exp, fe) if fe > fr else (refl, fr)
            elif fr > vals[-2]:
                simplex[-1], vals[-1] = refl, fr
            else:
                contr = centroid + 0.5 * (simplex[-1] - centroid)
                fc = f(contr)
                if fc > vals[-1]:
                    simplex[-1], vals[-1] = contr, fc
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        vals[i] = f(simplex[i])

    try:
        for params in _canonical_params(space):
            run(params)
        while evals < limit:
            ascent(_sample_params(space, rng))
    except _BudgetExhausted:
        pass
    if polished and best_params is not None:
        limit = budget
        try:
            polish(best_params)
        except _BudgetExhausted:
            pass

    if best_params is None:
        # only a failed evaluation leaves best_params unset
        raise DomainError(f"all {evals} evaluations failed, the last with: {last_error}")
    certified = parametric_limit(
        decode_field(space, best_params),
        horizon=space.certify_horizon,
        degree=space.degree,
    )
    certified_value = float(certified.jet.coefficient(0, space.alpha).real)
    return SearchResult(
        space=space,
        method=method,
        seed=seed,
        budget=budget,
        evaluations=evals,
        best_value=best_val,
        certified_value=certified_value,
        certified_tail=certified.tail_bound,
        best_params=best_params,
        history=tuple(history),
    )

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

The optimizer is deterministic for a fixed seed: a canonical sweep over
catalog entries first, then seeded random restarts refined by coordinate
ascent with shrinking steps, optionally finished by a Nelder-Mead polish
on the continuous parameters.  Repeated parameter vectors are served
from a cache and do not consume budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import catalog_generator, catalog_names, minimal_dimension
from .evolution import HerglotzField, IntegrationError, _scaled_flow, parametric_limit
from .generators import AtomicMeasure, Generator, convex_combination, product_form, rotate_generator
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
# Params are a pair (ints, floats) with a family-specific fixed layout:
#   catalog-rotation: ints  = name index per piece
#                     floats = dim angles per piece, then pieces-1 breaks
#   product-form:     ints  = dim selectors per piece
#                     floats = per piece, per coordinate, _ATOMS * (angle, raw
#                              weight); then breaks
#   convex-combo:     ints  = _COMBO_SIZE name indices per piece
#                     floats = per piece, per part, dim angles then one raw
#                              weight; then breaks


def _float_kinds(space: SearchSpace) -> tuple[str, ...]:
    kinds: list[str] = []
    for _ in range(space.pieces):
        if space.family == "catalog-rotation":
            kinds.extend(["angle"] * space.dim)
        elif space.family == "product-form":
            for _coord in range(space.dim):
                for _atom in range(_ATOMS):
                    kinds.extend(["angle", "weight"])
        else:
            for _part in range(_COMBO_SIZE):
                kinds.extend(["angle"] * space.dim)
                kinds.append("weight")
    kinds.extend(["break"] * (space.pieces - 1))
    return tuple(kinds)


def _int_count(space: SearchSpace) -> int:
    if space.family == "catalog-rotation":
        return space.pieces
    if space.family == "product-form":
        return space.pieces * space.dim
    return space.pieces * _COMBO_SIZE


def _int_options(space: SearchSpace) -> int:
    return space.dim if space.family == "product-form" else len(space.names)


def _clip_float(space: SearchSpace, kind: str, x: float) -> float:
    if kind == "angle":
        return float(x % (2.0 * math.pi))
    if kind == "weight":
        return float(min(1.0, max(0.05, x)))
    return float(min(0.98 * space.horizon, max(0.02 * space.horizon, x)))


_DELTA0 = {"angle": 0.8, "weight": 0.25}
_DELTA_MIN = {"angle": 1e-3, "weight": 5e-3}


def _initial_deltas(space: SearchSpace, kinds: Sequence[str]) -> np.ndarray:
    return np.array(
        [_DELTA0.get(k, space.horizon / 8.0) for k in kinds], dtype=np.float64
    )


def _min_deltas(space: SearchSpace, kinds: Sequence[str]) -> np.ndarray:
    return np.array(
        [_DELTA_MIN.get(k, 1e-3 * space.horizon) for k in kinds], dtype=np.float64
    )


def _normalized(raw: Sequence[float]) -> list[float]:
    total = sum(raw)
    return [r / total for r in raw]


def _decode_breaks(space: SearchSpace, tail: Sequence[float]) -> list[float]:
    breaks = sorted(float(b) for b in tail)
    for i in range(1, len(breaks)):
        if breaks[i] <= breaks[i - 1]:
            breaks[i] = breaks[i - 1] + 1e-6
    return breaks


def decode_field(space: SearchSpace, params: Params) -> HerglotzField:
    """Instantiate the schedule a parameter vector describes."""
    ints, floats = params
    if len(ints) != _int_count(space) or len(floats) != len(_float_kinds(space)):
        raise DomainError("parameter vector does not match the space layout")
    n, deg, m = space.dim, space.degree, space.pieces
    gens: list[Generator] = []
    pos = 0
    for piece in range(m):
        if space.family == "catalog-rotation":
            name = space.names[ints[piece] % len(space.names)]
            angles = floats[pos : pos + n]
            pos += n
            gens.append(rotate_generator(catalog_generator(name, dim=n, degree=deg), angles))
        elif space.family == "product-form":
            selectors = [ints[piece * n + k] % n for k in range(n)]
            measures = []
            for _coord in range(n):
                chunk = floats[pos : pos + 2 * _ATOMS]
                pos += 2 * _ATOMS
                angles = chunk[0::2]
                weights = _normalized(chunk[1::2])
                measures.append(AtomicMeasure(tuple(zip(angles, weights))))
            gens.append(product_form(selectors, measures, degree=deg))
        else:
            parts = []
            raw_weights = []
            for part in range(_COMBO_SIZE):
                name = space.names[ints[piece * _COMBO_SIZE + part] % len(space.names)]
                angles = floats[pos : pos + n]
                pos += n
                raw_weights.append(floats[pos])
                pos += 1
                parts.append(rotate_generator(catalog_generator(name, dim=n, degree=deg), angles))
            gens.append(convex_combination(parts, _normalized(raw_weights)))
    breaks = _decode_breaks(space, floats[pos:])
    return HerglotzField.build(gens, breaks)


def objective(space: SearchSpace, params: Params) -> float:
    """Re A_alpha of component 1 of the limit map lim e^T phi_{0,T}, T = inf.

    The limit is exact: the Koenigs chain of the schedule up to its tail
    generator, with no horizon.  ``space.horizon`` is only the window of
    the linear-drift normalization check, which fails with
    IntegrationError as ``parametric_limit`` does at that horizon.
    """
    tables = basis_tables(space.dim, space.degree)
    (end,), _ = _scaled_flow(decode_field(space, params), 0.0, (math.inf,), tables, space.horizon)
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
    kinds = _float_kinds(space)
    m = space.pieces
    even_breaks = tuple(space.horizon * k / m for k in range(1, m))

    def floats_with_breaks(values: Sequence[float]) -> tuple[float, ...]:
        return tuple(values) + even_breaks

    out: list[Params] = []
    body = len(kinds) - (m - 1)
    if space.family == "product-form":
        for shift in range(space.dim):
            ints = tuple((k + shift) % space.dim for _p in range(m) for k in range(space.dim))
            for phase in (0.0, math.pi):
                vals = [phase if k == "angle" else 1.0 for k in kinds[:body]]
                out.append((ints, floats_with_breaks(vals)))
    else:
        vals = [1.0 if k == "weight" else 0.0 for k in kinds[:body]]
        for idx in range(len(space.names)):
            ints = tuple([idx] * _int_count(space))
            out.append((ints, floats_with_breaks(vals)))
    return out


def _sample_params(space: SearchSpace, rng: np.random.Generator) -> Params:
    kinds = _float_kinds(space)
    ints = tuple(int(v) for v in rng.integers(0, _int_options(space), size=_int_count(space)))
    floats = []
    for k in kinds:
        if k == "angle":
            floats.append(float(rng.uniform(0.0, 2.0 * math.pi)))
        elif k == "weight":
            floats.append(float(rng.uniform(0.05, 1.0)))
        else:
            floats.append(float(rng.uniform(0.05 * space.horizon, 0.95 * space.horizon)))
    return ints, tuple(floats)


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
    rng = np.random.default_rng(seed)
    cache: dict[Params, float] = {}
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
        if evals >= budget:
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
        out[j] = _clip_float(space, kinds[j], x)
        return tuple(out)

    def ascent(start: Params):
        cur = start
        cur_val = run(cur)
        deltas = _initial_deltas(space, kinds)
        floor = _min_deltas(space, kinds)
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
        nfloat = len(kinds)
        if nfloat == 0:
            return
        ints = start[0]

        def f(x: np.ndarray) -> float:
            pt = tuple(_clip_float(space, kinds[j], x[j]) for j in range(nfloat))
            return run((ints, pt))

        scale = _initial_deltas(space, kinds)
        simplex = [np.array(start[1], dtype=np.float64)]
        for j in range(nfloat):
            v = simplex[0].copy()
            v[j] += 0.5 * scale[j]
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
        while evals < budget:
            ascent(_sample_params(space, rng))
        if method.endswith("polish") and best_params is not None:
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

"""Verified inequality reports: coefficient bounds and growth bounds.

Every check produces a row (bound, attained value, margin, verdict); a
report is a named bundle of rows with CSV/JSON projections.  A row
passes when the attained value stays below the bound plus a slack
tolerance, and is flagged as an equality case when it sits within
``equality_tol`` of the bound; closed-form subjects use a tight equality
threshold, numerically evolved ones a loose one.

Degree-2 coefficient rows use the sharp polydisc bounds for normalized
univalent maps with parametric representation and for generators: the
coefficient of z^alpha in component j is bounded by 2 when alpha_j > 0
and by 1 when alpha_j = 0.  Generator reports also cover the
higher-degree families with known bounds (pure powers of the own
variable and own-variable-times-power-of-another, both bounded by 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .jets import (
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    multiindices,
)

__all__ = [
    "EQUALITY_TOL_CLOSED_FORM",
    "EQUALITY_TOL_EVOLVED",
    "BoundCheck",
    "BoundReport",
    "caratheodory_check",
    "coeff_bound_report",
    "generator_coeff_report",
    "koebe_check",
    "koebe_envelope",
    "sample_rays",
]

EQUALITY_TOL_CLOSED_FORM = 1e-10
EQUALITY_TOL_EVOLVED = 1e-3

CSV_HEADER = ("subject", "check", "bound", "attained", "margin", "passed", "equality")


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: attained <= bound (+ tol)."""

    name: str
    bound: float
    attained: float
    tol: float
    equality_tol: float
    witness: Optional[tuple] = None

    @property
    def margin(self) -> float:
        return self.bound - self.attained

    @property
    def passed(self) -> bool:
        return self.attained <= self.bound + self.tol

    @property
    def equality(self) -> bool:
        return abs(self.attained - self.bound) <= self.equality_tol

    def to_json(self) -> dict:
        out = {
            "check": self.name,
            "bound": self.bound,
            "attained": self.attained,
            "margin": self.margin,
            "passed": self.passed,
            "equality": self.equality,
        }
        if self.witness is not None:
            out["witness"] = [{"re": c.real, "im": c.imag} for c in self.witness]
        return out


@dataclass(frozen=True)
class BoundReport:
    subject: str
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def equalities(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if c.equality)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in report {self.subject!r}")

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "checks": [c.to_json() for c in self.checks],
            "equalities": list(self.equalities()),
            "passed": self.passed,
        }

    def csv_rows(self) -> list[tuple]:
        return [
            (self.subject, c.name, c.bound, c.attained, c.margin, c.passed, c.equality)
            for c in self.checks
        ]


def _alpha_label(prefix: str, component: int, alpha: Sequence[int]) -> str:
    return f"{prefix}[{component}]({','.join(str(a) for a in alpha)})"


def _degree2_bound(component: int, alpha: Sequence[int]) -> float:
    return 2.0 if alpha[component] > 0 else 1.0


# -- Caratheodory coefficients ---------------------------------------------


def caratheodory_check(p: MultiJet, tol: float = 1e-6, subject: str = "p") -> BoundReport:
    """|c_k| <= 2 for one-variable functions with positive real part, p(0)=1.

    Rows are flagged as equalities within ``EQUALITY_TOL_CLOSED_FORM``.
    """
    if p.dim != 1:
        raise JetShapeError(f"Caratheodory check takes one-variable jets, got dim {p.dim}")
    if abs(p.coefficient((0,)) - 1.0) > 1e-12:
        raise DomainError(f"expected p(0) = 1, got {p.coefficient((0,))}")
    checks = []
    for k in range(1, p.degree + 1):
        attained = abs(p.coefficient((k,)))
        checks.append(
            BoundCheck(
                f"c{k}",
                bound=2.0,
                attained=attained,
                tol=tol,
                equality_tol=EQUALITY_TOL_CLOSED_FORM,
            )
        )
    return BoundReport(subject=subject, checks=tuple(checks))


# -- degree-2 coefficient bounds -------------------------------------------


def coeff_bound_report(
    f: JetMap,
    tol: float = 1e-6,
    equality_tol: float = EQUALITY_TOL_CLOSED_FORM,
    subject: str = "f",
) -> BoundReport:
    """Sharp degree-2 coefficient bounds for a normalized univalent map jet."""
    if f.degree < 2:
        raise JetShapeError("need a jet of degree >= 2")
    dev = np.max(np.abs(f.linear_part() - np.eye(f.dim)))
    if np.max(np.abs(f.constant_terms())) > 1e-8 or dev > 1e-3:
        raise DomainError("coefficient bounds apply to normalized maps (f(0)=0, Df(0)=I)")
    checks = []
    quadratic = [a for a in multiindices(f.dim, 2) if sum(a) == 2]
    for i in range(f.dim):
        for alpha in quadratic:
            checks.append(
                BoundCheck(
                    _alpha_label("A", i, alpha),
                    bound=_degree2_bound(i, alpha),
                    attained=abs(f.coefficient(i, alpha)),
                    tol=tol,
                    equality_tol=equality_tol,
                )
            )
    return BoundReport(subject=subject, checks=tuple(checks))


def generator_coeff_report(
    h,
    tol: float = 1e-6,
    equality_tol: float = EQUALITY_TOL_CLOSED_FORM,
    subject: Optional[str] = None,
) -> BoundReport:
    """Coefficient bounds for a generator jet (accepts Generator or JetMap).

    Rows cover all degree-2 multi-indices plus the higher-degree families
    with known sharp bound 2: c_{m e_j} (m >= 2) and c_{e_j + k e_l}
    (l != j, k >= 2) in component j.
    """
    jet = getattr(h, "jet", h)
    if not isinstance(jet, JetMap):
        raise JetShapeError("expected a Generator or JetMap")
    if subject is None:
        prov = getattr(h, "provenance", None)
        subject = (prov or {}).get("name", (prov or {}).get("kind", "h"))
    dev = np.max(np.abs(jet.linear_part() + np.eye(jet.dim)))
    if np.max(np.abs(jet.constant_terms())) > 1e-8 or dev > 1e-3:
        raise DomainError("generator bounds apply to h(0)=0, Dh(0)=-I")
    n, D = jet.dim, jet.degree
    checks = []
    for i in range(n):
        rows: list[tuple[int, ...]] = [a for a in multiindices(n, 2) if sum(a) == 2]
        for m in range(3, D + 1):
            rows.append(tuple(m if v == i else 0 for v in range(n)))
        for l in range(n):
            if l == i:
                continue
            for k in range(2, D):
                rows.append(tuple(1 if v == i else (k if v == l else 0) for v in range(n)))
        for alpha in rows:
            bound = _degree2_bound(i, alpha) if sum(alpha) == 2 else 2.0
            checks.append(
                BoundCheck(
                    _alpha_label("c", i, alpha),
                    bound=bound,
                    attained=abs(jet.coefficient(i, alpha)),
                    tol=tol,
                    equality_tol=equality_tol,
                )
            )
    return BoundReport(subject=subject, checks=tuple(checks))


# -- growth (distortion) bounds --------------------------------------------


def koebe_envelope(r):
    """Lower and upper sup-norm growth bounds r/(1+r)^2, r/(1-r)^2."""
    r = np.asarray(r, dtype=np.float64)
    return r / (1.0 + r) ** 2, r / (1.0 - r) ** 2


def sample_rays(directions: np.ndarray, radii: Sequence[float]) -> np.ndarray:
    """Points r * d for each radius r and each sup-norm-1 direction d."""
    d = np.asarray(directions, dtype=np.complex128)
    if d.ndim == 1:
        d = d[None, :]
    norms = np.max(np.abs(d), axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise DomainError("ray directions must be nonzero")
    d = d / norms
    rs = np.asarray(list(radii), dtype=np.float64)
    return (rs[:, None, None] * d[None, :, :]).reshape(-1, d.shape[-1])


def koebe_check(
    evaluator: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    tol: float = 1e-8,
    subject: str = "f",
) -> BoundReport:
    """Two-sided growth check at sample points inside the polydisc.

    The rows record the worst violation (positive = violation) of the
    upper bound sup|f| <= r/(1-r)^2 and the lower bound
    sup|f| >= r/(1+r)^2, each against bound 0, with witnesses; they are
    flagged as equalities within ``EQUALITY_TOL_CLOSED_FORM``.
    """
    z = np.asarray(points, dtype=np.complex128)
    if z.ndim == 1:
        z = z[None, :]
    if z.size == 0:
        raise DomainError("growth check needs at least one sample point")
    r = np.max(np.abs(z), axis=-1)
    if np.any(r <= 0) or np.any(r >= 1):
        raise DomainError("sample points must be nonzero and strictly inside the polydisc")
    vals = np.asarray(evaluator(z), dtype=np.complex128)
    mags = np.max(np.abs(vals), axis=-1)
    lower, upper = koebe_envelope(r)

    excess = mags - upper
    deficit = lower - mags
    ku = int(np.argmax(excess))
    kl = int(np.argmax(deficit))
    checks = (
        BoundCheck(
            "growth-upper-excess",
            bound=0.0,
            attained=float(excess[ku]),
            tol=tol,
            equality_tol=EQUALITY_TOL_CLOSED_FORM,
            witness=tuple(complex(c) for c in z[ku]),
        ),
        BoundCheck(
            "growth-lower-deficit",
            bound=0.0,
            attained=float(deficit[kl]),
            tol=tol,
            equality_tol=EQUALITY_TOL_CLOSED_FORM,
            witness=tuple(complex(c) for c in z[kl]),
        ),
    )
    return BoundReport(subject=subject, checks=checks)

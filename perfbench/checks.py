"""Checks of CLI outputs against the mathematics, not against saved output.

``check_op(op, rc, stdout)`` returns ``(status, reason)``: status "ok";
"exit" when the exit code is not the one the op expects (a crash, or a
verdict the inputs rule out); "wrong" when the exit code is right but the
output breaks a check.  Expected values come from the sharp degree-2
constants of the class S^0(D^n) (2 when alpha contains the component's own
variable, 1 otherwise) and from closed forms written out below; the only
program output a check reads is the output it checks.
"""

from __future__ import annotations

import cmath
import json
import math

LIMIT_TAIL_MAX = 1e-3       # a horizon-15 limit should have converged far past this
EXACT_TOL = 1e-9            # Koenigs limit at horizon 40 against a closed form
NORMALIZATION_TOL = 1e-8    # Df(0) = I for limit jets
RK4_TOL = 1e-8              # RK4 transition jets, step 1e-2, against closed forms
RICHARDSON_MAX = 1e-6       # largest acceptable Richardson error estimate
BOUND_SLACK = 1e-6          # the CLI's own pass/fail tolerance for bound rows
SEARCH_BELOW = 1e-2         # certified_value must reach b - 1e-2 ...
SEARCH_ABOVE = 1e-4         # ... and may not pass b + 1e-4
CATALOG_JET_MAX = 1e-10     # largest acceptable catalog identity error


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- mathematics ----------------------------------------------------------------


def sharp_bound(component: int, alpha) -> float:
    """Sharp |A_alpha| bound of component ``component`` for |alpha| = 2."""
    return 2.0 if alpha[component] > 0 else 1.0


def degree2_alphas(dim: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(dim):
        for j in range(i, dim):
            a = [0] * dim
            a[i] += 1
            a[j] += 1
            out.append(tuple(a))
    return out


def _unit(dim: int, *entries: int) -> tuple[int, ...]:
    a = [0] * dim
    for k in entries:
        a[k] += 1
    return tuple(a)


def starlike_jet(name: str, dim: int, degree: int) -> list[dict]:
    """Closed-form jets of the extremal maps F1, F2, F4, F6, identity-extended.

    F1 = (z0/(1-z0)^2, z'), F2 = (z0 (1+z1)^2, z'), F4 = (z0 + z1^2, z'),
    F6 = (z0 + z1 z2, z'); each is the Koenigs map of the generator with
    the same number.
    """
    comps = [{_unit(dim, j): 1.0 + 0j} for j in range(dim)]
    head: dict = {}
    if name == "F1":
        head = {tuple([k] + [0] * (dim - 1)): complex(k) for k in range(1, degree + 1)}
    elif name == "F2":
        head = {_unit(dim, 0): 1.0, _unit(dim, 0, 1): 2.0, _unit(dim, 0, 1, 1): 1.0}
    elif name == "F4":
        head = {_unit(dim, 0): 1.0, _unit(dim, 1, 1): 1.0}
    elif name == "F6":
        head = {_unit(dim, 0): 1.0, _unit(dim, 1, 2): 1.0}
    else:
        raise ValueError(f"no closed form for {name}")
    comps[0] = {a: complex(c) for a, c in head.items() if sum(a) <= degree}
    return comps


def starlike_values(name: str, w: list[complex]) -> list[complex]:
    """Closed-form point values of F1, F2, F4, F6."""
    out = list(w)
    z0, z1 = w[0], w[1]
    if name == "F1":
        out[0] = z0 / (1.0 - z0) ** 2
    elif name == "F2":
        out[0] = z0 * (1.0 + z1) ** 2
    elif name == "F4":
        out[0] = z0 + z1 * z1
    elif name == "F6":
        out[0] = z0 + z1 * w[2]
    else:
        raise ValueError(f"no closed form for {name}")
    return out


def rotated(jet: list[dict], theta: list[float]) -> list[dict]:
    """Jet of e^{-i theta} f(e^{i theta} z): A_alpha times e^{i(<alpha,theta> - theta_i)}."""
    return [
        {a: c * cmath.exp(1j * (sum(k * t for k, t in zip(a, theta)) - theta[i])) for a, c in comp.items()}
        for i, comp in enumerate(jet)
    ]


def jet_distance(a: list[dict], b: list[dict]) -> float:
    worst = 0.0
    for ca, cb in zip(a, b):
        for key in set(ca) | set(cb):
            worst = max(worst, abs(ca.get(key, 0j) - cb.get(key, 0j)))
    return worst


def koebe_rows(values: list[complex], w: list[complex]) -> tuple[float, float]:
    """(upper excess, lower deficit) of sup|f(w)| against r/(1-r)^2 and r/(1+r)^2."""
    r = max(abs(c) for c in w)
    mag = max(abs(c) for c in values)
    return mag - r / (1.0 - r) ** 2, r / (1.0 + r) ** 2 - mag


# -- reading the output -----------------------------------------------------------


def parse_map(obj: dict) -> list[dict]:
    comps = []
    for comp in obj["components"]:
        comps.append({tuple(e["alpha"]): complex(e["re"], e["im"]) for e in comp["coeffs"]})
    return comps


def _complex_list(entries) -> list[complex]:
    return [complex(e["re"], e["im"]) for e in entries]


def _parse_label(label: str) -> tuple[str, int, tuple[int, ...]]:
    """'A[0](1,1)' -> ('A', 0, (1, 1))."""
    prefix, rest = label.split("[", 1)
    comp, alpha = rest.split("](", 1)
    return prefix, int(comp), tuple(int(x) for x in alpha.rstrip(")").split(","))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _coefficient_rows(report: dict, prefix: str) -> dict:
    rows = {}
    for row in report["checks"]:
        if row["check"].startswith(prefix + "["):
            rows[_parse_label(row["check"])[1:]] = row
    return rows


def _check_rows_within_bounds(rows: dict, bound_of) -> None:
    for (i, alpha), row in rows.items():
        expected = bound_of(i, alpha)
        _require(row["bound"] == expected, f"row {row['check']} has bound {row['bound']}, expected {expected}")
        _require(_finite(row["attained"]), f"row {row['check']} is not finite")
        _require(row["attained"] <= expected + BOUND_SLACK, f"row {row['check']} breaks its bound")


def _check_growth_rows(report: dict) -> dict:
    rows = {row["check"]: row for row in report["checks"] if row["check"].startswith("growth-")}
    _require(set(rows) == {"growth-upper-excess", "growth-lower-deficit"}, "growth rows missing")
    for row in rows.values():
        _require(_finite(row["attained"]) and row["attained"] <= BOUND_SLACK, f"{row['check']} violated")
        witness = _complex_list(row["witness"])
        _require(0.0 < max(abs(c) for c in witness) < 1.0, f"{row['check']} witness outside the polydisc")
    return rows


def _check_normalized(jet: list[dict], dim: int, scale: float, tol: float) -> None:
    _require(len(jet) == dim, f"jet has {len(jet)} components, expected {dim}")
    for i, comp in enumerate(jet):
        _require(abs(comp.get((0,) * dim, 0j)) <= tol, f"component {i} has a constant term")
        for j in range(dim):
            want = scale if i == j else 0.0
            got = comp.get(_unit(dim, j), 0j)
            _require(abs(got - want) <= tol, f"linear part [{i},{j}] is {got}, expected {want}")


# -- one check per op kind ------------------------------------------------------


def _search(spec: dict, report: dict) -> None:
    alpha, family = spec["alpha"], spec["family"]
    b = sharp_bound(0, alpha)
    value = report["certified_value"]
    _require(_finite(value), "certified_value is not finite")
    _require(value <= b + SEARCH_ABOVE, f"certified_value {value} exceeds the sharp constant {b}")
    # a product form h_0 = -z_0 p(z_s) has no monomial free of z_0 in component 0
    reachable = family != "product-form" or alpha[0] > 0
    if reachable:
        _require(value >= b - SEARCH_BELOW, f"certified_value {value} misses the sharp constant {b}")
    _require(report.get("sound") is True, "the report does not call itself sound")
    _require(1 <= report["evaluations"] <= spec["budget"], "evaluations outside [1, budget]")


def _limit_bounds(spec: dict, report: dict) -> None:
    dim = spec["dim"]
    jet = parse_map(report["jet"])
    tail = report["tail_bound"]
    _require(report["degree"] == spec["degree"], "limit degree differs from the request")
    _require(_finite(tail) and 0.0 <= tail <= LIMIT_TAIL_MAX, f"tail_bound {tail} too large")
    _check_normalized(jet, dim, 1.0, NORMALIZATION_TOL)
    for i in range(dim):
        for alpha in degree2_alphas(dim):
            c = abs(jet[i].get(alpha, 0j))
            _require(c <= sharp_bound(i, alpha) + BOUND_SLACK + tail, f"|A[{i}]{alpha}| = {c} breaks its bound")


def _limit_exact(spec: dict, report: dict) -> None:
    expected = rotated(starlike_jet(spec["starlike"], spec["dim"], spec["degree"]), spec["angles"])
    gap = jet_distance(parse_map(report["jet"]), expected)
    _require(gap <= EXACT_TOL, f"limit differs from the rotated {spec['starlike']} by {gap:.3e}")


def _evolve_common(spec: dict, report: dict) -> list[dict]:
    est = report["error_estimate"]
    _require(_finite(est) and est <= RICHARDSON_MAX, f"error_estimate {est} too large")
    jet = parse_map(report["jet"])
    _check_normalized(jet, spec["dim"], math.exp(spec["s"] - spec["t"]), RK4_TOL)
    return jet


def _evolve_h4(spec: dict, report: dict) -> None:
    """phi_{s,t} = e^{s-t} (z0 + c z1^2, z1, ...) with c = 1 - e^{-(min(t,1) - s)}."""
    dim, s, t = spec["dim"], spec["s"], spec["t"]
    jet = _evolve_common(spec, report)
    lam = math.exp(s - t)
    c = 1.0 - math.exp(-max(0.0, min(t, 1.0) - s))
    expected = [{_unit(dim, j): complex(lam)} for j in range(dim)]
    expected[0][_unit(dim, 1, 1)] = complex(lam * c)
    gap = jet_distance(jet, expected)
    _require(gap <= RK4_TOL, f"transition differs from the closed form by {gap:.3e}")


def _verify_catalog(spec: dict, report: dict) -> None:
    checks = report["checks"]
    _require([c["pair"] for c in checks] == [f"F{j}/H{j}" for j in range(1, 8)], "catalog pairs differ")
    worst = max(c["jet_error"] for c in checks)
    _require(worst <= CATALOG_JET_MAX, f"catalog identity error {worst:.3e}")
    _require(report["max_jet_error"] == worst, "max_jet_error is not the largest row error")
    for c in checks:
        _require(c["identity_passed"] and c["membership"]["passed"] and c["bounds_passed"], f"{c['pair']} failed")
    _require(report["passed"] is True, "catalog report did not pass")


def _generator_admissible(spec: dict, report: dict) -> None:
    cert = report["certificate"]
    _require(cert["passed"] is True, "an admissible generator was rejected")
    _require(_finite(cert["worst_margin"]) and cert["worst_margin"] <= cert["tol"], "worst_margin above tol")


def _polynomial_values(components: list[dict], w: list[complex]) -> list[complex]:
    out = []
    for comp in components:
        acc = 0j
        for e in comp["coeffs"]:
            term = complex(e["re"], e["im"])
            for z, p in zip(w, e["alpha"]):
                term *= z**p
            acc += term
        out.append(acc)
    return out


def _generator_violator(spec: dict, report: dict) -> None:
    cert = report["certificate"]
    _require(cert["passed"] is False, "the violator was accepted")
    w = _complex_list(cert["witness_point"])
    j = cert["witness_coordinate"]
    r = max(abs(c) for c in w)
    _require(0.0 < r < 1.0, "witness outside the polydisc")
    _require(abs(abs(w[j]) - r) <= 1e-12 * max(1.0, r), "witness coordinate does not attain the sup-norm")
    margin = (_polynomial_values(spec["components"], w)[j] / w[j]).real
    _require(margin > cert["tol"], f"witness margin {margin} does not violate the inequality")
    _require(abs(margin - cert["worst_margin"]) <= 1e-9, "worst_margin differs from the witness margin")


def _bounds_name(spec: dict, report: dict) -> None:
    name = spec["name"]
    if name.startswith("F"):
        rows = _coefficient_rows(report, "A")
        dim = 3 if name == "F6" else 2
        _require(set(rows) == {(i, a) for i in range(dim) for a in degree2_alphas(dim)}, "coefficient rows missing")
        _check_rows_within_bounds(rows, sharp_bound)
        jet = starlike_jet(name, dim, 4)
        for (i, alpha), row in rows.items():
            want = abs(jet[i].get(alpha, 0j))
            _require(abs(row["attained"] - want) <= 1e-10, f"{row['check']} attained {row['attained']}, expected {want}")
        for label, row in _check_growth_rows(report).items():
            w = _complex_list(row["witness"])
            upper, lower = koebe_rows(starlike_values(name, w), w)
            want = upper if label == "growth-upper-excess" else lower
            _require(abs(row["attained"] - want) <= 1e-9, f"{label} attained {row['attained']}, expected {want}")
    else:
        rows = _coefficient_rows(report, "c")
        _check_rows_within_bounds(rows, _generator_bound)
    label, value = SHARP_ROWS[name]
    sharp = next((row for row in report["checks"] if row["check"] == label), None)
    _require(sharp is not None, f"sharp row {label} missing")
    _require(abs(sharp["attained"] - value) <= 1e-10 and sharp["equality"] is True, f"{label} is not sharp")
    _require(report["passed"] is True, "bound report did not pass")


def _generator_bound(component: int, alpha) -> float:
    return sharp_bound(component, alpha) if sum(alpha) == 2 else 2.0


# the row each catalog entry attains with equality, at the paper's sharp constant
SHARP_ROWS = {
    "F1": ("A[0](2,0)", 2.0),
    "F2": ("A[0](1,1)", 2.0),
    "F4": ("A[0](0,2)", 1.0),
    "F6": ("A[0](0,1,1)", 1.0),
    "H1": ("c[0](2,0)", 2.0),
    "H4": ("c[0](0,2)", 1.0),
}


def _bounds_map(spec: dict, report: dict) -> None:
    dim = spec["dim"]
    rows = _coefficient_rows(report, "A")
    _require(set(rows) == {(i, a) for i in range(dim) for a in degree2_alphas(dim)}, "coefficient rows missing")
    _check_rows_within_bounds(rows, sharp_bound)
    _check_growth_rows(report)
    _require(report["passed"] is True, "bound report did not pass")


def _bounds_generator(spec: dict, report: dict) -> None:
    dim = spec["dim"]
    rows = _coefficient_rows(report, "c")
    _require({(i, a) for i in range(dim) for a in degree2_alphas(dim)} <= set(rows), "degree-2 rows missing")
    _check_rows_within_bounds(rows, _generator_bound)
    _require(report["passed"] is True, "bound report did not pass")


CHECKS = {
    "search": _search,
    "limit-bounds": _limit_bounds,
    "limit-exact": _limit_exact,
    "evolve-linear": _evolve_common,
    "evolve-h4": _evolve_h4,
    "verify-catalog": _verify_catalog,
    "generator-admissible": _generator_admissible,
    "generator-violator": _generator_violator,
    "bounds-name": _bounds_name,
    "bounds-map": _bounds_map,
    "bounds-generator": _bounds_generator,
}


def check_op(op: dict, rc, stdout: str) -> tuple[str, str]:
    """Judge one CLI call: ("ok", ""), ("exit", reason) or ("wrong", reason)."""
    if rc != op["expect_rc"]:
        return "exit", f"exit code {rc}, expected {op['expect_rc']}"
    try:
        envelope = json.loads(stdout)
        _require(envelope.get("command") == op["verb"], "envelope names another command")
        _require(envelope.get("passed") is (rc == 0), "envelope verdict disagrees with the exit code")
        CHECKS[op["check"]["kind"]](op["check"], envelope["report"])
    except CheckFailed as exc:
        return "wrong", str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    return "ok", ""

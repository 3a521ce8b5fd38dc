"""Command-line front door: verification suites, evolution, bounds, search.

Every verb emits one JSON report with a fixed envelope::

    {"schema": "polyloewner/1", "command": ..., "config": ...,
     "timestamp": ..., "report": ..., "passed": ...}

The effective config (defaults, overridden by a flat key=value config
file, overridden by explicit flags) is embedded for provenance.  The
timestamp is omitted under --deterministic so identical configs produce
byte-identical reports.  Exit status: 0 when all verdicts pass, 1 on
verification failure, 2 on bad input.

Each verb is one row of ``_VERBS``: its help line, runner, CSV header
and options.  The parser, the config merge and ``main`` read that row;
a flag's help text, the same on every verb, is in ``_FLAG_HELP``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .bounds import (
    CSV_HEADER,
    EQUALITY_TOL_CLOSED_FORM,
    EQUALITY_TOL_EVOLVED,
    BoundReport,
    _degree2_bound,
    caratheodory_check,
    coeff_bound_report,
    generator_coeff_report,
    koebe_check,
    sample_rays,
)
from .catalog import catalog_get, catalog_names, verify_catalog
from .descriptions import field_from_json, generator_from_json
from .evolution import IntegrationError, evolve_report, limit_evaluator, parametric_limit
from .fourier import MAX_TORUS_POINTS
from .generators import AtomicMeasure, MembershipError, membership_check, require_admissible
from .jets import DomainError, JetShapeError, SingularityError, check_jet_shape
from .search import FAMILIES, SearchSpace, maximize

SCHEMA = "polyloewner/1"

__all__ = ["main"]


class CliError(Exception):
    """Bad input: unparseable config, missing file, malformed description."""


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


_FLAG_HELP = {
    "degree": "jet truncation degree",
    "tol": "pass/fail tolerance",
    "membership_tol": "admissibility margin tolerance",
    "file": "input JSON description",
    "field": "field schedule JSON file",
    "generator": "generator JSON description file",
    "name": "catalog entry name",
    "s": "evolution start time",
    "t": "evolution end time",
    "step": "RK4 step of the growth-bound points",
    "horizon": "time horizon for limits",
    "certify_horizon": "horizon for final re-evaluation",
    "alpha": "target multi-index, comma-separated (e.g. 2,0)",
    "dim": "polydisc dimension",
    "family": f"schedule family ({'/'.join(FAMILIES)})",
    "pieces": "number of schedule pieces",
    "budget": "objective evaluation budget",
    "seed": "RNG seed",
    "method": "optimizer variant",
    "equality_tol": "equality-flag tolerance (default by subject kind)",
    "growth_points": "number of growth-bound sample points",
    "atoms": "inline measure: angle:weight pairs, comma-separated",
    "dump": "catalog entry to dump (or 'all')",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyloewner",
        description="Polydisc evolution families: catalogs, bounds, searches.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output", "-o", help="write the JSON report here (default stdout)")
        p.add_argument("--csv", help="also write the CSV projection here")
        p.add_argument(
            "--deterministic",
            action="store_true",
            default=argparse.SUPPRESS,
            help="omit the timestamp so identical runs are byte-identical",
        )
        for dest, (typ, _default) in verb.options.items():
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, type=typ, default=argparse.SUPPRESS, help=_FLAG_HELP[dest])
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return out


def _effective_config(args: argparse.Namespace, options: dict[str, tuple]) -> dict:
    """defaults < config file < explicit flags."""
    config = {dest: default for dest, (_t, default) in options.items()}
    config["deterministic"] = False
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key == "deterministic":
                config[key] = _bool(value)
                continue
            if key not in options:
                raise CliError(f"config key {key!r} is not valid for {args.command!r}")
            typ = options[key][0]
            try:
                config[key] = typ(value)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}") from exc
    for dest in list(options) + ["deterministic"]:
        if hasattr(args, dest):
            config[dest] = getattr(args, dest)
    # a NaN or infinite number could not be printed back in the JSON envelope
    for dest, (typ, _default) in options.items():
        if typ is float and config[dest] is not None and not math.isfinite(config[dest]):
            raise CliError(f"{dest} must be finite, got {config[dest]}")
    return config


def _require_path(config: dict, key: str, verb: str) -> str:
    if not config.get(key):
        raise CliError(f"{verb} requires --{key.replace('_', '-')}")
    return config[key]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(text).replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise CliError(f"bad --alpha {text!r}: {exc}") from exc


def _normalize_atoms(atoms: list[tuple[float, float]]) -> AtomicMeasure:
    total = sum(w for _, w in atoms)
    if total <= 0:
        raise CliError("atom weights must have positive sum")
    return AtomicMeasure(tuple((a, w / total) for a, w in atoms))


def _parse_atoms(text: str) -> AtomicMeasure:
    atoms = []
    try:
        for part in text.split(","):
            angle, weight = part.split(":")
            atoms.append((float(angle), float(weight)))
    except ValueError as exc:
        raise CliError(f"bad --atoms {text!r}: expected angle:weight pairs") from exc
    return _normalize_atoms(atoms)


def _load_measure_file(path: str) -> AtomicMeasure:
    obj = _load_json(path)
    try:
        atoms = [(float(e["angle"]), float(e["weight"])) for e in obj["atoms"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path}: malformed atomic measure: {exc}") from exc
    return _normalize_atoms(atoms)


def _write_csv(path: str, header: tuple, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- verb implementations: return (report dict, passed, CSV rows or None) ---


def _run_verify_catalog(config):
    report = verify_catalog(
        degree=config["degree"],
        tol=config["tol"],
        membership_tol=config["membership_tol"],
    )
    return report.to_json(), report.passed, None


def _run_check_generator(config):
    desc = _load_json(_require_path(config, "file", "check-generator"))
    gen = generator_from_json(desc, default_degree=config["degree"])
    cert = membership_check(gen, tol=config["tol"])
    report = {"generator": gen.to_json(), "certificate": cert.to_json()}
    return report, cert.passed, None


def _load_field_for(config, verb: str):
    desc = _load_json(_require_path(config, "field", verb))
    return field_from_json(desc, default_degree=config["degree"])


def _run_evolve(config):
    field = _load_field_for(config, "evolve")
    result = evolve_report(field, config["s"], config["t"], degree=config["degree"])
    return result.to_json(), True, None


def _run_limit(config):
    field = _load_field_for(config, "limit")
    result = parametric_limit(field, horizon=config["horizon"], degree=config["degree"])
    return result.to_json(), True, None


def _bounds_subject(config) -> BoundReport:
    chosen = [k for k in ("name", "generator", "field") if config.get(k)]
    if len(chosen) != 1:
        raise CliError("bounds needs exactly one of --name, --generator, --field")
    mode = chosen[0]
    eq = config["equality_tol"]
    if eq is None:
        eq = EQUALITY_TOL_EVOLVED if mode == "field" else EQUALITY_TOL_CLOSED_FORM
    if mode == "generator":
        gen = generator_from_json(
            _load_json(config["generator"]), default_degree=config["degree"]
        )
        # the sharp bounds hold for generators in the class M only
        require_admissible([gen])
        return generator_coeff_report(gen, tol=config["tol"], equality_tol=eq)

    # the growth check evaluates every point in one batch
    count = config["growth_points"]
    if not 1 <= count <= MAX_TORUS_POINTS:
        raise CliError(f"--growth-points must be between 1 and {MAX_TORUS_POINTS}")
    if mode == "name":
        entry = catalog_get(config["name"], degree=max(config["degree"], 2))
        jet, evaluator, subject = entry.jet, entry.evaluator, entry.name
        if entry.role == "generator":
            return generator_coeff_report(jet, tol=config["tol"], equality_tol=eq, subject=subject)
    else:
        field = _load_field_for(config, "bounds")
        limit = parametric_limit(field, horizon=config["horizon"], degree=config["degree"])
        evaluator = limit_evaluator(field, horizon=config["horizon"], step=config["step"])
        jet, subject = limit.jet, "limit"

    coeff = coeff_bound_report(jet, tol=config["tol"], equality_tol=eq, subject=subject)
    rng = np.random.default_rng(config["seed"])
    dirs = rng.normal(size=(count, jet.dim)) + 1j * rng.normal(size=(count, jet.dim))
    radii = rng.uniform(0.05, 0.9, size=count)
    points = sample_rays(dirs, [1.0]) * radii[:, None]
    growth = koebe_check(evaluator, points, tol=config["tol"], subject=subject)
    return BoundReport(subject=subject, checks=coeff.checks + growth.checks)


def _run_bounds(config):
    report = _bounds_subject(config)
    return report.to_json(), report.passed, report.csv_rows()


def _run_search(config):
    alpha = _parse_alpha(_require_path(config, "alpha", "search"))
    space = SearchSpace(
        dim=config["dim"],
        alpha=alpha,
        family=config["family"],
        pieces=config["pieces"],
        horizon=config["horizon"],
        certify_horizon=config["certify_horizon"],
        degree=config["degree"],
    )
    result = maximize(
        space,
        budget=config["budget"],
        seed=config["seed"],
        method=config["method"],
    )
    report = result.to_json()
    passed = True
    if sum(alpha) == 2:
        bound = _degree2_bound(0, alpha)
        report["alpha_bound"] = bound
        report["sound"] = result.certified_value <= bound + 1e-4
        passed = report["sound"]
    return report, passed, result.history_csv_rows()


def _run_caratheodory(config):
    check_jet_shape(1, config["degree"])
    if config.get("file"):
        measure = _load_measure_file(config["file"])
    else:
        measure = _parse_atoms(config["atoms"])
    p = measure.transform_jet(1, config["degree"], 0)
    report = caratheodory_check(p, tol=config["tol"], subject="measure-transform")
    payload = {
        "measure": measure.to_json(),
        "coefficients": [
            {"k": k, "re": p.coefficient((k,)).real, "im": p.coefficient((k,)).imag}
            for k in range(1, config["degree"] + 1)
        ],
        "report": report.to_json(),
    }
    return payload, report.passed, report.csv_rows()


def _run_catalog(config):
    which = config.get("dump")
    if not which:
        return {"names": list(catalog_names())}, True, None
    names = catalog_names() if which == "all" else [which]
    entries = [
        catalog_get(n, dim=config["dim"], degree=config["degree"]).to_json() for n in names
    ]
    return {"entries": entries}, True, None


class _Verb(NamedTuple):
    """One verb: its help line, runner, CSV header (None without a CSV
    projection) and options, dest -> (type, default), a None default
    meaning optional."""

    help: str
    run: Callable[[dict], tuple]
    csv_header: Optional[tuple]
    options: dict[str, tuple]


_VERBS = {
    "verify-catalog": _Verb(
        "check the starlike/generator catalog identities and bounds",
        _run_verify_catalog,
        None,
        {"degree": (int, 4), "tol": (float, 1e-10), "membership_tol": (float, 1e-9)},
    ),
    "check-generator": _Verb(
        "grid admissibility check for a described generator",
        _run_check_generator,
        None,
        {"file": (str, None), "tol": (float, 1e-9), "degree": (int, 4)},
    ),
    "evolve": _Verb(
        "transition jet of a field between two times",
        _run_evolve,
        None,
        {"field": (str, None), "s": (float, 0.0), "t": (float, 1.0), "degree": (int, 4)},
    ),
    "limit": _Verb(
        "normalized limit map of a field",
        _run_limit,
        None,
        {"field": (str, None), "horizon": (float, 15.0), "degree": (int, 4)},
    ),
    "bounds": _Verb(
        "coefficient and growth bound report",
        _run_bounds,
        CSV_HEADER,
        {
            "name": (str, None),
            "generator": (str, None),
            "field": (str, None),
            "horizon": (float, 15.0),
            "step": (float, 1e-2),
            "degree": (int, 4),
            "tol": (float, 1e-6),
            "equality_tol": (float, None),
            "growth_points": (int, 50),
            "seed": (int, 0),
        },
    ),
    "search": _Verb(
        "maximize a limit coefficient over a schedule family",
        _run_search,
        ("evaluation", "value"),
        {
            "alpha": (str, None),
            "dim": (int, 2),
            "family": (str, "catalog-rotation"),
            "pieces": (int, 1),
            "budget": (int, 500),
            "seed": (int, 0),
            "horizon": (float, 12.0),
            "certify_horizon": (float, 15.0),
            "degree": (int, 3),
            "method": (str, "coordinate-ascent"),
        },
    ),
    "caratheodory": _Verb(
        "coefficient bounds for an atomic-measure transform",
        _run_caratheodory,
        CSV_HEADER,
        {"file": (str, None), "atoms": (str, "0:1"), "degree": (int, 4), "tol": (float, 1e-6)},
    ),
    "catalog": _Verb(
        "list or dump catalog entries",
        _run_catalog,
        None,
        {"dump": (str, None), "dim": (int, None), "degree": (int, 4)},
    ),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    verb = _VERBS[args.command]
    try:
        config = _effective_config(args, verb.options)
        if args.csv and verb.csv_header is None:
            raise CliError(f"{args.command} does not define a CSV projection")
        envelope = {
            "schema": SCHEMA,
            "command": args.command,
            "config": {k: v for k, v in sorted(config.items())},
        }
        if not config["deterministic"]:
            envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
        try:
            report, passed, csv_rows = verb.run(config)
        except MembershipError as exc:
            report = {"error": str(exc), "certificate": exc.certificate.to_json()}
            passed, csv_rows = False, []
        envelope["report"] = report
        envelope["passed"] = passed
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.csv:
            _write_csv(args.csv, verb.csv_header, csv_rows)
        return 0 if passed else 1
    # a RecursionError comes from a description nested past the interpreter's limit
    except (
        CliError, DomainError, JetShapeError, SingularityError, IntegrationError, KeyError,
        RecursionError,
    ) as exc:
        print(f"polyloewner: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

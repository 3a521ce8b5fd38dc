"""Seeded inputs for the three benchmark workloads.

``build_plan(workload, seed, workdir)`` writes every field and generator
description a workload needs into ``workdir`` and returns the plan: the
list of CLI calls (argv plus the check each output must pass), the jet
shapes and catalog entries the set-up warms, and nothing else.  The same
workload and seed always give the same plan; the program under test only
ever sees the written files and the flags.

Only the standard library is used here, so the plan can be built before
numpy or the program is imported.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("search", "jets", "certify")

# end-to-end metric that sums the time of each verb's calls
VERB_METRIC = {
    "search": "search_s",
    "limit": "limit_s",
    "evolve": "evolve_s",
    "verify-catalog": "verify_s",
    "check-generator": "verify_s",
    "bounds": "bounds_s",
}

# the criterion-9 searches: (alpha, dim)
CRITERION_9 = (((2, 0), 2), ((1, 1), 2), ((0, 2), 2), ((0, 1, 1), 3))

# catalog generators whose Koenigs map has a closed form in checks.starlike_jet
EXACT_GENERATORS = {2: ("H1", "H2", "H4"), 3: ("H1", "H2", "H4", "H6")}

# The seed moves only continuous parameters (angles, weights, breakpoints,
# times, search seeds); which generators and selectors appear is fixed, so
# the cost of a call, set by margin dependencies and evaluators, does not
# depend on the seed.
PIECE_NAMES = {2: ("H1", "H2", "H4"), 3: ("H6", "H2", "H4")}
SELECTORS = {2: (1, 0), 3: (1, 2, 0)}
COMBINATION_NAMES = ("H2", "H4")  # (rotated part, plain part)

# starlike and generator entries whose sharp row checks.SHARP_ROWS knows
BOUND_NAMES = ("F1", "F2", "F4", "F6", "H1", "H4")

EXACT_HORIZON = 40.0  # e^-40 leaves the Koenigs limit at roundoff


class _Builder:
    """Accumulates the files and ops of one plan."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.workdir = workdir
        self.ops: list[dict] = []
        self.shapes: set[tuple[int, int]] = set()
        self._files = 0

    def write(self, obj) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"input-{self._files:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def op(self, label: str, argv: list, check: dict, expect_rc: int = 0) -> None:
        self.ops.append(
            {
                "label": label,
                "verb": argv[0],
                "argv": [str(a) for a in argv],
                "check": check,
                "expect_rc": expect_rc,
            }
        )

    def angles(self, dim: int) -> list[float]:
        return [self.rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim)]

    def rotation(self, name: str, dim: int) -> tuple[dict, list[float]]:
        theta = self.angles(dim)
        desc = {"kind": "rotation", "base": {"kind": "catalog", "name": name, "dim": dim}, "angles": theta}
        return desc, theta

    def piecewise_field(self, dim: int, pieces: int) -> dict:
        schedule, until = [], 0.0
        for k in range(pieces):
            entry = {"generator": self.rotation(PIECE_NAMES[dim][k % len(PIECE_NAMES[dim])], dim)[0]}
            if k < pieces - 1:
                until += self.rng.uniform(0.3, 1.0)
                entry["until"] = until
            schedule.append(entry)
        return {"schedule": schedule}

    def measure(self, atoms: int = 2) -> dict:
        raw = [self.rng.uniform(0.05, 1.0) for _ in range(atoms)]
        total = sum(raw)
        return {"atoms": [{"angle": self.rng.uniform(0.0, 2.0 * math.pi), "weight": w / total} for w in raw]}

    def product_form(self, dim: int) -> dict:
        return {
            "kind": "product-form",
            "selectors": list(SELECTORS[dim]),
            "measures": [self.measure() for _ in range(dim)],
        }

    def convex_combination(self, dim: int) -> dict:
        rotated, plain = COMBINATION_NAMES
        parts = [
            self.product_form(dim),
            self.rotation(rotated, dim)[0],
            {"kind": "catalog", "name": plain, "dim": dim},
        ]
        raw = [self.rng.uniform(0.1, 1.0) for _ in parts]
        return {"kind": "convex-combination", "parts": parts, "weights": [w / sum(raw) for w in raw]}

    # -- ops, one per kind of call --------------------------------------------

    def search(self, alpha, dim: int, budget: int, family: str = "catalog-rotation", pieces: int = 1) -> None:
        self.shapes.add((dim, 3))
        argv = [
            "search", "--alpha", ",".join(str(a) for a in alpha), "--dim", dim,
            "--family", family, "--pieces", pieces, "--budget", budget,
            "--seed", self.rng.randrange(10**6),
        ]
        label = f"search-{family}-{''.join(str(a) for a in alpha)}-p{pieces}"
        self.op(label, argv, {"kind": "search", "alpha": list(alpha), "family": family, "budget": budget})

    def limit_piecewise(self, dim: int, degree: int, pieces: int) -> None:
        self.shapes.add((dim, degree))
        path = self.write(self.piecewise_field(dim, pieces))
        self.op(
            f"limit-piecewise-{dim}-{degree}",
            ["limit", "--field", path, "--degree", degree],
            {"kind": "limit-bounds", "dim": dim, "degree": degree},
        )

    def limit_exact(self, dim: int, degree: int) -> None:
        self.shapes.add((dim, degree))
        name = EXACT_GENERATORS[dim][len(self.ops) % len(EXACT_GENERATORS[dim])]
        desc, theta = self.rotation(name, dim)
        path = self.write({"schedule": [{"generator": desc}]})
        self.op(
            f"limit-exact-{name}-{dim}-{degree}",
            ["limit", "--field", path, "--degree", degree, "--horizon", EXACT_HORIZON],
            {"kind": "limit-exact", "starlike": "F" + name[1:], "dim": dim, "degree": degree, "angles": theta},
        )

    def evolve_piecewise(self, dim: int, degree: int) -> None:
        self.shapes.add((dim, degree))
        path = self.write(self.piecewise_field(dim, 3))
        s = self.rng.uniform(0.0, 0.5)
        self.op(
            f"evolve-piecewise-{dim}-{degree}",
            ["evolve", "--field", path, "--degree", degree, "--s", s, "--t", s + 1.0],
            {"kind": "evolve-linear", "dim": dim, "s": s, "t": s + 1.0},
        )

    def evolve_h4(self, dim: int, degree: int) -> None:
        """H4 on [0, 1), then the dilation tail: a closed-form transition."""
        self.shapes.add((dim, degree))
        path = self.write({"schedule": [{"until": 1.0, "generator": {"kind": "catalog", "name": "H4", "dim": dim}}]})
        s = self.rng.uniform(0.0, 0.5)
        self.op(
            f"evolve-h4-{dim}-{degree}",
            ["evolve", "--field", path, "--degree", degree, "--s", s, "--t", s + 1.0],
            {"kind": "evolve-h4", "dim": dim, "s": s, "t": s + 1.0},
        )

    def verify_catalog(self) -> None:
        self.op("verify-catalog", ["verify-catalog"], {"kind": "verify-catalog"})

    def check_generator(self, desc: dict, label: str) -> None:
        path = self.write(desc)
        self.op(label, ["check-generator", "--file", path], {"kind": "generator-admissible"})

    def check_violator(self) -> None:
        """h = (-z0 + a z0 z1, -z1) with |a| = 2.5: Re(h0/z0) = -1 + Re(a z1) > 0 near the torus."""
        phase = self.rng.uniform(0.0, 2.0 * math.pi)
        a = 2.5 * complex(math.cos(phase), math.sin(phase))
        comps = [
            {"dim": 2, "degree": 2, "coeffs": [
                {"alpha": [1, 0], "re": -1.0, "im": 0.0},
                {"alpha": [1, 1], "re": a.real, "im": a.imag},
            ]},
            {"dim": 2, "degree": 2, "coeffs": [{"alpha": [0, 1], "re": -1.0, "im": 0.0}]},
        ]
        path = self.write({"kind": "polynomial", "components": comps})
        self.op(
            "check-generator-violator",
            ["check-generator", "--file", path],
            {"kind": "generator-violator", "components": comps},
            expect_rc=1,
        )

    def bounds_name(self, name: str) -> None:
        self.op(
            f"bounds-name-{name}",
            ["bounds", "--name", name, "--seed", self.rng.randrange(10**6)],
            {"kind": "bounds-name", "name": name},
        )

    def bounds_field(self, dim: int) -> None:
        self.shapes.add((dim, 4))
        path = self.write(self.piecewise_field(dim, 2))
        self.op(
            f"bounds-field-{dim}",
            ["bounds", "--field", path, "--seed", self.rng.randrange(10**6)],
            {"kind": "bounds-map", "dim": dim},
        )

    def bounds_generator(self, dim: int) -> None:
        path = self.write(self.convex_combination(dim))
        self.op(
            f"bounds-generator-{dim}",
            ["bounds", "--generator", path],
            {"kind": "bounds-generator", "dim": dim},
        )

    def companions(self, verbs) -> None:
        """A few light calls of each named verb, so every workload times every verb."""
        for verb in verbs:
            if verb == "search":
                for alpha in ((2, 0), (1, 1), (0, 2)) * 2:
                    self.search(alpha, 2, budget=50)
            elif verb == "limit":
                self.limit_exact(3, 6)
                self.limit_piecewise(3, 4, pieces=3)
            elif verb == "evolve":
                self.evolve_h4(2, 4)
                self.evolve_piecewise(2, 4)
            elif verb == "verify":
                for dim in (2, 3):
                    self.check_generator(self.product_form(dim), f"check-generator-product-{dim}")
                    self.check_generator(self.convex_combination(dim), f"check-generator-convex-{dim}")
            elif verb == "bounds":
                self.bounds_name("F2")
                self.bounds_name("H1")
                for dim in (2, 3):
                    self.bounds_field(dim)
                self.bounds_generator(3)
            else:  # pragma: no cover - a typo in this file
                raise ValueError(verb)


def build_plan(workload: str, seed: int, workdir: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _Builder(workload, seed, workdir)
    if workload == "search":
        for alpha, dim in CRITERION_9:
            b.search(alpha, dim, budget=500)
        b.search((1, 1), 2, budget=300, pieces=2)
        b.search((1, 1), 2, budget=300, family="product-form")
        b.companions(("limit", "evolve", "verify", "bounds"))
    elif workload == "jets":
        for dim, degree in ((2, 4), (2, 6), (3, 4), (3, 6)):
            b.limit_piecewise(dim, degree, pieces=3)
        b.limit_exact(2, 8)
        b.limit_exact(3, 8)
        b.evolve_piecewise(2, 4)
        b.evolve_piecewise(3, 4)
        b.evolve_h4(2, 4)
        b.companions(("search", "verify", "bounds"))
    else:
        b.verify_catalog()
        for dim in (2, 3):
            b.check_generator(b.product_form(dim), f"check-generator-product-{dim}")
            b.check_generator(b.convex_combination(dim), f"check-generator-convex-{dim}")
        b.check_violator()
        for name in BOUND_NAMES:
            b.bounds_name(name)
        for dim in (2, 3):
            b.bounds_field(dim)
            b.bounds_generator(dim)
        b.companions(("search", "limit", "evolve"))

    # Spread each metric's calls evenly through the pass: the host's speed
    # drifts within seconds, so calls that sit together see one speed and the
    # pass sums of light metrics would jump with it.
    groups: dict[str, list] = {}
    for op in b.ops:
        groups.setdefault(VERB_METRIC[op["verb"]], []).append(op)
    spread = [((i + 0.5) / len(ops), op) for ops in groups.values() for i, op in enumerate(ops)]
    ops = [op for _, op in sorted(spread, key=lambda pair: pair[0])]

    # warm every catalog generator at every shape a description may name
    names = {d: ("H1", "H2", "H3", "H4", "H5") + (("H6", "H7") if d > 2 else ()) for d, _ in b.shapes}
    catalog = sorted({(n, d, deg) for d, deg in b.shapes for n in names[d]})
    return {
        "workload": workload,
        "seed": seed,
        "shapes": sorted(b.shapes),
        "catalog": catalog,
        "ops": ops,
    }

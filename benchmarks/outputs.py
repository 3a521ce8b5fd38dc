"""Hash the output of every perfbench operation, to diff two checkouts.

Builds the plan of each perfbench workload (``perfbench/workloads.py``,
``build_plan``) at one seed in a temporary directory and runs every
operation in-process through ``polyloewner.cli.main`` with
``--deterministic``.  It prints one line per operation: the workload, the
operation's index and label, its exit code, and the sha256 of its stdout
and stderr, with the temporary directory written as ``<workdir>``.  Two
checkouts print the same lines exactly when every operation's output is
byte-identical.

After the plans it hashes a fixed list of further checks, the same at any
seed, which no perfbench operation runs: ``verify-catalog`` at degrees 2,
4, 8 and 12, a polished search (``--method coordinate-ascent+polish``)
for each family, and ``check-generator`` on the dim-4 polynomial
generator (-z0 + 0.1 z0 z1, -z1, -z2, -z3).  Run from the repo root:

    PYTHONPATH=src python3 benchmarks/outputs.py --seed 11 > outputs-11.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, build_plan  # noqa: E402

from polyloewner import FAMILIES, cli  # noqa: E402


def _component(*terms) -> dict:
    return {"dim": 4, "degree": 2, "coeffs": [{"alpha": list(a), "re": c} for a, c in terms]}


# -z0 + 0.1 z0 z1, -z1, -z2, -z3: its membership scan meshes a whole dim-4 torus
_DIM4_GENERATOR = {
    "kind": "polynomial",
    "components": [
        _component(((1, 0, 0, 0), -1.0), ((1, 1, 0, 0), 0.1)),
        _component(((0, 1, 0, 0), -1.0)),
        _component(((0, 0, 1, 0), -1.0)),
        _component(((0, 0, 0, 1), -1.0)),
    ],
}


def _extras(workdir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of the further checks, in the order they are hashed."""
    generator = os.path.join(workdir, "dim4-generator.json")
    with open(generator, "w") as fh:
        json.dump(_DIM4_GENERATOR, fh)
    extras = [
        (f"verify-catalog-d{d}", ["verify-catalog", "--degree", str(d)]) for d in (2, 4, 8, 12)
    ]
    polish = ["--alpha", "1,1", "--budget", "200", "--method", "coordinate-ascent+polish"]
    extras += [
        (f"search-{family}-polish", ["search", "--family", family] + polish) for family in FAMILIES
    ]
    extras.append(("check-generator-dim4", ["check-generator", "--file", generator]))
    return extras


def _digest(out: str, err: str, workdir: str) -> str:
    digest = hashlib.sha256()
    for text in (out, err):
        digest.update(text.replace(workdir, "<workdir>").encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _run(argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
        except Exception:  # a crash is an output like any other
            rc = "traceback"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11, help="plan seed (default 11)")
    parser.add_argument(
        "--workload", choices=WORKLOADS, action="append", help="repeatable (default: all)"
    )
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            plan = build_plan(workload, args.seed, workdir)
            for k, op in enumerate(plan["ops"]):
                rc, out, err = _run(op["argv"] + ["--deterministic"])
                digest = _digest(out, err, workdir)
                print(f"{workload} {k:02d} {op['label']} rc={rc} {digest}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for k, (label, argv) in enumerate(_extras(workdir)):
            rc, out, err = _run(argv + ["--deterministic"])
            digest = _digest(out, err, workdir)
            print(f"extra {k:02d} {label} rc={rc} {digest}", flush=True)


if __name__ == "__main__":
    main()

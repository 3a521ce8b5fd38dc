"""Hash the output of every perfbench operation, to diff two checkouts.

Builds the plan of each perfbench workload (``perfbench/workloads.py``,
``build_plan``) at one seed in a temporary directory and runs every
operation in-process through ``polyloewner.cli.main`` with
``--deterministic``.  It prints one line per operation: the workload, the
operation's index and label, its exit code, and the sha256 of its stdout
and stderr, with the temporary directory written as ``<workdir>``.  Two
checkouts print the same lines exactly when every operation's output is
byte-identical.  Run from the repo root:

    PYTHONPATH=src python3 benchmarks/outputs.py --seed 11 > outputs-11.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, build_plan  # noqa: E402

from polyloewner import cli  # noqa: E402


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
                digest = hashlib.sha256()
                for text in (out, err):
                    digest.update(text.replace(workdir, "<workdir>").encode())
                    digest.update(b"\0")
                print(f"{workload} {k:02d} {op['label']} rc={rc} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()

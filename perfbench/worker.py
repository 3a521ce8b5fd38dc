"""One workload process: set up, then run passes of CLI calls in-process.

    python3 perfbench/worker.py --plan PLAN --mode MODE --seconds S --out RESULT

``setup`` imports the program and warms its caches (one set-up sample).
``measure`` does the same, then runs passes over the plan's calls until S
seconds have gone, always finishing the pass it is in.  ``trace`` traces
the set-up, runs untraced passes for the first half of S and traced
passes (see tracing.py) for the second.  Every call goes through the public
entry ``polyloewner.cli.main`` and its output is checked by checks.py.
The result is written as JSON to RESULT; run.py is the driver of this
script and sets the BLAS thread count before it starts.
"""

import time

_START = time.perf_counter()  # set-up time counts from before any import of the program

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import check_op  # noqa: E402
from workloads import VERB_METRIC  # noqa: E402

TIMED = sorted(set(VERB_METRIC.values()))


def import_program():
    import numpy  # noqa: F401

    from polyloewner import catalog, cli, kernels  # noqa: F401

    return cli


def warm(plan: dict) -> None:
    """Fill the basis tables and catalog caches the plan's calls will use."""
    from polyloewner import catalog, kernels

    for dim, degree in plan["shapes"]:
        tables = kernels.basis_tables(dim, degree)
        ident = kernels.identity_array(tables)
        kernels.compose_arrays(ident, ident, tables)
    for name, dim, degree in plan["catalog"]:
        catalog.catalog_generator(name, dim=dim, degree=degree)
    for name in catalog.catalog_names():
        catalog.catalog_get(name, catalog.minimal_dimension(name), 4)


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy reports, or None when it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy

    from polyloewner import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": kernels.default_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def call_cli(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
        except Exception:  # a crash is an outcome to report, not a reason to stop
            rc = "traceback"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


class Passes:
    """Runs whole passes over the plan's calls and keeps their outcomes."""

    def __init__(self, cli, ops, check=check_op):
        self.cli, self.ops, self.check = cli, ops, check
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[dict] = []
        self.walls: list[float] = []
        self.times: list[dict] = []
        self.op_seconds = [[] for _ in ops]

    def run(self, tracer=None) -> None:
        times = dict.fromkeys(TIMED, 0.0)
        t0 = time.perf_counter()
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.request = len(self.walls) * len(self.ops) + k
            rc, seconds, stdout, stderr = call_cli(self.cli, op["argv"])
            times[VERB_METRIC[op["verb"]]] += seconds
            self.op_seconds[k].append(seconds)
            status, reason = self.check(op, rc, stdout)
            self.attempted += 1
            if status != "ok":
                self.failed += 1
                self.wrong += status == "wrong"
                if len(self.problems) < 20:
                    self.problems.append(
                        {"label": op["label"], "status": status, "reason": reason, "stderr": stderr[-2000:]}
                    )
        self.walls.append(time.perf_counter() - t0)
        self.times.append(times)

    def run_for(self, seconds: float, tracer=None, after_each=None) -> None:
        start = time.perf_counter()
        while True:
            self.run(tracer)
            if after_each is not None:
                after_each()
            if time.perf_counter() - start >= seconds:
                return

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "problems": self.problems,
            "pass_walls": self.walls,
            "pass_times": self.times,
            "op_median_s": {
                op["label"]: statistics.median(s) for op, s in zip(self.ops, self.op_seconds) if s
            },
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    parser.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    cli = import_program()
    result = {}
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        warm(plan)
        tracer.uninstall()
        setup_layers = tracer.take()
        passes = Passes(cli, plan["ops"])
        passes.run_for(args.seconds / 2)
        untraced = list(passes.walls)
        traced_layers = []
        passes.check = tracer.wrap(check_op, "perfbench.check")
        tracer.install()
        passes.run_for(args.seconds / 2, tracer=tracer, after_each=lambda: traced_layers.append(tracer.take()))
        tracer.uninstall()
        walls = {"untraced": untraced, "traced": passes.walls[len(untraced):]}
        names = [n for n in args.per_layer.split(",") if n]
        result["per_layer"] = tracing.layer_metrics(names, setup_layers, traced_layers, tracer, walls)
        result["layers"] = traced_layers[-1]
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        warm(plan)
        result["setup_s"] = time.perf_counter() - _START
        if args.mode == "measure":
            passes = Passes(cli, plan["ops"])
            passes.run_for(args.seconds)
    if args.mode != "setup":
        result.update(passes.summary())
        result["fingerprint"] = fingerprint()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

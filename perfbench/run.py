"""Benchmark of polyloewner: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload search|jets|certify --seed N --seconds S --trace 0|1

From the root of a checkout.  The seed fixes every input (see
workloads.py); the inputs are written to perfbench/work/ and removed at
the end.  With --trace 0 the run starts SETUP_SAMPLES - 1 processes that
only set up, then one that sets up and runs passes of CLI calls for S
seconds, and prints the end-to-end metrics of BENCHMARK.json.  With
--trace 1 it starts one traced process and prints the per-layer metrics.
Every process runs with BLAS_THREADS BLAS threads.  The last line of
standard output is the result object; the full record of the run, with the
environment fingerprint, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 5   # set-up is timed in this many fresh processes; the median is reported
BLAS_THREADS = 1    # BLAS threads in every benchmark process (this machine has 2 cores)
DEADLINE_S = 170.0  # all processes of one run must end within this


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(mode: str, plan_path: str, out_path: str, seconds: float, deadline: float, extra=()) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--plan", plan_path, "--mode", mode, "--seconds", str(seconds), "--out", out_path, *extra,
    ]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the last process started")
    try:
        proc = subprocess.run(argv, env=_child_env(), stdout=sys.stderr, timeout=left, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the process
        raise BenchError(f"{mode} process ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "polyloewner", "cli.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        plan = build_plan(args.workload, args.seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        out_path = os.path.join(workdir, "result.json")
        if args.trace:
            wanted = spec["per_layer"]
            names = ",".join(m["name"] for m in wanted)
            spans = os.path.join(results, f"{tag}-spans.npz")
            res = _run_worker(
                "trace", plan_path, out_path, args.seconds, deadline, ("--per-layer", names, "--spans", spans)
            )
            values = res["per_layer"]
        else:
            wanted = spec["end_to_end"]
            setups = [
                _run_worker("setup", plan_path, out_path, 0.0, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = _run_worker("measure", plan_path, out_path, args.seconds, deadline)
            setups.append(res["setup_s"])
            values = {"setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
            for name in res["pass_times"][0]:
                values[name] = statistics.median(p[name] for p in res["pass_times"])
            res["setup_samples"] = setups
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **line, **res}
    with open(os.path.join(results, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in res["problems"]:
        print(f"perfbench: {problem['label']}: {problem['status']}: {problem['reason']}", file=sys.stderr)
    print("environment " + json.dumps(res["fingerprint"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark the jet engine: truncated-jet composition and RK4 steps.

Times the two hot paths, one composition and a run of RK4 jet steps, on
a few representative shapes and prints the best of several repeats.
Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from polyloewner.catalog import catalog_generator
from polyloewner.kernels import basis_tables, compose_arrays, identity_array, rk4_jet_arrays

SHAPES = ((2, 4), (2, 6), (3, 4), (3, 6), (3, 8))


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100, help="RK4 steps per timing (default 100)")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats, best is kept (default 5)")
    args = parser.parse_args()

    header = f"{'dim':>3} {'deg':>3} {'B':>4} {'pairs':>6} {'compose (us)':>13} {f'rk4 x{args.steps} (ms)':>16}"
    print(header)
    print("-" * len(header))
    for dim, degree in SHAPES:
        tables = basis_tables(dim, degree)
        gen = catalog_generator("H1", dim=dim, degree=degree).jet_array(degree)
        state = identity_array(tables)
        hs = np.full(args.steps, 1e-2)
        compose_us = 1e6 * _best_of(args.repeats, lambda: compose_arrays(gen, state, tables))
        rk4_ms = 1e3 * _best_of(args.repeats, lambda: rk4_jet_arrays(gen, state, hs, tables))
        print(
            f"{dim:>3} {degree:>3} {tables.size:>4} {tables.mul_k.size:>6} "
            f"{compose_us:>13.1f} {rk4_ms:>16.2f}"
        )


if __name__ == "__main__":
    main()

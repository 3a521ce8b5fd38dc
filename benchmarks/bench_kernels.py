"""Benchmark the jet engine: composition, RK4 steps and Koenigs pairs.

Times the hot paths on a few representative shapes and prints the best
of several repeats, with the bytes of index arrays the shape's monomial
layers hold: one composition, a run of RK4 jet steps, one series
solve of a Koenigs pair (K, L), and the pair of a fresh rotation of the
same generator, which is the cached base pair times the rotation phases.
Then, for a rotated constant field and a 2-piece rotated field (pairs
cached), ``parametric_limit`` at horizon 12 against the exact T = inf
limit that a search objective reads.  Then one Koenigs solve of H1 at
(4, 10), the largest dim-4 shape the basis cap admits.  Last, per shape,
the torus check of
the ``Generator`` constructor on H1: the full-FFT oracle (one exp per mesh
point, ``np.fft.fftn``, dict jets and ``map_distance``) against the array
route ``fourier.torus_error`` (points from a cached ring, truncated DFT).
Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from polyloewner.catalog import catalog_generator
from polyloewner.evolution import (
    HerglotzField,
    _koenigs_pair,
    _scaled_flow,
    _solve_koenigs_pair,
    parametric_limit,
)
from polyloewner.fourier import torus_error, torus_grid
from polyloewner.generators import rotate_generator
from polyloewner.jets import JetMap, MultiJet, map_distance, multiindices
from polyloewner.kernels import basis_tables, compose_arrays, identity_array, rk4_jet_arrays

SHAPES = ((2, 4), (2, 6), (3, 4), (3, 6), (3, 8))
LARGE_SHAPE = (4, 10)
TORUS_SHAPES = ((2, 4), (3, 6), (3, 8), (2, 16))


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _layer_kb(tables) -> float:
    """Kilobytes of the index arrays in the shape's monomial layer tables."""
    layers = tables.monomial_layers
    arrays = [a for layer in layers for a in layer if isinstance(a, np.ndarray)]
    arrays += [a for layer in layers for block in layer.blocks for a in block[2:]]
    return sum(a.nbytes for a in arrays) / 1024


def _fft_torus_check(gen, radius: float, samples: int) -> float:
    """The oracle route: coefficients by the full FFT, compared as dict jets."""
    dim, degree = gen.dim, gen.degree
    theta = 2.0 * np.pi * np.arange(samples) / samples
    axes = np.meshgrid(*([theta] * dim), indexing="ij")
    pts = np.stack([radius * np.exp(1j * ax) for ax in axes], axis=-1)
    vals = gen.evaluate(pts.reshape(-1, dim)).reshape(pts.shape)
    hat = np.fft.fftn(vals, axes=tuple(range(dim))) / samples**dim
    coeffs = [{} for _ in range(dim)]
    for alpha in multiindices(dim, degree):
        for i, c in enumerate(hat[alpha] / radius ** sum(alpha)):
            coeffs[i][alpha] = complex(c)
    probe = JetMap(tuple(MultiJet(dim, degree, c) for c in coeffs), gen.jet.normalization)
    return map_distance(probe, gen.jet)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=100, help="RK4 steps per timing (default 100)")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats, best is kept (default 5)")
    args = parser.parse_args()

    header = (
        f"{'dim':>3} {'deg':>3} {'B':>4} {'pairs':>6} {'layers (kB)':>11} {'compose (us)':>13} "
        f"{f'rk4 x{args.steps} (ms)':>16} {'K,L solve (us)':>15} {'K,L rotate (us)':>16} "
        f"{'1pc T=12 (us)':>14} {'1pc T=inf (us)':>15} {'2pc T=12 (us)':>14} {'2pc T=inf (us)':>15}"
    )
    print(header)
    print("-" * len(header))
    angles = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=max(d for d, _ in SHAPES))
    for dim, degree in SHAPES:
        tables = basis_tables(dim, degree)
        base = catalog_generator("H1", dim=dim, degree=degree)
        gen = base.jet_array(degree)
        state = identity_array(tables)
        hs = np.full(args.steps, 1e-2)
        compose_us = 1e6 * _best_of(args.repeats, lambda: compose_arrays(gen, state, tables))
        rk4_ms = 1e3 * _best_of(args.repeats, lambda: rk4_jet_arrays(gen, state, hs, tables))
        solve_us = 1e6 * _best_of(args.repeats, lambda: _solve_koenigs_pair(base, tables))
        _koenigs_pair(base, tables)  # cache the base pair
        rotate_us = 1e6 * _best_of(
            args.repeats, lambda: _koenigs_pair(rotate_generator(base, angles[:dim]), tables)
        )
        limits_us = []
        for field in (
            HerglotzField.constant(rotate_generator(base, angles[:dim])),
            HerglotzField.build(
                [rotate_generator(base, angles[:dim]), rotate_generator(base, angles[::-1][:dim])],
                [4.0],
            ),
        ):
            _scaled_flow(field, (math.inf,), tables, 12.0)  # cache the rotations' pairs
            for limit in (
                lambda: parametric_limit(field, horizon=12.0, degree=degree),
                lambda: _scaled_flow(field, (math.inf,), tables, 12.0),
            ):
                limits_us.append(1e6 * _best_of(args.repeats, limit))
        print(
            f"{dim:>3} {degree:>3} {tables.size:>4} {tables.mul_k.size:>6} {_layer_kb(tables):>11.1f} "
            f"{compose_us:>13.1f} {rk4_ms:>16.2f} {solve_us:>15.1f} {rotate_us:>16.1f} "
            + " ".join(f"{us:>{w}.1f}" for us, w in zip(limits_us, (14, 15, 14, 15)))
        )

    dim, degree = LARGE_SHAPE
    tables = basis_tables(dim, degree)
    base = catalog_generator("H1", dim=dim, degree=degree)
    solve_s = _best_of(1, lambda: _solve_koenigs_pair(base, tables))
    print(
        f"\nKoenigs solve of H1 at ({dim}, {degree}), B = {tables.size}, "
        f"{tables.mul_k.size} pairs, layers {_layer_kb(tables) / 1024:.1f} MB: {solve_s:.2f} s"
    )

    header = f"{'dim':>3} {'deg':>3} {'radius':>6} {'N':>4} {'FFT oracle (ms)':>16} {'array route (ms)':>17}"
    print()
    print(header)
    print("-" * len(header))
    for dim, degree in TORUS_SHAPES:
        tables = basis_tables(dim, degree)
        gen = catalog_generator("H1", dim=dim, degree=degree)
        arr = gen.jet_array(degree)
        radius, samples = torus_grid(degree)
        fft_ms = 1e3 * _best_of(args.repeats, lambda: _fft_torus_check(gen, radius, samples))
        array_ms = 1e3 * _best_of(args.repeats, lambda: torus_error(gen.evaluate, arr, tables))
        print(f"{dim:>3} {degree:>3} {radius:>6} {samples:>4} {fft_ms:>16.2f} {array_ms:>17.2f}")


if __name__ == "__main__":
    main()

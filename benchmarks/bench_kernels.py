"""Benchmark the jet engine: composition, RK4 steps, Koenigs pairs and chains.

Times the hot paths on a few representative shapes and prints the best
of several repeats, with the bytes of index arrays the shape's monomial
layers hold: one composition, a run of RK4 jet steps (``evolve_jet`` on
the constant field of H1, four compositions a step), one series
solve of a Koenigs pair (K, L), and the pair of a fresh rotation of the
same generator, which is the cached base pair times the rotation phases.
Then, for a rotated constant field and a 2-piece rotated field (pairs
cached), ``parametric_limit`` at horizon 12 against the exact T = inf
limit that a search objective reads.  Then the transition jet that the
``evolve`` verb reports: ``evolve_report`` (the exact Koenigs chain, one
composition per piece plus one to chain it on) against the route it
replaced, RK4 ``evolve_jet`` at the step and again at half the step for
a Richardson figure, on a 3-piece rotated field (H1, H2, H4, breakpoints
0.7 and 1.3) from s = 0.5 to t = 1.5, with the largest gap between the
chain and RK4 at the step.  RK4 stays in ``evolve_jet`` and
``evolve_point``, as the chain's oracle.  Then one Koenigs solve of H1 at
(4, 10), the largest dim-4 shape the basis cap admits.  Then, per shape,
the torus check of the ``Generator`` constructor on H1: the full-FFT
oracle (one exp per mesh point, ``np.fft.fftn``, dict jets and
``map_distance``) against the array route ``fourier.torus_error`` (points
from a cached ring, truncated DFT).
Then, at (2, 3) and (3, 3), the generator constructors a search or a
description calls: ``product_form`` (``TRUSTED``, no torus check),
``convex_combination`` of a rotated and a plain catalog generator,
``rotate_generator``, ``from_starlike`` with the torus check it runs on
its result, and the ``Generator`` constructor on a catalog jet, once as
``TRUSTED`` and once as ``TORUS``, whose difference is the constructor's
torus check.  Then the pointwise limit that ``bounds --field`` evaluates:
``limit_evaluator`` at horizon 15 (RK4 to the breakpoint, then the tail's
exact Koenigs map) against RK4 all the way, ``exp(T) * evolve_point``, on
two-piece rotated fields of dim 2 (H1, H4) and dim 3 (H6, H7) at 50
points, with the largest relative gap between the two.  Last, the
starlike probe: ``from_starlike`` of F6 and F7 at (3, 4), the map's
evaluator and Jacobian on its 32**3-point probe torus, the vectorized LU
that solves Df x = f there and gives det Df (``generators._lu_solve``)
against the per-point LAPACK route ``np.linalg.det`` plus
``np.linalg.solve`` on the same Jacobians, and ``verify_catalog()``.
Then a catalog entry built cold (``catalog._cached_entry`` past its
cache): H2 at (2, 4) and (3, 4), F2 at (3, 4) and H1 at (4, 3), each
torus-checked at its minimal dimension 2, and F7 at (3, 4), built at its
minimal dimension, as the control.  Last, the search objective at degree
3: microseconds per call for each family at 1, 2 and 3 pieces, dims 2
and 3, over fixed sampled parameter vectors with the caches warm.  Run
from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from polyloewner.catalog import _cached_entry, catalog_generator, catalog_get, verify_catalog
from polyloewner.evolution import (
    HerglotzField,
    _field_schedule,
    _scaled_flow,
    evolve_jet,
    evolve_point,
    evolve_report,
    limit_evaluator,
    parametric_limit,
)
from polyloewner.fourier import _torus_points, torus_error, torus_grid
from polyloewner.generators import (
    Admission,
    AtomicMeasure,
    Generator,
    _lu_solve,
    convex_combination,
    from_starlike,
    product_form,
    rotate_generator,
)
from polyloewner.jets import JetMap, MultiJet, map_distance, multiindices
from polyloewner.kernels import basis_tables, compose_arrays, identity_array
from polyloewner.search import FAMILIES, SearchSpace, _sample_params, objective

SHAPES = ((2, 4), (2, 6), (3, 4), (3, 6), (3, 8))
LARGE_SHAPE = (4, 10)
TORUS_SHAPES = ((2, 4), (3, 6), (3, 8), (2, 16))
CONSTRUCTOR_SHAPES = ((2, 3), (3, 3))
LIMIT_FIELDS = {2: ("H1", "H4"), 3: ("H6", "H7")}
LIMIT_HORIZON = 15.0
LIMIT_POINTS = 50
STARLIKE_SHAPE = (3, 4)
EVOLVE_SHAPES = ((2, 4), (3, 4), (3, 8))
EVOLVE_FIELD = (("H1", "H2", "H4"), (0.7, 1.3))
EVOLVE_WINDOW = (0.5, 1.5)
EVOLVE_STEP = 1e-2
CATALOG_COLD = (("H2", 2, 4), ("H2", 3, 4), ("F2", 3, 4), ("H1", 4, 3), ("F7", 3, 4))
OBJECTIVE_VECTORS = 40


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_solve(repeats: int, gen: Generator, degree: int) -> float:
    """Best time of the series solve: ``koenigs_pair`` on fresh, uncached copies of ``gen``."""
    best = float("inf")
    for _ in range(repeats):
        fresh = Generator(
            gen.jet_array(degree), gen.evaluate, {"kind": "copy"}, admission=Admission.TRUSTED
        )
        t0 = time.perf_counter()
        fresh.koenigs_pair(degree)
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
        f"{f'evolve_jet x{args.steps} (ms)':>23} {'K,L solve (us)':>15} {'K,L rotate (us)':>16} "
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
        constant = HerglotzField.constant(base)
        compose_us = 1e6 * _best_of(args.repeats, lambda: compose_arrays(gen, state, tables))
        rk4_ms = 1e3 * _best_of(
            args.repeats, lambda: evolve_jet(constant, 0.0, args.steps * 1e-2, degree, 1e-2)
        )
        solve_us = 1e6 * _best_solve(args.repeats, base, degree)
        base.koenigs_pair(degree)  # cache the base pair
        rotate_us = 1e6 * _best_of(
            args.repeats, lambda: rotate_generator(base, angles[:dim]).koenigs_pair(degree)
        )
        limits_us = []
        for field in (
            HerglotzField.constant(rotate_generator(base, angles[:dim])),
            HerglotzField.build(
                [rotate_generator(base, angles[:dim]), rotate_generator(base, angles[::-1][:dim])],
                [4.0],
            ),
        ):
            for limit in (
                lambda: parametric_limit(field, horizon=12.0, degree=degree),
                lambda: _scaled_flow(
                    _field_schedule(field, tables), 0.0, (math.inf,), tables, 12.0
                ),
            ):
                limit()  # cache the rotations' pairs
                limits_us.append(1e6 * _best_of(args.repeats, limit))
        print(
            f"{dim:>3} {degree:>3} {tables.size:>4} {tables.mul_k.size:>6} {_layer_kb(tables):>11.1f} "
            f"{compose_us:>13.1f} {rk4_ms:>23.2f} {solve_us:>15.1f} {rotate_us:>16.1f} "
            + " ".join(f"{us:>{w}.1f}" for us, w in zip(limits_us, (14, 15, 14, 15)))
        )

    header = f"{'dim':>3} {'deg':>3} {'chain (ms)':>11} {'RK4 + half step (ms)':>21} {'gap':>8}"
    print()
    print(header)
    print("-" * len(header))
    s, t = EVOLVE_WINDOW
    names, breaks = EVOLVE_FIELD
    for dim, degree in EVOLVE_SHAPES:
        field = HerglotzField.build(
            [rotate_generator(catalog_generator(n, dim=dim, degree=degree), angles[:dim]) for n in names],
            breaks,
        )

        def chain(field=field, degree=degree):
            return evolve_report(field, s, t, degree=degree)

        def rk4(field=field, degree=degree):
            return [evolve_jet(field, s, t, degree=degree, step=h) for h in (EVOLVE_STEP, EVOLVE_STEP / 2)]

        gap = map_distance(chain().jet, rk4()[0])  # also solves the pieces' Koenigs pairs
        chain_ms = 1e3 * _best_of(args.repeats, chain)
        rk4_ms = 1e3 * _best_of(args.repeats, rk4)
        print(f"{dim:>3} {degree:>3} {chain_ms:>11.2f} {rk4_ms:>21.2f} {gap:>8.1e}")

    dim, degree = LARGE_SHAPE
    tables = basis_tables(dim, degree)
    base = catalog_generator("H1", dim=dim, degree=degree)
    solve_s = _best_solve(1, base, degree)
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

    header = (
        f"{'dim':>3} {'deg':>3} {'product_form (us)':>18} {'convex_comb (us)':>17} "
        f"{'rotate (us)':>12} {'from_starlike (us)':>19} {'TRUSTED (us)':>13} {'TORUS (us)':>11}"
    )
    print()
    print(header)
    print("-" * len(header))
    measures = [AtomicMeasure(((0.3, 0.6), (2.0, 0.4))), AtomicMeasure(((-1.1, 1.0),)), None]
    for dim, degree in CONSTRUCTOR_SHAPES:
        selectors = [(k + 1) % dim for k in range(dim)]
        h1 = catalog_generator("H1", dim=dim, degree=degree)
        h2 = catalog_generator("H2", dim=dim, degree=degree)
        f1 = catalog_get("F1", dim=dim, degree=degree)
        rotated = rotate_generator(h1, angles[:dim])
        calls = (
            lambda: product_form(selectors, measures[:dim], degree=degree),
            lambda: convex_combination([rotated, h2], [0.3, 0.7]),
            lambda: rotate_generator(h1, angles[:dim]),
            lambda: from_starlike(f1),
            lambda: Generator(h1.jet, h1.evaluate, {"kind": "test"}, admission=Admission.TRUSTED),
            lambda: Generator(h1.jet, h1.evaluate, {"kind": "test"}),
        )
        times = [_best_of(args.repeats, call) for call in calls]
        print(
            f"{dim:>3} {degree:>3} "
            + " ".join(f"{1e6 * s:>{w}.1f}" for s, w in zip(times, (18, 17, 12, 19, 13, 11)))
        )

    header = f"{'dim':>3} {'pieces':>9} {'exact tail (ms)':>16} {'RK4 to T (ms)':>14} {'rel gap':>8}"
    print()
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(1)
    for dim, names in LIMIT_FIELDS.items():
        field = HerglotzField.build(
            [rotate_generator(catalog_generator(n, dim=dim), rng.uniform(0, 2 * np.pi, dim)) for n in names],
            [0.7],
        )
        z = rng.normal(size=(LIMIT_POINTS, dim)) + 1j * rng.normal(size=(LIMIT_POINTS, dim))
        z *= np.linspace(0.05, 0.95, LIMIT_POINTS)[:, None] / np.max(np.abs(z), axis=-1, keepdims=True)

        def exact(field=field, z=z):
            return limit_evaluator(field, horizon=LIMIT_HORIZON)(z)

        def rk4(field=field, z=z):
            return math.exp(LIMIT_HORIZON) * evolve_point(field, 0.0, LIMIT_HORIZON, z)

        exact()  # resolve the tail's Koenigs map
        gap = np.max(np.abs(exact() - rk4())) / np.max(np.abs(rk4()))
        exact_ms = 1e3 * _best_of(args.repeats, exact)
        rk4_ms = 1e3 * _best_of(args.repeats, rk4)
        print(f"{dim:>3} {'/'.join(names):>9} {exact_ms:>16.2f} {rk4_ms:>14.2f} {gap:>8.1e}")

    dim, degree = STARLIKE_SHAPE
    probe = _torus_points(dim, *torus_grid(degree), slice(None))
    header = (
        f"{'map':>3} {'from_starlike (ms)':>19} {'F (ms)':>7} {'DF (ms)':>8} "
        f"{'LU (ms)':>8} {'det+solve (ms)':>15}"
    )
    print(f"\nstarlike probe at ({dim}, {degree}), {len(probe)} torus points")
    print(header)
    print("-" * len(header))
    for name in ("F6", "F7"):
        f = catalog_get(name, dim, degree)
        jac, vals = f.jacobian(probe), f.evaluator(probe)
        calls = (
            lambda: from_starlike(f),
            lambda: f.evaluator(probe),
            lambda: f.jacobian(probe),
            lambda: _lu_solve(jac, vals),
            lambda: (np.linalg.det(jac), np.linalg.solve(jac, vals[..., None])),
        )
        times = [1e3 * _best_of(args.repeats, call) for call in calls]
        print(f"{name:>3} " + " ".join(f"{ms:>{w}.2f}" for ms, w in zip(times, (19, 7, 8, 8, 15))))
    print(f"verify_catalog(): {1e3 * _best_of(args.repeats, verify_catalog):.1f} ms")
    _catalog_cold(args.repeats)
    _objective_calls(args.repeats)


def _catalog_cold(repeats: int) -> None:
    """A catalog entry built and checked past the cache, per entry of ``CATALOG_COLD``."""
    header = f"{'name':>4} {'dim':>3} {'deg':>3} {'cold entry (ms)':>16}"
    print("\ncatalog entry, cold")
    print(header)
    print("-" * len(header))
    for name, dim, degree in CATALOG_COLD:
        ms = 1e3 * _best_of(repeats, lambda: _cached_entry.__wrapped__(name, dim, degree))
        print(f"{name:>4} {dim:>3} {degree:>3} {ms:>16.2f}")


def _objective_calls(repeats: int) -> None:
    """Microseconds per ``search.objective`` call, per family, dim and piece count.

    Each row runs the same ``OBJECTIVE_VECTORS`` sampled parameter vectors
    (``search._sample_params``, seed 0) after one warm pass, which fills
    the catalog and Koenigs-pair caches as a search does; the best of
    ``repeats`` passes, divided by the vector count, is reported.
    """
    header = f"{'family':>16} {'dim':>3} {'pieces':>6} {'objective (us/call)':>20}"
    print("\nsearch objective, degree 3")
    print(header)
    print("-" * len(header))
    for family in FAMILIES:
        for dim in (2, 3):
            for pieces in (1, 2, 3):
                space = SearchSpace(dim=dim, alpha=(1, 1, 0)[:dim], family=family, pieces=pieces)
                rng = np.random.default_rng(0)
                vectors = [_sample_params(space, rng) for _ in range(OBJECTIVE_VECTORS)]

                def calls(space=space, vectors=vectors):
                    for params in vectors:
                        objective(space, params)

                calls()
                us = 1e6 * _best_of(repeats, calls) / len(vectors)
                print(f"{family:>16} {dim:>3} {pieces:>6} {us:>20.1f}")


if __name__ == "__main__":
    main()

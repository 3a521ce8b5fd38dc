"""Names the benchmark in perfbench/ relies on when it traces a run.

perfbench/tracing.py reads call arguments by parameter name, wraps
``HerglotzField.build`` through the class ``__dict__`` and counts the
membership points from the ``GridSpec`` fields; perfbench/worker.py
records ``default_backend()``; perfbench/test_perfbench.py calls
``_membership_mesh``.  These checks keep a cleanup of the program from
breaking that harness without a failure here.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from polyloewner import bounds, catalog, evolution, generators, kernels


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_benchmark_hooks_keep_their_names():
    assert {"g", "grid"} <= set(_params(generators.membership_check))
    assert _params(evolution.evolve_point)[:5] == ["field", "s", "t", "z", "step"]
    assert "points" in _params(bounds.koebe_check)
    assert isinstance(evolution.HerglotzField.__dict__["build"], staticmethod)
    assert isinstance(kernels.default_backend(), str)


def test_membership_hooks_keep_their_names():
    assert _params(generators._membership_mesh) == ["dim", "j", "deps", "r", "grid"]
    fields = {f.name for f in dataclasses.fields(generators.GridSpec)}
    assert {"radii", "angle_count", "companion_factors"} <= fields
    grid_default = inspect.signature(generators.membership_check).parameters["grid"].default
    assert isinstance(grid_default, generators.GridSpec)


def test_tracer_point_formula_counts_the_reference_torus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    grid = generators.REFERENCE_GRID
    for gen in (catalog.catalog_generator("H6", dim=3), catalog.catalog_generator("H2")):
        mesh = sum(
            len(generators._membership_mesh(gen.dim, j, gen.margin_deps[j], r, grid))
            for j in range(gen.dim)
            for r in grid.radii
        )
        bound = type("Bound", (), {"arguments": {"g": gen, "grid": grid}})
        assert tracing._membership_counts(bound)["points"] == mesh

"""Names the benchmark in perfbench/ relies on when it traces a run.

perfbench/tracing.py reads call arguments by parameter name and wraps
``HerglotzField.build`` through the class ``__dict__``; perfbench/worker.py
records ``default_backend()``.  These checks keep a cleanup of the
program from breaking that harness without a failure here.
"""

import inspect

from polyloewner import bounds, evolution, generators, kernels


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_benchmark_hooks_keep_their_names():
    assert {"g", "grid"} <= set(_params(generators.membership_check))
    assert "hs" in _params(kernels.rk4_jet_arrays)
    assert _params(evolution.evolve_point)[:5] == ["field", "s", "t", "z", "step"]
    assert "points" in _params(bounds.koebe_check)
    assert isinstance(evolution.HerglotzField.__dict__["build"], staticmethod)
    assert isinstance(kernels.default_backend(), str)

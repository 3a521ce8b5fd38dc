"""The CLI contract under generated flags: exit 0/1/2, one envelope or one error line.

Drives ``cli.main`` in-process over ``search``, ``limit``, ``evolve`` and
``bounds`` with small budgets and degrees, and with horizons, times, steps
and certify horizons drawn from extreme values (0, -1, 0.5, NaN, +-inf,
1e300) and ordinary ones.  Ordinary values are kept small (times <= 8,
steps >= 0.05) so that every run is quick; the extreme ones must be
refused or handled without a traceback.  ``catalog --dump``, ``bounds
--name`` and ``check-generator`` run at the edge degrees: below the
catalog's least degree (-1, 0, 1) and at it (2), at each step of the
torus grids (12, 13, 17, 43, 44), and far past the basis cap (10**9);
``catalog --dump`` also runs at dim 5, past the torus mesh limit.
"""

import contextlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polyloewner.cli import main

EXTREME = st.sampled_from([0.0, -1.0, 0.5, math.nan, math.inf, -math.inf, 1e300])
HORIZONS = st.one_of(EXTREME, st.floats(1.0, 8.0))
TIMES = st.one_of(EXTREME, st.floats(0.0, 3.0))
STEPS = st.one_of(EXTREME, st.floats(0.05, 1.0))
DEGREES = st.integers(0, 4)


FIELD = "FIELD"  # stands for the path of the module's field file


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    path.write_text(
        json.dumps(
            {
                "schedule": [
                    {"until": 1.0, "generator": {"kind": "catalog", "name": "H1"}},
                    {"generator": {"kind": "catalog", "name": "H4"}},
                ]
            }
        )
    )
    return str(path)


def _flag(name: str, value: float) -> str:
    # the `--flag=value` form keeps argparse from reading "-inf" as a flag
    return f"--{name}={value!r}"


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(["search", "limit", "evolve", "bounds"]))
    degree = ["--degree", str(draw(DEGREES))]
    if verb == "search":
        return [
            "search", "--alpha", draw(st.sampled_from(["1,1", "2,0", "0,2"])),
            "--budget", str(draw(st.integers(-1, 6))),
            "--pieces", str(draw(st.integers(1, 2))),
            _flag("horizon", draw(HORIZONS)), _flag("certify-horizon", draw(HORIZONS)),
            *degree,
        ]
    if verb == "evolve":
        return [
            "evolve", "--field", FIELD,
            _flag("t", draw(TIMES)), _flag("step", draw(STEPS)), *degree,
        ]
    extra = ["--growth-points", "4"] if verb == "bounds" else []
    return [
        verb, "--field", FIELD,
        _flag("horizon", draw(HORIZONS)), _flag("step", draw(STEPS)), *degree, *extra,
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--deterministic"])
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("polyloewner: error:") and len(err.splitlines()) == 1, (argv, err)
    else:
        assert err == "", (argv, err)
        envelope = json.loads(out)
        assert envelope["command"] == argv[0] and envelope["passed"] is (code == 0), argv
    return code


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argvs())
# non-finite evolution times and steps, which once reached math.floor
# (a traceback) or json.dumps (an infinite value, a traceback)
@example(argv=["evolve", "--field", FIELD, "--t=nan", "--step=0.1", "--degree", "2"])
@example(argv=["evolve", "--field", FIELD, "--t=inf", "--step=0.1", "--degree", "2"])
@example(argv=["evolve", "--field", FIELD, "--t=0.5", "--step=nan", "--degree", "2"])
@example(argv=["evolve", "--field", FIELD, "--t=0.0", "--step=inf", "--degree", "2"])
def test_every_input_gets_an_envelope_or_one_error_line(field_file, argv):
    _assert_contract([field_file if a == FIELD else a for a in argv])


GENERATORS = {
    "product-form": {
        "kind": "product-form",
        "selectors": [1, 0],
        "measures": [{"atoms": [{"angle": 0.3, "weight": 0.6}, {"angle": 2.0, "weight": 0.4}]}, None],
    },
    "from-starlike": {"kind": "from-starlike", "map": {"kind": "catalog", "name": "F1"}},
    "rotation": {"kind": "rotation", "angles": [0.4, -1.0], "base": {"kind": "catalog", "name": "H4"}},
}


@pytest.fixture(scope="module")
def generator_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("generators")
    paths = []
    for kind, desc in GENERATORS.items():
        path = folder / f"{kind}.json"
        path.write_text(json.dumps(desc))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("degree", [-1, 0, 1, 2, 12, 13, 17, 32, 43, 44, 10**9])
def test_catalog_and_generator_verbs_at_every_edge_degree(generator_files, degree):
    # degree 17 once failed the catalog's torus check, 32..43 were refused,
    # and a from-starlike description at 10**9 ran without end
    argvs = [["catalog", "--dump", name] for name in ("F1", "H3", "F7", "H6")]
    argvs += [["bounds", "--name", name] for name in ("F2", "H7")]
    argvs += [["check-generator", "--file", path] for path in generator_files]
    codes = [_assert_contract(argv + ["--degree", str(degree)]) for argv in argvs]
    if 2 <= degree <= 12:
        assert codes == [0] * len(argvs)
    if degree in (13, 17, 32, 43):
        # every dim-2 call passes; dim 3 stops at the basis cap past degree 16
        dim3 = 2 if degree > 16 else 0
        assert codes == [0, 0, dim3, dim3, 0, dim3, 0, 0, 0]


def test_a_torus_past_the_mesh_limit_is_refused_before_it_is_built():
    # dim 5 at 32 samples would mesh 2.5 GiB of points and values
    tracemalloc.start()
    try:
        code = _assert_contract(["catalog", "--dump", "F1", "--dim", "5", "--degree", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 16 * 2**20

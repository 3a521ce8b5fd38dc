"""The CLI contract under generated flags: exit 0/1/2, one envelope or one error line.

Drives ``cli.main`` in-process over ``search``, ``limit``, ``evolve`` and
``bounds`` with small budgets and degrees, and with horizons, times, steps
and certify horizons drawn from extreme values (0, -1, 0.5, NaN, +-inf,
1e300) and ordinary ones.  Ordinary values are kept small (times <= 8,
steps >= 0.05) so that every run is quick; the extreme ones must be
refused or handled without a traceback.  ``catalog --dump``, ``bounds
--name`` and ``check-generator`` run at the edge degrees: below the
catalog's least degree (-1, 0, 1) and at it (2), at each step of the
torus grids (12, 13, 17, 43, 44), and far past the basis cap (10**9).
At dim 5, past the torus mesh limit, ``check-generator`` refuses a
polynomial description and ``catalog --dump`` answers, since a catalog
entry is checked at its minimal dimension.
``--dim`` on ``catalog`` and ``search``, ``verify-catalog`` and
``caratheodory`` run over edge dimensions, degrees, tolerances and atom
texts, with search budgets of at most 4.
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


# the Koenigs chain takes no steps, yet it validates --step as RK4 does
@pytest.mark.parametrize(
    "flag",
    ["--t=nan", "--t=inf", "--t=-inf", "--t=-1.0", "--s=-5", "--s=-1e-300",
     "--step=nan", "--step=inf", "--step=0.0", "--step=-0.1"],
)
def test_evolve_refuses_times_and_steps_outside_their_range(field_file, flag):
    assert _assert_contract(["evolve", "--field", field_file, flag, "--degree", "2"]) == 2


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


def _traced(argv):
    """The contract's exit code of ``argv`` and the peak of traced memory while it runs."""
    tracemalloc.start()
    try:
        code = _assert_contract(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_a_torus_past_the_mesh_limit_is_refused_before_it_is_built(tmp_path):
    # a dim-5 polynomial generator is probed on the torus, and dim 5 at 32
    # samples would mesh 2.5 GiB of points and values
    n = 5
    components = [
        {"dim": n, "degree": 2, "coeffs": [{"alpha": [int(v == j) for v in range(n)], "re": -1.0}]}
        for j in range(n)
    ]
    path = tmp_path / "dim5.json"
    path.write_text(json.dumps({"kind": "polynomial", "components": components}))
    code, peak = _traced(["check-generator", "--file", str(path), "--degree", "2"])
    assert code == 2
    assert peak < 16 * 2**20


def test_a_catalog_entry_past_the_mesh_limit_is_checked_at_its_minimal_dim():
    code, peak = _traced(["catalog", "--dump", "F1", "--dim", "5", "--degree", "2"])
    assert code == 0
    assert peak < 16 * 2**20


# -- generated descriptions -------------------------------------------------

JUNK = st.sampled_from([None, 5, -1, 1e308, True, "", "x", "ab", "H1", [], [None], {}])
HUGE = st.sampled_from([0.0, -1.0, 1e154, 1e308, -1e308])


def _mostly(valid, invalid):
    """Valid values about three times in four, so that most calls get past decoding."""
    return st.integers(0, 3).flatmap(lambda k: invalid if k == 3 else valid)


ANGLES = _mostly(
    st.lists(st.floats(-7.0, 7.0), min_size=2, max_size=2),
    st.one_of(JUNK, st.lists(HUGE, min_size=1, max_size=3)),
)
WEIGHTS = _mostly(
    st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75]]),
    st.one_of(JUNK, st.lists(HUGE, max_size=2)),
)
ATOMS = _mostly(
    st.sampled_from(
        [
            [{"angle": 0.3, "weight": 1.0}],
            [{"angle": 2.0, "weight": 0.4}, {"angle": -1.0, "weight": 0.6}],
        ]
    ),
    st.one_of(
        JUNK,
        st.lists(st.fixed_dictionaries({"angle": st.one_of(HUGE, JUNK), "weight": HUGE}), max_size=2),
    ),
)
MEASURES = _mostly(
    st.lists(st.one_of(st.none(), st.fixed_dictionaries({"atoms": ATOMS})), min_size=2, max_size=2),
    st.one_of(JUNK, st.lists(JUNK, max_size=3)),
)
SELECTORS = _mostly(
    st.sampled_from([[0, 1], [1, 0], [1, 1]]),
    st.one_of(JUNK, st.lists(st.sampled_from([2, -1, "a"]), max_size=3)),
)
LEAVES = _mostly(
    st.one_of(
        st.sampled_from(
            [
                {"kind": "catalog", "name": "H1"},
                {"kind": "catalog", "name": "H4"},
                {"kind": "dilation", "dim": 2},
                {"kind": "from-starlike", "map": {"kind": "catalog", "name": "F4"}},
            ]
        ),
        st.fixed_dictionaries({"kind": st.just("product-form"), "selectors": SELECTORS, "measures": MEASURES}),
    ),
    st.one_of(
        JUNK,
        st.sampled_from(
            [
                {"kind": "catalog", "name": "F1"},
                {"kind": "catalog", "name": 5},
                {"kind": "dilation", "dim": "two"},
                {"kind": "from-starlike", "map": "F4"},
                {"kind": "polynomial", "components": 5},
                {"kind": "nonsense"},
                {"provenance": "x"},
                {},
            ]
        ),
    ),
)


def _nested(children):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("rotation"), "base": children, "angles": ANGLES}),
        st.fixed_dictionaries({"kind": st.sampled_from(["shear-linear", "shear-quadratic"]), "base": children}),
        st.fixed_dictionaries(
            {
                "kind": st.just("convex-combination"),
                "parts": _mostly(st.lists(children, min_size=1, max_size=2), st.one_of(JUNK, st.just([]))),
                "weights": WEIGHTS,
            }
        ),
    )


DESCRIPTIONS = st.recursive(LEAVES, _nested, max_leaves=3)


@st.composite
def described_calls(draw):
    """(verb, document): a generator description, or a field schedule around one."""
    verb = draw(st.sampled_from(["check-generator", "bounds", "limit"]))
    desc = draw(DESCRIPTIONS)
    if verb != "limit":
        return verb, desc
    entry = draw(
        _mostly(st.sampled_from([{}, {"until": 0.5}]), st.sampled_from([{"until": -1.0}, {"until": "x"}]))
    )
    return verb, draw(
        _mostly(
            st.sampled_from(
                [
                    {"schedule": [dict(entry, generator=desc)]},
                    {"schedule": [{"until": 0.5, "generator": desc}, {"generator": desc}]},
                ]
            ),
            st.sampled_from([desc, {"schedule": []}, {"schedule": desc}, []]),
        )
    )


_VERB_FLAG = {"check-generator": "--file", "bounds": "--generator", "limit": "--field"}

# the description cases that once exited 1 with a traceback
MALFORMED = [
    "x",
    {"kind": "rotation", "angles": [0.1, 0.2], "base": "H1"},
    {"kind": "shear-linear", "base": "H1"},
    {"kind": "convex-combination", "parts": "ab", "weights": [0.5, 0.5]},
    {"kind": "convex-combination", "parts": None, "weights": [1.0]},
    {"kind": "product-form", "selectors": [1, 0], "measures": 5},
    {"kind": "rotation", "angles": [1e308, 1e308], "base": {"kind": "catalog", "name": "H4"}},
]


@pytest.fixture(scope="module")
def description_path(tmp_path_factory):
    return tmp_path_factory.mktemp("descriptions") / "description.json"


def _described_call(path, verb, document):
    path.write_text(json.dumps(document))
    argv = [verb, _VERB_FLAG[verb], str(path), "--degree", "3"]
    return _assert_contract(argv + (["--growth-points", "4"] if verb == "bounds" else []))


@pytest.mark.parametrize("verb", sorted(_VERB_FLAG))
@pytest.mark.parametrize("desc", MALFORMED)
def test_malformed_descriptions_exit_2(description_path, verb, desc):
    document = {"schedule": [{"generator": desc}]} if verb == "limit" and desc != "x" else desc
    assert _described_call(description_path, verb, document) == 2


def test_a_description_nested_past_the_recursion_limit_exits_2(description_path):
    # 500 levels decode, but building and scanning them recurses past the limit
    text = json.dumps({"kind": "catalog", "name": "H1"})
    for _ in range(500):
        text = '{"kind": "convex-combination", "weights": [1.0], "parts": [' + text + "]}"
    description_path.write_text(text)
    assert _assert_contract(["check-generator", "--file", str(description_path)]) == 2


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(call=described_calls())
@example(call=("check-generator", "x"))
@example(call=("bounds", {"kind": "shear-linear", "base": "abc"}))
@example(call=("limit", {"schedule": [{"generator": MALFORMED[5]}]}))
def test_generated_descriptions_get_an_envelope_or_one_error_line(description_path, call):
    _described_call(description_path, *call)


# -- dimensions and the remaining verbs -------------------------------------

DIMS = _mostly(st.sampled_from([2, 3]), st.sampled_from([-1, 0, 1, 5, 10**9]))
CARATHEODORY_DEGREES = _mostly(st.sampled_from([1, 4, 1000]), st.sampled_from([-1, 0, 1001, 10**9]))
TOLS = _mostly(st.sampled_from([1e-10, 1e-6, 0.5]), EXTREME)
ATOM_TEXTS = _mostly(
    st.sampled_from(["0:1", "0.3:0.6,2:0.4", "1:1,1:1", "-1e3:2"]),
    st.sampled_from(["", "x", "1:", ":1", "0:1:2", "0:0", "0:-1", "0:nan", "nan:1", "inf:1",
                     "1e308:1", "0:1e308,1:1e308", "0:inf"]),
)


@st.composite
def other_argvs(draw):
    """``--dim`` on ``catalog`` and ``search``, and ``caratheodory``."""
    verb = draw(st.sampled_from(["catalog", "search", "caratheodory"]))
    if verb == "catalog":
        name = draw(st.sampled_from(["F1", "H3", "F7", "H6", "all"]))
        return ["catalog", "--dump", name, "--dim", str(draw(DIMS)), "--degree", "2"]
    if verb == "search":
        dim = draw(DIMS)
        size = draw(_mostly(st.just(min(max(dim, 1), 5)), st.integers(1, 4)))
        # mostly a target of degree 2 or 3, the search degree
        hits = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=3))
        alpha = [hits.count(k) for k in range(size)]
        alpha = draw(_mostly(st.just(alpha), st.lists(st.integers(0, 2), min_size=size, max_size=size)))
        return [
            "search", "--alpha", ",".join(map(str, alpha)), "--dim", str(dim),
            "--family", draw(st.sampled_from(["catalog-rotation", "product-form", "convex-combo"])),
            "--budget", str(draw(_mostly(st.integers(1, 4), st.integers(-1, 0)))),
            "--pieces", str(draw(st.integers(1, 2))),
        ]
    degree = str(draw(CARATHEODORY_DEGREES))
    return ["caratheodory", f"--atoms={draw(ATOM_TEXTS)}", "--degree", degree, _flag("tol", draw(TOLS))]


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=other_argvs())
def test_dims_and_the_remaining_verbs_get_an_envelope_or_one_error_line(argv):
    _assert_contract(argv)


@pytest.mark.parametrize(
    "flags,expected",
    [(["--degree", d], 2) for d in ("-1", "0", "1", str(10**9))]
    + [(["--degree", d], 0) for d in ("2", "3")]
    + [([_flag(name, v)], 2) for name in ("tol", "membership-tol") for v in (math.nan, math.inf)]
    + [([_flag("tol", -1.0)], 1)]
    + [([_flag("membership-tol", -1.0)], 1), ([_flag("membership-tol", 0.0)], 0)],
)
def test_verify_catalog_at_edge_degrees_and_tolerances(flags, expected):
    # a NaN tolerance once reached the envelope's config, and json.dumps (a traceback)
    degree = [] if flags[0] == "--degree" else ["--degree", "2"]
    assert _assert_contract(["verify-catalog", *flags, *degree]) == expected

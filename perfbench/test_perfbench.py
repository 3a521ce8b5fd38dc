"""Tests of the benchmark itself: each output check must reject a corrupted output.

    python3 -m pytest perfbench -q

Every check is first run on a real output of ``polyloewner.cli.main`` for
a seeded input and must pass; then one field of that output is corrupted
and the check must fail.  The tracer's work counts are compared with the
program's own step grid and membership mesh.
"""

from __future__ import annotations

import copy
import json
import math

import pytest

import checks
import tracing
import workloads
import worker

cli = worker.import_program()


def _ops(tmp_path, build):
    b = workloads._Builder("test", 7, str(tmp_path))
    build(b)
    return b.ops


def _run(op):
    rc, _seconds, stdout, _stderr = worker.call_cli(cli, op["argv"])
    assert checks.check_op(op, rc, stdout) == ("ok", ""), stdout[-500:]
    return rc, json.loads(stdout)


def _judge(op, rc, envelope):
    return checks.check_op(op, rc, json.dumps(envelope))[0]


def _corrupt(op, rc, envelope, edit):
    bad = copy.deepcopy(envelope)
    edit(bad["report"])
    return _judge(op, rc, bad)


def _coeff(report_map, comp, alpha):
    for e in report_map["components"][comp]["coeffs"]:
        if tuple(e["alpha"]) == tuple(alpha):
            return e
    raise KeyError(alpha)


def _row(report, label):
    return next(r for r in report["checks"] if r["check"] == label)


@pytest.fixture(scope="module")
def catalog_run(tmp_path_factory):
    (op,) = _ops(tmp_path_factory.mktemp("catalog"), lambda b: b.verify_catalog())
    return op, *_run(op)


def test_exit_code_and_malformed_output_are_failures(tmp_path):
    (op,) = _ops(tmp_path, lambda b: b.limit_exact(2, 4))
    rc, env = _run(op)
    assert checks.check_op(op, 2, json.dumps(env))[0] == "exit"
    assert checks.check_op(op, "traceback", "")[0] == "exit"
    assert checks.check_op(op, rc, "not json")[0] == "wrong"
    flipped = dict(env, passed=False)
    assert _judge(op, rc, flipped) == "wrong"


def test_search_check(tmp_path):
    (op,) = _ops(tmp_path, lambda b: b.search((2, 0), 2, budget=60))
    rc, env = _run(op)
    assert _corrupt(op, rc, env, lambda r: r.update(certified_value=2.01)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r.update(certified_value=1.95)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r.update(sound=False)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r.update(evaluations=61)) == "wrong"


def test_search_family_that_cannot_reach_gets_soundness_only(tmp_path):
    (op,) = _ops(tmp_path, lambda b: b.search((0, 2), 2, budget=60, family="product-form"))
    rc, env = _run(op)
    assert env["report"]["certified_value"] == 0.0
    assert _corrupt(op, rc, env, lambda r: r.update(certified_value=1.001)) == "wrong"


def test_limit_bounds_check(tmp_path):
    (op,) = _ops(tmp_path, lambda b: b.limit_piecewise(2, 4, pieces=3))
    rc, env = _run(op)
    assert _corrupt(op, rc, env, lambda r: _coeff(r["jet"], 0, (1, 0)).update(re=1.001)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r["jet"]["components"][1]["coeffs"].append(
        {"alpha": [2, 0], "re": 1.5, "im": 0.0})) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r.update(tail_bound=0.5)) == "wrong"


def test_limit_exact_check(tmp_path):
    (op,) = _ops(tmp_path, lambda b: b.limit_exact(3, 5))
    rc, env = _run(op)
    alpha = {"F1": (2, 0, 0), "F2": (1, 1, 0), "F4": (0, 2, 0), "F6": (0, 1, 1)}[op["check"]["starlike"]]
    assert _corrupt(op, rc, env, lambda r: _coeff(r["jet"], 0, alpha).update(
        re=_coeff(r["jet"], 0, alpha)["re"] + 1e-6)) == "wrong"
    wrong_phase = copy.deepcopy(op)
    wrong_phase["check"]["angles"][0] += 0.1  # moves the phase of every F's degree-2 row
    wrong_phase["check"]["angles"][1] += 0.2
    assert _judge(wrong_phase, rc, env) == "wrong"


def test_evolve_checks(tmp_path):
    linear, h4 = _ops(tmp_path, lambda b: (b.evolve_piecewise(2, 3), b.evolve_h4(2, 3)))
    rc, env = _run(linear)
    assert _corrupt(linear, rc, env, lambda r: _coeff(r["jet"], 1, (0, 1)).update(
        re=_coeff(r["jet"], 1, (0, 1))["re"] * (1 + 1e-6))) == "wrong"
    assert _corrupt(linear, rc, env, lambda r: r.update(error_estimate=1e-3)) == "wrong"
    rc, env = _run(h4)
    assert _corrupt(h4, rc, env, lambda r: _coeff(r["jet"], 0, (0, 2)).update(
        re=_coeff(r["jet"], 0, (0, 2))["re"] + 1e-6)) == "wrong"


def test_h4_closed_form_reads_one_minus_exp():
    op = {"check": {"kind": "evolve-h4", "dim": 2, "s": 0.0, "t": 3.0}}
    lam, c = math.exp(-3.0), 1.0 - math.exp(-1.0)
    jet = {"components": [
        {"coeffs": [{"alpha": [1, 0], "re": lam, "im": 0.0}, {"alpha": [0, 2], "re": lam * c, "im": 0.0}]},
        {"coeffs": [{"alpha": [0, 1], "re": lam, "im": 0.0}]},
    ]}
    checks._evolve_h4(op["check"], {"jet": jet, "error_estimate": 0.0})
    jet["components"][0]["coeffs"][1]["re"] = lam * (1.0 - math.exp(-3.0))
    with pytest.raises(checks.CheckFailed):
        checks._evolve_h4(op["check"], {"jet": jet, "error_estimate": 0.0})


def test_verify_catalog_check(catalog_run):
    op, rc, env = catalog_run
    assert _corrupt(op, rc, env, lambda r: r["checks"][3].update(jet_error=1e-8)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r["checks"][5]["membership"].update(passed=False)) == "wrong"
    assert _corrupt(op, rc, env, lambda r: r["checks"].pop()) == "wrong"


def test_generator_checks(tmp_path):
    good, bad = _ops(tmp_path, lambda b: (b.check_generator(b.convex_combination(3), "g"), b.check_violator()))
    rc, env = _run(good)
    assert _corrupt(good, rc, env, lambda r: r["certificate"].update(worst_margin=1e-3)) == "wrong"
    assert _corrupt(good, rc, env, lambda r: r["certificate"].update(passed=False)) == "wrong"
    rc, env = _run(bad)
    assert rc == 1
    assert checks.check_op(bad, 0, json.dumps(dict(env, passed=True)))[0] == "exit"

    def outside(r):
        r["certificate"]["witness_point"] = [{"re": 1.2 * p["re"], "im": 1.2 * p["im"]} for p in r["certificate"]["witness_point"]]

    def harmless(r):
        r["certificate"]["witness_point"] = [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.0}]

    assert _corrupt(bad, rc, env, outside) == "wrong"
    assert _corrupt(bad, rc, env, harmless) == "wrong"
    assert _corrupt(bad, rc, env, lambda r: r["certificate"].update(worst_margin=5.0)) == "wrong"


def test_bounds_checks(tmp_path):
    ops = _ops(tmp_path, lambda b: (b.bounds_name("F2"), b.bounds_name("H1"), b.bounds_field(2), b.bounds_generator(2)))
    name_f, name_h, field, gen = ops
    rc, env = _run(name_f)
    assert _corrupt(name_f, rc, env, lambda r: _row(r, "A[0](1,1)").update(attained=1.9)) == "wrong"
    assert _corrupt(name_f, rc, env, lambda r: _row(r, "A[1](0,2)").update(attained=0.1)) == "wrong"
    assert _corrupt(name_f, rc, env, lambda r: _row(r, "growth-upper-excess").update(
        attained=_row(r, "growth-upper-excess")["attained"] + 1e-6)) == "wrong"
    rc, env = _run(name_h)
    assert _corrupt(name_h, rc, env, lambda r: _row(r, "c[0](2,0)").update(equality=False)) == "wrong"
    rc, env = _run(field)
    assert _corrupt(field, rc, env, lambda r: _row(r, "A[0](0,2)").update(bound=2.0)) == "wrong"
    assert _corrupt(field, rc, env, lambda r: _row(r, "A[1](2,0)").update(attained=1.5)) == "wrong"
    assert _corrupt(field, rc, env, lambda r: _row(r, "growth-lower-deficit").update(attained=0.1)) == "wrong"
    rc, env = _run(gen)
    assert _corrupt(gen, rc, env, lambda r: _row(r, "c[1](1,1)").update(attained=2.5)) == "wrong"


def test_plans_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build_plan(name, 5, str(tmp_path))
        b = workloads.build_plan(name, 5, str(tmp_path))
        c = workloads.build_plan(name, 6, str(tmp_path))
        assert a == b
        assert [op["argv"] for op in a["ops"]] != [op["argv"] for op in c["ops"]]
        assert {workloads.VERB_METRIC[op["verb"]] for op in a["ops"]} == set(workloads.VERB_METRIC.values())


def test_tracer_counts_match_the_program():
    from polyloewner import catalog, evolution, generators, kernels

    field = evolution.HerglotzField.build(
        [catalog.catalog_generator("H1"), catalog.catalog_generator("H4")], [0.37]
    )
    for s, t, step in ((0.0, 1.0, 1e-2), (0.123, 0.9, 0.05), (0.2, 0.37, 0.01)):
        assert tracing._step_count(s, t, step, field.breakpoints) == len(evolution._step_times(s, t, step, field.breakpoints)) - 1
    grid = generators.REFERENCE_GRID
    for gen in (catalog.catalog_generator("H6", dim=3), catalog.catalog_generator("H2")):
        mesh = sum(
            len(generators._membership_mesh(gen.dim, j, gen.margin_deps[j], r, grid))
            for j in range(gen.dim) for r in grid.radii
        )
        bound = type("B", (), {"arguments": {"g": gen, "grid": grid}})
        assert tracing._membership_counts(bound)["points"] == mesh

    tracer = tracing.Tracer()
    original = kernels.compose_arrays
    tracer.install()
    try:
        assert evolution.compose_arrays is kernels.compose_arrays is not original
        evolution.parametric_limit(field, degree=3)
    finally:
        tracer.uninstall()
    assert evolution.compose_arrays is kernels.compose_arrays is original
    layers = tracer.take()
    top = layers["evolution.parametric_limit"]
    assert layers["kernels.compose_arrays"]["calls"] > 0
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(top["s"], rel=1e-9)

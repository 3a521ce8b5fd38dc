"""Exact truncated-jet algebra against closed-form power series.

The dict-jet oracles of ``tests/oracles.py`` (composition, the matrix solve
and rotations) are checked here against closed forms as well.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyloewner import (
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    SingularityError,
    analytic_jet,
    compose,
    jacobian,
    jet_distance,
    jet_from_json,
    jet_to_json,
    map_distance,
    map_to_json,
    multiindices,
    series_in_var,
    variable_jet,
)
from polyloewner.jets import grlex_key
from oracles import (
    compose_scalar,
    constant_jet,
    identity_map,
    map_from_json,
    matrix_solve,
    rotate_map,
)


def test_multiindices_graded_count_and_order():
    for dim, degree in ((1, 4), (2, 3), (3, 4)):
        idx = multiindices(dim, degree)
        assert len(idx) == math.comb(dim + degree, degree)
        assert len(set(idx)) == len(idx)
        keys = [grlex_key(a) for a in idx]
        assert keys == sorted(keys)
        assert all(sum(a) <= degree for a in idx)


def test_known_series_coefficients():
    geo = analytic_jet("geometric", 1, 5, 0)
    assert all(geo.coefficient((k,)) == 1 for k in range(6))
    log = analytic_jet("log1p", 1, 5, 0)
    assert log.coefficient((0,)) == 0
    for k in range(1, 6):
        assert log.coefficient((k,)) == pytest.approx((-1) ** (k + 1) / k)
    u = np.exp(0.3j)
    mob = analytic_jet("mobius", 2, 4, 1, u=u)
    assert mob.coefficient((0, 0)) == pytest.approx(1)
    for k in range(1, 5):
        assert mob.coefficient((0, k)) == pytest.approx(2 * u ** (-k))


def test_mobius_requires_unimodular_parameter():
    with pytest.raises(DomainError):
        analytic_jet("mobius", 1, 3, 0, u=0.5)
    with pytest.raises(DomainError):
        analytic_jet("mobius", 1, 3, 0)
    with pytest.raises(DomainError):
        analytic_jet("nope", 1, 3, 0)


def test_product_cancels_geometric_series():
    # (1 - z) * (1 + z + z^2 + ...) truncates to exactly 1
    one_minus = series_in_var(1, 6, 0, [1, -1])
    geo = analytic_jet("geometric", 1, 6, 0)
    prod = one_minus * geo
    assert prod.coeffs == {(0,): 1.0 + 0j}


def test_evaluation_matches_horner_sum(rng):
    jet = MultiJet(2, 3, {(0, 0): 0.5, (1, 0): 2.0, (1, 1): -1j, (0, 3): 3.0})
    z = 0.4 * (rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)))
    direct = 0.5 + 2.0 * z[:, 0] - 1j * z[:, 0] * z[:, 1] + 3.0 * z[:, 1] ** 3
    assert np.allclose(jet(z), direct, atol=1e-14)


def test_compose_mobius_inverse_is_identity():
    # z/(1-z) composed with z/(1+z) is exactly z at any truncation
    outer = variable_jet(2, 5, 0) * analytic_jet("geometric", 2, 5, 0)
    damp = series_in_var(2, 5, 0, [0] + [(-1) ** (k + 1) for k in range(1, 6)])
    inner = JetMap((damp, variable_jet(2, 5, 1)), Normalization.GENERAL)
    got = compose_scalar(outer, inner)
    assert jet_distance(got, variable_jet(2, 5, 0)) < 1e-12


def test_compose_rejects_nonzero_inner_constant():
    inner = JetMap(
        (constant_jet(2, 3, 0.1), variable_jet(2, 3, 1)), Normalization.GENERAL
    )
    with pytest.raises(DomainError):
        compose(identity_map(2, 3), inner)


def test_compose_associative_on_polynomials():
    f = JetMap(
        (
            variable_jet(2, 4, 0) + MultiJet(2, 4, {(1, 1): 0.3}),
            variable_jet(2, 4, 1) + MultiJet(2, 4, {(2, 0): -0.2j}),
        ),
        Normalization.GENERAL,
    )
    g = JetMap(
        (
            variable_jet(2, 4, 0) + MultiJet(2, 4, {(0, 2): 1.1}),
            variable_jet(2, 4, 1) + MultiJet(2, 4, {(1, 1): 0.7}),
        ),
        Normalization.GENERAL,
    )
    h = JetMap(
        (
            variable_jet(2, 4, 0) + MultiJet(2, 4, {(2, 0): -0.4}),
            variable_jet(2, 4, 1) + MultiJet(2, 4, {(0, 2): 0.9j}),
        ),
        Normalization.GENERAL,
    )
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert map_distance(left, right) < 1e-12


def test_jacobian_of_polynomial_map():
    f = JetMap(
        (
            variable_jet(2, 3, 0) + MultiJet(2, 3, {(0, 2): 1.0}),
            variable_jet(2, 3, 1),
        ),
        Normalization.UNIVALENT,
    )
    J = jacobian(f)
    assert J[0][0].coeffs == {(0, 0): 1.0 + 0j}
    assert J[0][1].coeffs == {(0, 1): 2.0 + 0j}
    assert J[1][0].coeffs == {}
    assert J[1][1].coeffs == {(0, 0): 1.0 + 0j}


def test_matrix_solve_inverts_jacobian_action():
    f = JetMap(
        (
            variable_jet(2, 4, 0) + MultiJet(2, 4, {(1, 1): 0.5, (0, 2): -0.25j}),
            variable_jet(2, 4, 1) + MultiJet(2, 4, {(2, 0): 0.125}),
        ),
        Normalization.UNIVALENT,
    )
    J = jacobian(f)
    x = matrix_solve(J, f.components)
    # residual J x - f must vanish up to the truncation degree
    for i in range(2):
        resid = sum(
            (J[i][j].truncated(4) * x[j] for j in range(2)), constant_jet(2, 4, 0.0)
        )
        diff = resid - f.components[i]
        assert diff.max_abs_coeff() < 1e-13


def test_matrix_solve_detects_singular_linear_part():
    f = JetMap(
        (variable_jet(2, 3, 0), variable_jet(2, 3, 0)), Normalization.GENERAL
    )
    J = jacobian(f)
    with pytest.raises(SingularityError):
        matrix_solve(J, f.components)


def test_rotation_applies_coefficient_phases():
    f = JetMap(
        (
            variable_jet(2, 3, 0) + MultiJet(2, 3, {(0, 2): 1.0}),
            variable_jet(2, 3, 1),
        ),
        Normalization.UNIVALENT,
    )
    th = (0.0, math.pi / 2)
    rot = rotate_map(f, th)
    # phase exp(i(<alpha, th> - th_j)): alpha=(0,2), j=0 -> exp(i pi) = -1
    assert rot.coefficient(0, (0, 2)) == pytest.approx(-1.0)
    assert rot.coefficient(0, (1, 0)) == pytest.approx(1.0)
    back = rotate_map(rot, tuple(-t for t in th))
    assert map_distance(back, f) < 1e-15


def test_rotation_is_an_evaluation_conjugation(rng):
    f = JetMap(
        (
            variable_jet(2, 3, 0) + MultiJet(2, 3, {(1, 1): 0.3, (0, 2): -0.7j}),
            variable_jet(2, 3, 1) + MultiJet(2, 3, {(2, 0): 0.2}),
        ),
        Normalization.UNIVALENT,
    )
    th = np.array([0.4, -1.1])
    rot = rotate_map(f, th)
    z = 0.3 * (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
    direct = np.exp(-1j * th) * f(np.exp(1j * th) * z)
    assert np.allclose(rot(z), direct, atol=1e-13)


def test_truncation_and_homogeneous_parts():
    jet = MultiJet(2, 4, {(1, 0): 1.0, (1, 1): 2.0, (2, 2): 3.0})
    assert jet.truncated(2).coeffs == {(1, 0): 1.0 + 0j, (1, 1): 2.0 + 0j}
    assert jet.homogeneous_part(2) == {(1, 1): 2.0 + 0j}
    lifted = jet.truncated(2).truncated(4)
    assert lifted.degree == 4 and lifted.coefficient((2, 2)) == 0


def test_normalization_tags_are_validated():
    bad = JetMap((variable_jet(1, 2, 0) * 2.0,), Normalization.UNIVALENT)
    from polyloewner.jets import assert_normalization

    with pytest.raises(DomainError):
        assert_normalization(bad)
    ok = JetMap((variable_jet(1, 2, 0) * -1.0,), Normalization.GENERATOR)
    assert_normalization(ok)


def test_shape_errors():
    with pytest.raises(JetShapeError):
        MultiJet(2, 2, {(1,): 1.0})
    with pytest.raises(JetShapeError):
        MultiJet(2, 2, {(2, 1): 1.0})
    with pytest.raises(JetShapeError):
        JetMap((variable_jet(2, 2, 0),), Normalization.GENERAL)
    a = variable_jet(1, 2, 0)
    b = variable_jet(2, 2, 0)
    with pytest.raises(JetShapeError):
        _ = a + b


def test_json_round_trip_is_exact():
    jet = MultiJet(2, 3, {(1, 0): 1 + 2j, (0, 3): -0.25})
    assert jet_from_json(jet_to_json(jet)).coeffs == jet.coeffs
    f = JetMap((jet, variable_jet(2, 3, 1)), Normalization.GENERAL)
    g = map_from_json(map_to_json(f))
    assert g.normalization == f.normalization
    assert map_distance(f, g) == 0.0


def test_json_rejects_malformed_objects():
    with pytest.raises(DomainError):
        jet_from_json({"dim": 2, "degree": 3})
    with pytest.raises(DomainError):
        map_from_json({"dim": 2, "degree": 3, "components": []})


coeff_st = st.complex_numbers(
    min_magnitude=0, max_magnitude=2, allow_nan=False, allow_infinity=False
)


@st.composite
def small_jets(draw, dim=2, degree=3):
    alphas = multiindices(dim, degree)
    chosen = draw(st.lists(st.sampled_from(alphas), max_size=5))
    return MultiJet(dim, degree, {a: draw(coeff_st) for a in chosen})


@settings(max_examples=60, deadline=None)
@given(a=small_jets(), b=small_jets(), c=small_jets())
# three terms meet at (2, 1): summed in operand order, a*b and b*a differed by 2.2e-16
@example(
    a=MultiJet(2, 3, {(0, 0): 1e-12, (1, 0): 0.25, (1, 1): 2j}),
    b=MultiJet(2, 3, {(2, 1): 1.0, (1, 0): 1j, (1, 1): 1.9282294558521302}),
    c=MultiJet(2, 3, {}),
)
def test_ring_axioms_hold_exactly_enough(a, b, c):
    assert jet_distance(a * b, b * a) == 0.0
    d = (a + b) * c - (a * c + b * c)
    assert d.max_abs_coeff() < 1e-9
    e = (a * b) * c - a * (b * c)
    assert e.max_abs_coeff() < 1e-9


@settings(max_examples=40, deadline=None)
@given(a=small_jets())
def test_distance_is_a_metric_to_zero(a):
    assert jet_distance(a, a) == 0.0
    z = MultiJet(2, 3, {})
    assert jet_distance(a, z) == a.max_abs_coeff()

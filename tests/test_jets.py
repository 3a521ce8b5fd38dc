"""Jet values, and the jet algebra against closed-form power series.

The program's products run through ``kernels``; the dict-jet ring and
oracles of ``tests/oracles.py`` (products, composition, the matrix solve
and rotations) are checked here against closed forms as well.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyloewner import (
    AtomicMeasure,
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    SingularityError,
    basis_tables,
    catalog,
    catalog_get,
    compose,
    from_starlike,
    generator_from_json,
    jet_distance,
    jet_from_json,
    jet_to_json,
    map_distance,
    map_to_json,
    multiindices,
)
from polyloewner.jets import grlex_key
from polyloewner.kernels import mul_arrays
from oracles import (
    add,
    coeffs,
    components,
    compose_scalar,
    constant_jet,
    dict_evaluate,
    dict_jet_to_json,
    geometric_jet,
    identity_map,
    jacobian,
    map_from_json,
    matrix_solve,
    mul,
    rotate_map,
    series_in_var,
    truncated,
    variable_jet,
)


def test_multiindices_graded_count_and_order():
    for dim, degree in ((1, 4), (2, 3), (3, 4)):
        idx = multiindices(dim, degree)
        assert len(idx) == math.comb(dim + degree, degree)
        assert len(set(idx)) == len(idx)
        keys = [grlex_key(a) for a in idx]
        assert keys == sorted(keys)
        assert all(sum(a) <= degree for a in idx)


def test_product_cancels_geometric_series():
    # (1 - z) * (1 + z + z^2 + ...) truncates to exactly 1
    one_minus = series_in_var(1, 6, 0, [1, -1])
    prod = mul(one_minus, geometric_jet(1, 6, 0))
    assert coeffs(prod) == {(0,): 1.0 + 0j}


def test_evaluation_matches_horner_sum(rng):
    jet = MultiJet(2, 3, {(0, 0): 0.5, (1, 0): 2.0, (1, 1): -1j, (0, 3): 3.0})
    z = 0.4 * (rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)))
    direct = 0.5 + 2.0 * z[:, 0] - 1j * z[:, 0] * z[:, 1] + 3.0 * z[:, 1] ** 3
    assert np.allclose(jet(z), direct, atol=1e-14)


def test_compose_mobius_inverse_is_identity():
    # z/(1-z) composed with z/(1+z) is exactly z at any truncation
    outer = mul(variable_jet(2, 5, 0), geometric_jet(2, 5, 0))
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
            add(variable_jet(2, 4, 0), MultiJet(2, 4, {(1, 1): 0.3})),
            add(variable_jet(2, 4, 1), MultiJet(2, 4, {(2, 0): -0.2j})),
        ),
        Normalization.GENERAL,
    )
    g = JetMap(
        (
            add(variable_jet(2, 4, 0), MultiJet(2, 4, {(0, 2): 1.1})),
            add(variable_jet(2, 4, 1), MultiJet(2, 4, {(1, 1): 0.7})),
        ),
        Normalization.GENERAL,
    )
    h = JetMap(
        (
            add(variable_jet(2, 4, 0), MultiJet(2, 4, {(2, 0): -0.4})),
            add(variable_jet(2, 4, 1), MultiJet(2, 4, {(0, 2): 0.9j})),
        ),
        Normalization.GENERAL,
    )
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert map_distance(left, right) < 1e-12


def test_jacobian_of_polynomial_map():
    f = JetMap(
        (
            add(variable_jet(2, 3, 0), MultiJet(2, 3, {(0, 2): 1.0})),
            variable_jet(2, 3, 1),
        ),
        Normalization.UNIVALENT,
    )
    J = jacobian(f)
    assert coeffs(J[0][0]) == {(0, 0): 1.0 + 0j}
    assert coeffs(J[0][1]) == {(0, 1): 2.0 + 0j}
    assert coeffs(J[1][0]) == {}
    assert coeffs(J[1][1]) == {(0, 0): 1.0 + 0j}


def test_matrix_solve_inverts_jacobian_action():
    f = JetMap(
        (
            add(variable_jet(2, 4, 0), MultiJet(2, 4, {(1, 1): 0.5, (0, 2): -0.25j})),
            add(variable_jet(2, 4, 1), MultiJet(2, 4, {(2, 0): 0.125})),
        ),
        Normalization.UNIVALENT,
    )
    J = jacobian(f)
    x = matrix_solve(J, components(f))
    # residual J x - f must vanish up to the truncation degree
    for i in range(2):
        resid = add(mul(truncated(J[i][0], 4), x[0]), mul(truncated(J[i][1], 4), x[1]))
        assert jet_distance(resid, f.component(i)) < 1e-13


def test_matrix_solve_detects_singular_linear_part():
    f = JetMap(
        (variable_jet(2, 3, 0), variable_jet(2, 3, 0)), Normalization.GENERAL
    )
    J = jacobian(f)
    with pytest.raises(SingularityError):
        matrix_solve(J, components(f))


def test_rotation_applies_coefficient_phases():
    f = JetMap(
        (
            add(variable_jet(2, 3, 0), MultiJet(2, 3, {(0, 2): 1.0})),
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
            add(variable_jet(2, 3, 0), MultiJet(2, 3, {(1, 1): 0.3, (0, 2): -0.7j})),
            add(variable_jet(2, 3, 1), MultiJet(2, 3, {(2, 0): 0.2})),
        ),
        Normalization.UNIVALENT,
    )
    th = np.array([0.4, -1.1])
    rot = rotate_map(f, th)
    z = 0.3 * (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
    direct = np.exp(-1j * th) * f(np.exp(1j * th) * z)
    assert np.allclose(rot(z), direct, atol=1e-13)


def test_truncation_drops_and_lifts_degrees():
    jet = MultiJet(2, 4, {(1, 0): 1.0, (1, 1): 2.0, (2, 2): 3.0})
    assert coeffs(truncated(jet, 2)) == {(1, 0): 1.0 + 0j, (1, 1): 2.0 + 0j}
    lifted = truncated(truncated(jet, 2), 4)
    assert lifted.degree == 4 and lifted.coefficient((2, 2)) == 0


def test_normalization_tags_are_validated():
    bad = JetMap((MultiJet(1, 2, {(1,): 2.0}),), Normalization.UNIVALENT)
    from polyloewner.jets import assert_normalization

    with pytest.raises(DomainError):
        assert_normalization(bad)
    ok = JetMap((MultiJet(1, 2, {(1,): -1.0}),), Normalization.GENERATOR)
    assert_normalization(ok)


def test_shape_errors():
    with pytest.raises(JetShapeError):
        MultiJet(2, 2, {(1,): 1.0})
    with pytest.raises(JetShapeError):
        MultiJet(2, 2, {(2, 1): 1.0})
    with pytest.raises(JetShapeError):
        JetMap((variable_jet(2, 2, 0),), Normalization.GENERAL)
    with pytest.raises(JetShapeError):
        JetMap((variable_jet(2, 2, 0), variable_jet(2, 3, 1)), Normalization.GENERAL)


@pytest.mark.parametrize(
    "copied", [lambda j: pickle.loads(pickle.dumps(j)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copied_jet_stays_read_only(copied):
    jet = catalog_get("H3").jet
    for original in (jet, jet.component(1)):
        twin = copied(original)
        assert type(twin) is type(original) and twin == original
        assert twin.array.flags.writeable is False
        with pytest.raises(AttributeError):
            twin.degree = 5


def test_json_round_trip_is_exact():
    jet = MultiJet(2, 3, {(1, 0): 1 + 2j, (0, 3): -0.25})
    assert jet_from_json(jet_to_json(jet)) == jet
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


def _vector(jet: MultiJet) -> np.ndarray:
    return np.array([jet.coefficient(alpha) for alpha in basis_tables(2, 3).alphas])


@settings(max_examples=60, deadline=None)
@given(a=small_jets(), b=small_jets(), c=small_jets())
# three terms meet at (2, 1): summed in operand order, a*b and b*a differed by 2.2e-16
@example(
    a=MultiJet(2, 3, {(0, 0): 1e-12, (1, 0): 0.25, (1, 1): 2j}),
    b=MultiJet(2, 3, {(2, 1): 1.0, (1, 0): 1j, (1, 1): 1.9282294558521302}),
    c=MultiJet(2, 3, {}),
)
def test_ring_axioms_hold_exactly_enough(a, b, c):
    # the dict ring runs a*b and b*a over one sorted loop, so it commutes exactly
    assert jet_distance(mul(a, b), mul(b, a)) == 0.0
    # kernels.mul_arrays sums the pairs (i, j) of b*a in the mirrored order
    # of a*b, so there commutation holds to roundoff like the other axioms
    tables = basis_tables(2, 3)
    a, b, c = _vector(a), _vector(b), _vector(c)

    def m(x, y):
        return mul_arrays(x, y, tables)

    assert np.max(np.abs(m(a, b) - m(b, a))) < 1e-9
    assert np.max(np.abs(m(a + b, c) - (m(a, c) + m(b, c)))) < 1e-9
    assert np.max(np.abs(m(m(a, b), c) - m(a, m(b, c)))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(a=small_jets())
def test_distance_is_a_metric_to_zero(a):
    assert jet_distance(a, a) == 0.0
    z = MultiJet(2, 3, {})
    assert jet_distance(a, z) == max((abs(c) for c in coeffs(a).values()), default=0.0)


# -- the array form against the dict jets it replaced --------------------------

# either part may be an exact zero of either sign (the catalog prints -0.0
# imaginary parts), and a coefficient may be an exact zero, which is dropped
part_st = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
signed_coeff_st = st.builds(complex, part_st, part_st)


@st.composite
def dict_rows(draw):
    """(dim, degree, rows): one {alpha: c} per component, in random order,
    with terms up to two degrees past ``degree``."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    alpha_st = st.tuples(*[st.integers(0, degree + 2)] * dim)
    rows = [
        draw(st.dictionaries(alpha_st, signed_coeff_st, max_size=8)) for _ in range(dim)
    ]
    return dim, degree, rows


@settings(max_examples=150, deadline=None)
@given(case=dict_rows(), normalization=st.sampled_from(list(Normalization)))
@example(case=(1, 0, [{(0,): 1.0 + 0j}]), normalization=Normalization.GENERAL)
@example(case=(1, 0, [{(0,): complex(-0.0, -0.0)}]), normalization=Normalization.GENERAL)
@example(
    case=(
        2,
        2,
        [{(0, 2): 1.0, (0, 1): complex(-1.0, -0.0)}, {(1, 0): complex(0.0, -0.0), (3, 0): 5.0}],
    ),
    normalization=Normalization.GENERATOR,
)
def test_json_bytes_match_the_dict_writer(case, normalization):
    dim, degree, rows = case
    # the catalog's dict constructor, which drops the terms past the degree
    f = catalog._jet_map(rows, dim, degree, 1.0, normalization)
    want = {
        "dim": dim,
        "degree": degree,
        "normalization": normalization.value,
        "components": [dict_jet_to_json(dim, degree, row) for row in rows],
    }
    assert json.dumps(map_to_json(f)) == json.dumps(want)
    for row in rows:
        kept = {a: c for a, c in row.items() if sum(a) <= degree}
        jet = MultiJet(dim, degree, kept)
        assert json.dumps(jet_to_json(jet)) == json.dumps(dict_jet_to_json(dim, degree, row))


def test_an_exact_zero_reads_as_a_term_never_stored():
    # an engine array may hold -0.0; a dict jet never stored an exact zero
    f = JetMap.from_array(np.array([[0.0, complex(-0.0, -0.0), complex(-1.0, -0.0)]]))
    for c in (f.coefficient(0, (1,)), f.component(0).coefficient((1,))):
        assert (math.copysign(1, c.real), math.copysign(1, c.imag)) == (1, 1)
    assert math.copysign(1, f.coefficient(0, (2,)).imag) == -1
    assert [e["alpha"] for e in map_to_json(f)["components"][0]["coeffs"]] == [[2]]


def test_json_of_a_degree_0_measure_jet_matches_the_dict_writer():
    p = AtomicMeasure(((0.5, 0.25), (-2.0, 0.75))).transform_jet(1, 0, 0)
    assert json.dumps(jet_to_json(p)) == json.dumps(dict_jet_to_json(1, 0, {(0,): 1.0 + 0j}))


def _assert_same_bits(got, want):
    """Equal to the bit, signed zeros included."""
    assert got.shape == want.shape
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (got, want)]
    assert np.array_equal(*bits)


@pytest.mark.parametrize("name", ["F3", "F5"])
@pytest.mark.parametrize("dim,degree", [(2, 4), (2, 8), (3, 6)])
def test_the_catalog_pole_fallback_evaluates_as_the_dict_loop(rng, name, dim, degree):
    # points with |1 - w_1| < 1e-6 take the jet instead of the rational form
    entry = catalog_get(name, dim, degree)
    m = 64
    w = 0.6 * (rng.uniform(-1, 1, (m, dim)) + 1j * rng.uniform(-1, 1, (m, dim)))
    w[:, 1] = 1.0 - 10.0 ** rng.uniform(-9, -6.1, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    got = entry.evaluator(w)
    for i in range(2):
        _assert_same_bits(got[:, i], dict_evaluate(coeffs(entry.jet.component(i)), w))


def test_a_polynomial_generator_evaluates_as_the_dict_loop(rng):
    # the benchmark's violator, whose JSON terms are the dict the loop ran over
    a = 2.5 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    comps = [
        {"dim": 2, "degree": 2, "coeffs": [
            {"alpha": [1, 0], "re": -1.0, "im": 0.0},
            {"alpha": [1, 1], "re": a.real, "im": a.imag},
        ]},
        {"dim": 2, "degree": 2, "coeffs": [{"alpha": [0, 1], "re": -1.0, "im": 0.0}]},
    ]
    g = generator_from_json({"kind": "polynomial", "components": comps})
    z = 0.95 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (256, 2)))
    got = g.evaluate(z)
    for i, comp in enumerate(comps):
        terms = {tuple(e["alpha"]): complex(e["re"], e["im"]) for e in comp["coeffs"]}
        _assert_same_bits(got[:, i], dict_evaluate(terms, z))


def test_polynomial_starlike_jacobian_rows_evaluate_as_the_dict_loop(rng):
    f = JetMap(
        (
            add(variable_jet(2, 4, 0), MultiJet(2, 4, {(1, 1): 0.3, (0, 2): -0.2j, (2, 1): 0.1})),
            add(variable_jet(2, 4, 1), MultiJet(2, 4, {(2, 0): 0.25, (0, 3): -0.05})),
        ),
        Normalization.UNIVALENT,
    )
    fev, fjac = from_starlike(f).koenigs_map()
    z = 0.5 * (rng.uniform(-1, 1, (128, 2)) + 1j * rng.uniform(-1, 1, (128, 2)))
    got = fjac(z)
    for i, row in enumerate(jacobian(f)):
        for j, entry in enumerate(row):
            _assert_same_bits(got[:, i, j], dict_evaluate(coeffs(entry), z))
    for i in range(2):
        _assert_same_bits(fev(z)[:, i], dict_evaluate(coeffs(f.component(i)), z))

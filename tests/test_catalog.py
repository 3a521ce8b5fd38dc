"""The named extremal maps and their generator identities."""

import math

import numpy as np
import pytest

from polyloewner import (
    Admission,
    DomainError,
    JetMap,
    catalog_generator,
    catalog_get,
    catalog_names,
    from_starlike,
    map_distance,
    minimal_dimension,
    verify_catalog,
)
from polyloewner import catalog, fourier
from oracles import catalog_jet, coeffs, components, ring_jacobian

PAIRS = [(f"F{j}", f"H{j}") for j in range(1, 8)]


def test_names_cover_both_roles():
    names = catalog_names()
    assert len(names) == 14
    assert all(n[0] in "FH" for n in names)


@pytest.mark.parametrize("fname,hname", PAIRS)
def test_starlike_generator_identity(fname, hname):
    F = catalog_get(fname)
    H = catalog_get(hname)
    got = from_starlike(F)
    assert map_distance(got.jet, H.jet) <= 1e-10


def test_identity_survives_ambient_extension():
    F = catalog_get("F2", dim=3)
    H = catalog_get("H2", dim=3)
    assert map_distance(from_starlike(F).jet, H.jet) <= 1e-10


def test_verify_catalog_passes():
    report = verify_catalog()
    assert report.passed
    assert report.max_jet_error <= 1e-10
    assert len(report.checks) == 7
    payload = report.to_json()
    assert payload["passed"] is True
    assert len(payload["checks"]) == 7
    assert all(c["membership"]["passed"] for c in payload["checks"])


@pytest.mark.parametrize("fname", [p[0] for p in PAIRS])
def test_closed_form_jacobians_match_ring_probe(fname, make_interior_points):
    entry = catalog_get(fname)
    z = make_interior_points(5, entry.dim, radius=0.55)
    got = entry.jacobian(z)
    want = ring_jacobian(entry.evaluator, z)
    assert np.max(np.abs(got - want)) < 1e-8


def test_known_evaluator_values():
    F1 = catalog_get("F1")
    z = np.array([[0.3 + 0.2j, -0.4j]])
    want0 = z[0, 0] / (1 - z[0, 0]) ** 2
    got = F1.evaluator(z)
    assert got[0, 0] == pytest.approx(want0, abs=1e-14)
    assert got[0, 1] == z[0, 1]

    H6 = catalog_get("H6", dim=3)
    z = np.array([[0.1, 0.2j, 0.3]])
    got = H6.evaluator(z)
    assert got[0, 0] == pytest.approx(-0.1 + 0.2j * 0.3, abs=1e-14)
    assert got[0, 1] == pytest.approx(-0.2j)
    assert got[0, 2] == pytest.approx(-0.3)


def test_evaluators_survive_pole_guards():
    # H2's raw formula divides by 1+z2; the entry must stay finite near -1
    H2 = catalog_get("H2")
    z = np.array([[0.1, -1.0 + 1e-9], [0.1, -1.0 + 1e-12j]])
    vals = H2.evaluator(z)
    assert np.all(np.isfinite(vals))
    F7 = catalog_get("F7", dim=3)
    z = np.array([[0.1, 0.2, 0.2], [0.1, 0.2, 0.2 + 1e-13]])
    vals = F7.evaluator(z)
    assert np.all(np.isfinite(vals))
    # the two nearly-equal-arguments rows agree to high accuracy
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-9


def test_extension_fills_with_identity_or_dilation():
    F4 = catalog_get("F4", dim=4)
    H4 = catalog_get("H4", dim=4)
    z = np.array([[0.1, 0.2, 0.3j, -0.4]])
    assert F4.evaluator(z)[0, 2] == 0.3j
    assert H4.evaluator(z)[0, 3] == 0.4
    assert F4.jet.coefficient(2, (0, 0, 1, 0)) == 1.0
    assert H4.jet.coefficient(3, (0, 0, 0, 1)) == -1.0


def test_lookup_validation():
    with pytest.raises(DomainError):
        catalog_get("F9")
    with pytest.raises(DomainError):
        catalog_get("F6", dim=2)
    with pytest.raises(DomainError):
        catalog_get("F1", degree=1)
    assert minimal_dimension("h7") == 3
    with pytest.raises(DomainError):
        minimal_dimension("Q1")


def test_catalog_generator_role_check():
    with pytest.raises(DomainError):
        catalog_generator("F1")
    g = catalog_generator("H5")
    assert g.admission is Admission.TRUSTED
    assert g.provenance["name"] == "H5"


def test_lookup_is_cached():
    # every call form of one entry shares one cached object
    for lookup, name in ((catalog_get, "F1"), (catalog_generator, "H1")):
        first = lookup(name, 2, 4)
        assert lookup(name, 2, 4) is first
        assert lookup(name, degree=4) is first
        assert lookup(name, dim=2, degree=4) is first
        assert lookup(name) is first
        assert lookup(name.lower(), None, 4.0) is first


def test_margin_dependency_sets():
    expected = {
        "H1": ({0}, set()),
        "H2": ({1}, set()),
        "H3": ({1}, {1}),
        "H4": ({0, 1}, set()),
        "H5": ({0, 1}, {1}),
        "H6": ({0, 1, 2}, set(), set()),
        "H7": ({0, 1, 2}, {1}, {2}),
    }
    for name, deps in expected.items():
        g = catalog_generator(name)
        assert tuple(set(d) for d in g.margin_deps) == deps


def _signed_terms(jet: JetMap) -> tuple:
    """Each coefficient as (re, im, sign of re, sign of im): 0.0 and -0.0 differ."""
    terms = [
        {
            alpha: (c.real, c.imag, math.copysign(1, c.real), math.copysign(1, c.imag))
            for alpha, c in coeffs(comp).items()
        }
        for comp in components(jet)
    ]
    return jet.normalization, terms


def _ring_shapes(name):
    """The minimal dim and dim 3 at degrees 2, 4 and 8, and dim 2 at 16."""
    dims = sorted({minimal_dimension(name), 3})
    return [(d, degree) for d in dims for degree in (2, 4, 8)] + [(2, 16)] * (2 in dims)


@pytest.mark.parametrize("name", catalog_names())
def test_coefficient_tables_equal_the_ring_construction(name):
    # the tables are written by hand; the oracle multiplies out the closed
    # forms, and both must give the same bits, signed zeros included
    for dim, degree in _ring_shapes(name):
        got = catalog_get(name, dim, degree).jet
        assert _signed_terms(got) == _signed_terms(catalog_jet(name, dim, degree)), (dim, degree)


HIGH_DEGREE_SHAPES = [(2, d) for d in (13, 14, 15, 16, 17, 24, 32, 43)] + [
    (3, d) for d in (13, 14, 15, 16)
]


@pytest.mark.parametrize("dim,degree", HIGH_DEGREE_SHAPES)
def test_every_entry_passes_its_check_at_high_degrees(dim, degree):
    # degrees past 12 once failed the check (17) or were refused (32 and up)
    names = [n for n in catalog_names() if minimal_dimension(n) == dim]
    for name in names:
        entry = catalog_get(name, dim, degree)
        assert (entry.dim, entry.degree) == (dim, degree)


def _moved_top_coefficient(jet: JetMap, by: complex) -> JetMap:
    """``jet`` with the coefficient of z_0**degree in component 0 moved by ``by``."""
    array = jet.array.copy()
    array[0, -1] += by  # z_0**degree is the last multi-index in graded-lex order
    return JetMap.from_array(array, jet.normalization)


@pytest.mark.parametrize("dim,degree", [(2, 4), (3, 8), (2, 20)])
@pytest.mark.parametrize("name", ["F2", "H4"])
def test_check_catches_a_top_coefficient_moved_by_1e_8(monkeypatch, name, dim, degree):
    build = catalog._build_starlike if name[0] == "F" else catalog._build_generator
    build_entry = catalog._cached_entry.__wrapped__  # uncached, so every call checks
    assert build_entry(name, dim, degree).degree == degree

    def moved(*args):
        jet, *rest = build(*args)
        return (_moved_top_coefficient(jet, 1e-8), *rest)

    monkeypatch.setattr(catalog, build.__name__, moved)
    with pytest.raises(DomainError, match="consistency check"):
        build_entry(name, dim, degree)


def _series_everywhere(a, b):
    """S(a, b) = (log(1+a) - log(1+b))/(a-b) and its two partials, the series on every point.

    The reference route for F7's row 0: the quotient is evaluated once for
    the value and three times for the Jacobian, each time with the series
    over all points, and the near set picked out by ``np.where``.
    """

    def values(a, b):
        d = a - b
        near = np.abs(d) < 1e-4
        direct = (np.log(1.0 + a) - np.log(1.0 + b)) / np.where(near, 1.0, d)
        w = d / (1.0 + b)
        ser, term = np.zeros_like(a), np.ones_like(a)
        for m in range(8):
            ser, term = ser + term / (m + 1.0), term * (-w)
        return np.where(near, ser / (1.0 + b), direct)

    def da(a, b):
        d = a - b
        near = np.abs(d) < 1e-4
        direct = (1.0 / (1.0 + a) - values(a, b)) / np.where(near, 1.0, d)
        w = d / (1.0 + b)
        ser, term = np.zeros_like(a), np.ones_like(a)
        for m in range(1, 9):
            ser, term = ser + m * term / (m + 1.0), term * (-w)
        return np.where(near, -ser / (1.0 + b) ** 2, direct)

    return values(a, b), da(a, b), da(b, a)


def _f7_point_sets(rng):
    sets = {"probe torus": fourier._torus_points(3, *fourier.torus_grid(4), slice(None))}
    z = rng.normal(size=(2000, 3)) + 1j * rng.normal(size=(2000, 3))
    sets["interior"] = 0.95 * rng.uniform(size=(2000, 1)) * z / np.max(np.abs(z), axis=1, keepdims=True)
    near = sets["interior"][:400].copy()
    gaps = 10.0 ** rng.uniform(-15, -4.01, 400) * np.exp(2j * np.pi * rng.uniform(size=400))
    near[:, 2] = near[:, 1] + gaps
    assert np.all((np.abs(near[:, 1] - near[:, 2]) > 0) & (np.abs(near[:, 1] - near[:, 2]) < 1e-4))
    sets["near the diagonal"] = near
    sets["mixed"] = np.concatenate([near[:100], sets["interior"][:100]])[rng.permutation(200)]
    return sets


@pytest.mark.parametrize("degree", [4, 8])
def test_f7_row_zero_is_bit_identical_to_the_series_everywhere(rng, degree):
    # the series runs only on the near set, and the Jacobian shares one
    # quotient between its two partials; neither may move a bit
    f7 = catalog_get("F7", 3, degree)
    for label, w in _f7_point_sets(rng).items():
        a, b = w[:, 1], w[:, 2]
        S, da, db = _series_everywhere(a, b)
        value = w[:, 0] + a * b * S
        jac = np.stack([np.ones_like(a), b * S + a * b * da, a * S + a * b * db], axis=-1)
        assert f7.evaluator(w)[:, 0].tobytes() == value.tobytes(), label
        assert f7.jacobian(w)[:, 0].tobytes() == jac.tobytes(), label

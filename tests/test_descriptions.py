"""Round trips between JSON descriptions and live objects."""

import json

import numpy as np
import pytest

from polyloewner import (
    Admission,
    AtomicMeasure,
    DomainError,
    MembershipError,
    catalog_generator,
    catalog_get,
    convex_combination,
    dilation_generator,
    field_from_json,
    from_starlike,
    generator_from_json,
    jet_to_json,
    map_distance,
    product_form,
    rotate_generator,
    shear_linear,
    shear_quadratic,
)


def jet_payload(gen):
    return [jet_to_json(c) for c in gen.jet.components]


# one generator of every description kind, built by its constructor
EVERY_KIND = {
    "catalog": lambda: catalog_generator("H3", dim=3, degree=5),
    "dilation": lambda: dilation_generator(2, degree=3),
    "rotation": lambda: rotate_generator(catalog_generator("H4"), (0.4, -1.3)),
    "product-form": lambda: product_form(
        [1, 0], [AtomicMeasure(((0.3, 0.25), (2.0, 0.75))), None], degree=5
    ),
    "convex-combination": lambda: convex_combination(
        [catalog_generator("H1"), rotate_generator(catalog_generator("H2"), (0.5, 0.1))],
        [0.3, 0.7],
    ),
    "polynomial": lambda: generator_from_json(
        {"kind": "polynomial", "components": jet_payload(catalog_generator("H5"))}
    ),
    "from-starlike-F4": lambda: from_starlike(catalog_get("F4", degree=6)),
    "from-starlike-F2-jet": lambda: from_starlike(catalog_get("F2").jet),
    "shear-linear": lambda: shear_linear(catalog_generator("H3")),
    "shear-quadratic": lambda: shear_quadratic(catalog_generator("H4", degree=3)),
}


class TestGeneratorDescriptions:
    @pytest.mark.parametrize("kind", EVERY_KIND)
    def test_emitted_description_rebuilds_the_generator(self, kind):
        g = EVERY_KIND[kind]()
        again = generator_from_json(g.to_json(), default_degree=g.degree)
        assert again.degree == g.degree
        assert np.array_equal(again.jet_array(g.degree), g.jet_array(g.degree))

    def test_catalog_and_dilation(self):
        g = generator_from_json({"kind": "catalog", "name": "H3"})
        assert g.provenance["name"] == "H3"
        d = generator_from_json({"kind": "dilation", "dim": 3, "degree": 3})
        assert d.dim == 3 and d.degree == 3

    def test_rotation_nests(self):
        obj = {
            "kind": "rotation",
            "angles": [0.1, 0.2],
            "base": {"kind": "catalog", "name": "H4"},
        }
        got = generator_from_json(obj)
        want = rotate_generator(catalog_generator("H4"), (0.1, 0.2))
        assert map_distance(got.jet, want.jet) < 1e-14

    def test_provenance_wrapper_unwraps(self):
        g = rotate_generator(catalog_generator("H2"), (0.3, 0.0))
        again = generator_from_json({"provenance": g.provenance})
        assert map_distance(again.jet, g.jet) < 1e-14

    def test_own_provenance_round_trips(self):
        # every built-in construction can be rebuilt from its provenance
        specs = [
            {"kind": "catalog", "name": "H6"},
            {
                "kind": "product-form",
                "selectors": [1, 0],
                "measures": [
                    {"atoms": [{"angle": 0.0, "weight": 0.5}, {"angle": 1.2, "weight": 0.5}]},
                    None,
                ],
            },
            {
                "kind": "convex-combination",
                "parts": [
                    {"kind": "catalog", "name": "H1"},
                    {"kind": "catalog", "name": "H4"},
                ],
                "weights": [0.25, 0.75],
            },
            {"kind": "shear-linear", "base": {"kind": "catalog", "name": "H2"}},
            {"kind": "shear-quadratic", "base": {"kind": "catalog", "name": "H4"}},
        ]
        for spec in specs:
            g = generator_from_json(spec)
            again = generator_from_json(g.provenance)
            assert map_distance(again.jet, g.jet) < 1e-12

    def test_polynomial_and_from_starlike(self):
        h4 = catalog_generator("H4")
        g = generator_from_json({"kind": "polynomial", "components": jet_payload(h4)})
        assert map_distance(g.jet, h4.jet) < 1e-14
        assert g.admission is Admission.TORUS
        s = generator_from_json(
            {"kind": "from-starlike", "map": {"kind": "catalog", "name": "F1"}}
        )
        assert map_distance(s.jet, catalog_generator("H1").jet) <= 1e-10
        # the catalog map follows the generator's degree (it once stayed at 4,
        # and the zero-padded jet failed the torus check at degree 8)
        s8 = generator_from_json(
            {"kind": "from-starlike", "map": {"kind": "catalog", "name": "F1"}}, default_degree=8
        )
        assert s8.degree == 8
        assert map_distance(s8.jet, catalog_generator("H1", degree=8).jet) <= 1e-10

    def test_json_text_accepted(self):
        g = generator_from_json(json.dumps({"kind": "catalog", "name": "H1"}))
        assert g.dim == 2

    def test_malformed_descriptions(self):
        with pytest.raises(DomainError):
            generator_from_json(["kind", "catalog"])
        with pytest.raises(DomainError):
            generator_from_json({"name": "H1"})
        with pytest.raises(DomainError):
            generator_from_json({"kind": "warp", "name": "H1"})
        with pytest.raises(DomainError):
            generator_from_json({"kind": "rotation", "base": {"kind": "catalog", "name": "H1"}})
        with pytest.raises(DomainError):
            generator_from_json(
                {"kind": "from-starlike", "map": {"kind": "dilation", "dim": 2}}
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_are_refused(self, value):
        h1 = {"kind": "catalog", "name": "H1"}
        atom = {"angle": 0.0, "weight": 1.0}
        bad = [
            {"kind": "rotation", "angles": [value, 0.0], "base": h1},
            {"kind": "convex-combination", "weights": [value, 1.0], "parts": [h1, h1]},
            {"kind": "product-form", "selectors": [0, 1],
             "measures": [{"atoms": [dict(atom, angle=value)]}, None]},
            {"kind": "product-form", "selectors": [0, 1],
             "measures": [{"atoms": [dict(atom, weight=value)]}, None]},
            {"kind": "catalog", "name": "H1", "degree": value},
            {"kind": "dilation", "dim": value},
        ]
        for obj in bad:
            with pytest.raises(DomainError):
                generator_from_json(obj)
        with pytest.raises(DomainError):
            field_from_json({"schedule": [{"until": value, "generator": h1}, {"generator": h1}]})


class TestFieldDescriptions:
    def test_schedule_with_tail(self):
        field = field_from_json(
            {
                "schedule": [
                    {"until": 1.0, "generator": {"kind": "catalog", "name": "H1"}},
                    {"generator": {"kind": "catalog", "name": "H2"}},
                ]
            }
        )
        assert field.breakpoints == (1.0,)
        assert field.generator_at(2.0).provenance["name"] == "H2"

    def test_bare_list_accepted(self):
        field = field_from_json([{"generator": {"kind": "catalog", "name": "H4"}}])
        assert field.breakpoints == ()

    def test_all_until_appends_dilation_tail(self):
        field = field_from_json(
            [{"until": 2.0, "generator": {"kind": "catalog", "name": "H4"}}]
        )
        assert field.breakpoints == (2.0,)
        assert field.generator_at(3.0).provenance["kind"] == "dilation"

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            field_from_json({"schedule": []})
        with pytest.raises(DomainError):
            field_from_json([{"until": 1.0}])
        with pytest.raises(DomainError):
            field_from_json(
                [
                    {"generator": {"kind": "catalog", "name": "H1"}},
                    {"until": 1.0, "generator": {"kind": "catalog", "name": "H2"}},
                ]
            )

    def test_membership_screen_applies_to_described_polynomials(self):
        bad = {
            "kind": "polynomial",
            "components": [
                {"dim": 2, "degree": 3, "coeffs": [
                    {"alpha": [1, 0], "re": -1.0},
                    {"alpha": [0, 2], "re": 2.0},
                ]},
                {"dim": 2, "degree": 3, "coeffs": [{"alpha": [0, 1], "re": -1.0}]},
            ],
        }
        with pytest.raises(MembershipError):
            field_from_json([{"generator": bad}])

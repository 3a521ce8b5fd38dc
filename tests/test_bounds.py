"""Inequality reports: coefficient rows and growth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyloewner import (
    AtomicMeasure,
    BoundCheck,
    BoundReport,
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    caratheodory_check,
    catalog_generator,
    catalog_get,
    coeff_bound_report,
    generator_coeff_report,
    koebe_check,
    koebe_envelope,
    sample_rays,
)
from polyloewner.bounds import CSV_HEADER


class TestRows:
    def test_check_arithmetic(self):
        row = BoundCheck("x", bound=2.0, attained=1.5, tol=1e-6, equality_tol=1e-10)
        assert row.margin == 0.5
        assert row.passed and not row.equality

    def test_check_equality_band(self):
        row = BoundCheck("x", bound=2.0, attained=2.0 + 5e-11, tol=1e-6, equality_tol=1e-10)
        assert row.passed and row.equality

    def test_check_failure(self):
        row = BoundCheck("x", bound=1.0, attained=2.5, tol=1e-6, equality_tol=1e-10)
        assert not row.passed
        assert row.margin == -1.5

    def test_json_includes_witness(self):
        row = BoundCheck(
            "x", bound=0.0, attained=0.0, tol=1e-8, equality_tol=1e-10,
            witness=(0.3 + 0.4j, -0.5j),
        )
        payload = row.to_json()
        assert payload["witness"] == [{"re": 0.3, "im": 0.4}, {"re": -0.0, "im": -0.5}]

    def test_report_lookup_and_csv(self):
        rep = coeff_bound_report(catalog_get("F1").jet, subject="F1")
        assert rep.check("A[0](2,0)").attained == 2.0
        with pytest.raises(KeyError):
            rep.check("A[0](7,0)")
        rows = rep.csv_rows()
        assert all(len(r) == len(CSV_HEADER) for r in rows)
        assert rows[0][0] == "F1"
        payload = rep.to_json()
        assert payload["passed"] is True
        assert payload["equalities"] == ["A[0](2,0)"]


class TestCaratheodory:
    def test_halfplane_kernel_is_extremal(self):
        p = AtomicMeasure(((0.0, 1.0),)).transform_jet(1, 4, 0)
        rep = caratheodory_check(p, subject="u=1")
        assert rep.passed
        assert rep.equalities() == ("c1", "c2", "c3", "c4")
        for row in rep.checks:
            assert row.attained == pytest.approx(2.0, abs=1e-12)

    def test_violation_detected(self):
        p = MultiJet(1, 3, {(0,): 1.0, (1,): 2.5})
        rep = caratheodory_check(p)
        assert not rep.passed
        assert rep.check("c1").margin == pytest.approx(-0.5)

    def test_validation(self):
        with pytest.raises(JetShapeError):
            caratheodory_check(MultiJet(2, 3, {(0, 0): 1.0}))
        with pytest.raises(DomainError):
            caratheodory_check(MultiJet(1, 3, {(0,): 0.9}))

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0 * np.pi, allow_nan=False),
                st.floats(0.05, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_atomic_measures_always_pass(self, raw):
        total = sum(w for _, w in raw)
        mu = AtomicMeasure(tuple((a, w / total) for a, w in raw))
        p = mu.transform_jet(1, 5, 0)
        rep = caratheodory_check(p)
        assert rep.passed
        for k in range(1, 6):
            want = abs(mu.herglotz_coefficient(k))
            assert rep.check(f"c{k}").attained == pytest.approx(want, abs=1e-12)


class TestCoefficientReports:
    def test_f1_row_structure(self):
        rep = coeff_bound_report(catalog_get("F1").jet, subject="F1")
        names = [c.name for c in rep.checks]
        assert len(names) == 6
        assert rep.check("A[0](2,0)").bound == 2.0
        assert rep.check("A[0](1,1)").bound == 2.0
        assert rep.check("A[0](0,2)").bound == 1.0
        assert rep.check("A[1](2,0)").bound == 1.0
        assert rep.equalities() == ("A[0](2,0)",)
        assert rep.passed

    def test_map_report_requires_univalent_normalization(self):
        with pytest.raises(DomainError):
            coeff_bound_report(catalog_get("H1").jet)

    def test_generator_report_h2(self):
        rep = generator_coeff_report(catalog_generator("H2"))
        assert rep.subject == "H2"
        assert len(rep.checks) == 14
        assert rep.passed
        assert set(rep.equalities()) == {"c[0](1,1)", "c[0](1,2)", "c[0](1,3)"}
        # family rows carry the generic bound 2
        assert rep.check("c[0](3,0)").bound == 2.0
        assert rep.check("c[1](3,1)").bound == 2.0
        assert rep.check("c[0](0,2)").bound == 1.0

    def test_generator_report_accepts_bare_jet(self):
        rep = generator_coeff_report(catalog_generator("H4").jet)
        assert rep.subject == "h"
        assert "c[0](0,2)" in rep.equalities()

    def test_generator_report_flags_violator(self):
        jet = JetMap(
            (
                MultiJet(2, 3, {(1, 0): -1.0, (0, 2): 2.0}),
                MultiJet(2, 3, {(0, 1): -1.0}),
            ),
            Normalization.GENERATOR,
        )
        rep = generator_coeff_report(jet, subject="bad")
        assert not rep.passed
        row = rep.check("c[0](0,2)")
        assert row.bound == 1.0 and row.attained == 2.0
        assert row.margin == -1.0

    def test_generator_report_rejects_wrong_linear_part(self):
        with pytest.raises(DomainError):
            generator_coeff_report(catalog_get("F1").jet)


class TestGrowth:
    def test_envelope_values(self):
        lower, upper = koebe_envelope(0.5)
        assert lower == pytest.approx(0.5 / 2.25)
        assert upper == pytest.approx(2.0)

    def test_sample_rays_shapes_and_norms(self):
        d = np.array([[1.0, 0.0], [0.5, 0.5j]])
        pts = sample_rays(d, [0.3, 0.6])
        assert pts.shape == (4, 2)
        norms = np.max(np.abs(pts), axis=-1)
        assert np.allclose(np.sort(norms), [0.3, 0.3, 0.6, 0.6])
        with pytest.raises(DomainError):
            sample_rays(np.array([[0.0, 0.0]]), [0.5])

    def test_f1_touches_upper_envelope_on_ray(self):
        F1 = catalog_get("F1")
        pts = sample_rays(np.array([1.0 + 0j, 0.0]), np.linspace(0.1, 0.9, 9))
        rep = koebe_check(F1.evaluator, pts, subject="F1")
        assert rep.passed
        upper = rep.check("growth-upper-excess")
        assert upper.equality
        assert upper.attained == pytest.approx(0.0, abs=1e-12)
        lower = rep.check("growth-lower-deficit")
        assert lower.attained < 0 and not lower.equality

    def test_upper_violation_detected(self):
        F1 = catalog_get("F1")
        pts = sample_rays(np.array([1.0 + 0j, 0.0]), [0.5, 0.7])
        rep = koebe_check(lambda z: 1.3 * F1.evaluator(z), pts)
        row = rep.check("growth-upper-excess")
        assert not row.passed
        assert row.witness is not None and len(row.witness) == 2
        assert not rep.passed

    def test_lower_violation_detected(self):
        pts = sample_rays(np.array([[0.8, 0.6j]]), [0.4, 0.8])
        rep = koebe_check(lambda z: 0.15 * z, pts)
        assert not rep.check("growth-lower-deficit").passed

    def test_point_validation(self):
        F1 = catalog_get("F1")
        with pytest.raises(DomainError):
            koebe_check(F1.evaluator, np.array([[0.0, 0.0]]))
        with pytest.raises(DomainError):
            koebe_check(F1.evaluator, np.array([[1.0 + 0j, 0.0]]))
        for empty in (np.zeros((0, 2)), np.zeros(0)):
            with pytest.raises(DomainError):
                koebe_check(F1.evaluator, empty)

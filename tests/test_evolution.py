"""Transition maps, the piecewise schedule, and the scaling limit."""

import math

import numpy as np
import pytest

from polyloewner import (
    Admission,
    DomainError,
    Generator,
    HerglotzField,
    IntegrationError,
    JetMap,
    MembershipError,
    AtomicMeasure,
    MultiJet,
    Normalization,
    catalog_generator,
    catalog_get,
    compose,
    convex_combination,
    dilation_generator,
    evolve_jet,
    from_starlike,
    evolve_point,
    evolve_report,
    limit_evaluator,
    map_distance,
    parametric_limit,
    product_form,
    minimal_dimension,
    rotate_generator,
    shear_linear,
)
from polyloewner import evolution
from polyloewner.evolution import _exact_tail, _rescaled
from polyloewner.kernels import basis_tables, compose_arrays, identity_array
from oracles import rotate_map, scaled_transition


def koebe(z):
    return z / (1.0 - z) ** 2


def koebe_inverse(w):
    # solve w*z^2 - (2w+1)*z + w = 0; the minus branch fixes 0
    w = np.asarray(w, dtype=np.complex128)
    root = np.sqrt(4.0 * w + 1.0)
    return np.where(np.abs(w) < 1e-14, w, (2.0 * w + 1.0 - root) / (2.0 * w))


def expander_generator():
    # valid jet normalization but Re(h1/z1) > 0 on part of the boundary
    jet = JetMap(
        (
            MultiJet(2, 3, {(1, 0): -1.0, (2, 0): 2.0}),
            MultiJet(2, 3, {(0, 1): -1.0}),
        ),
        Normalization.GENERATOR,
    )
    return Generator(jet, jet, {"kind": "polynomial"})


class TestSchedule:
    def test_build_validation(self):
        h1 = catalog_generator("H1")
        h2 = catalog_generator("H2")
        with pytest.raises(DomainError):
            HerglotzField.build([])
        with pytest.raises(DomainError):
            HerglotzField.build([h1, h2])
        with pytest.raises(DomainError):
            HerglotzField.build([h1], [1.0])
        with pytest.raises(DomainError):
            HerglotzField.build([h1, h2], [-0.5])
        with pytest.raises(DomainError):
            HerglotzField.build([h1, h2, h1], [2.0, 1.0])
        with pytest.raises(DomainError):
            HerglotzField.build([h1, catalog_generator("H6")], [1.0])

    def test_selection_and_json_shape(self):
        h1 = catalog_generator("H1")
        h2 = catalog_generator("H2")
        field = HerglotzField.build([h1, h2], [1.0])
        assert field.dim == 2
        assert field.breakpoints == (1.0,)
        assert field.generator_at(0.0) is h1
        assert field.generator_at(0.999) is h1
        assert field.generator_at(1.0) is h2
        assert field.generators() == (h1, h2)
        payload = field.to_json()
        assert len(payload["schedule"]) == 2
        assert payload["schedule"][0]["until"] == 1.0
        assert "until" not in payload["schedule"][1]

    def test_untrusted_violator_is_rejected(self):
        with pytest.raises(MembershipError) as exc:
            HerglotzField.build([expander_generator()])
        assert exc.value.certificate.worst_margin > 0

    def test_untrusted_valid_generator_is_screened_then_accepted(self):
        h4 = catalog_generator("H4")
        g = Generator(h4.jet, h4.jet, {"kind": "polynomial"})
        assert g.admission is Admission.TORUS
        field = HerglotzField.constant(g)
        assert field.generator_at(0.0) is g


class TestPointFlow:
    def test_h1_flow_matches_closed_form(self):
        field = HerglotzField.constant(catalog_generator("H1"))
        z = np.array(
            [[0.4 + 0.3j, -0.5j], [0.1, 0.85], [-0.6, 0.2 + 0.2j]],
            dtype=np.complex128,
        )
        for t in (0.3, 1.0, 2.5):
            got = evolve_point(field, 0.0, t, z, step=5e-3)
            want0 = koebe_inverse(math.exp(-t) * koebe(z[:, 0]))
            want1 = math.exp(-t) * z[:, 1]
            assert np.max(np.abs(got[:, 0] - want0)) < 1e-8
            assert np.max(np.abs(got[:, 1] - want1)) < 1e-10

    def test_single_point_keeps_shape(self):
        field = HerglotzField.constant(catalog_generator("H2"))
        z = np.array([0.2 + 0.1j, -0.3], dtype=np.complex128)
        out = evolve_point(field, 0.0, 0.7, z)
        assert out.shape == (2,)

    def test_point_validation(self, monkeypatch):
        field = HerglotzField.constant(catalog_generator("H1"))
        with pytest.raises(DomainError):
            evolve_point(field, 0.0, 1.0, np.array([1.0 + 0j, 0.0]))
        with pytest.raises(DomainError):
            evolve_point(field, 0.0, 1.0, np.array([0.1, 0.2, 0.3], dtype=complex))
        # non-finite times and steps, and more steps than the cap (lowered
        # here to 50, so a missing check costs 100 steps, not the memory a
        # node list of 10^300 would take), are refused before any step
        monkeypatch.setattr(evolution, "_MAX_STEPS", 50)
        z = np.array([0.1, 0.2], dtype=complex)
        for t, step in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan), (0.0, math.inf),
                        (1.0, 0.01)):
            with pytest.raises(DomainError):
                evolve_point(field, 0.0, t, z, step=step)
            with pytest.raises(DomainError):
                evolve_jet(field, 0.0, t, degree=2, step=step)

    def test_start_before_the_schedule_is_refused(self):
        # a field is a schedule on [0, inf): H4 must not act on [-5, 1)
        field = HerglotzField.build([catalog_generator("H4"), dilation_generator(2)], [1.0])
        z = np.array([0.1, 0.2], dtype=complex)
        for s in (-5.0, -1e-300):
            with pytest.raises(DomainError, match="s must be >= 0"):
                evolve_point(field, s, 0.5, z)
        assert np.array_equal(evolve_point(field, -0.0, 0.5, z), evolve_point(field, 0.0, 0.5, z))

    def test_diverging_flow_raises(self):
        # the dataclass constructor builds a field without the admissibility screen
        field = HerglotzField((), expander_generator())
        with pytest.raises(IntegrationError) as exc:
            evolve_point(field, 0.0, 2.0, np.array([0.9 + 0j, 0.0]))
        assert exc.value.time is not None
        assert 0.0 < exc.value.time <= 2.0


class TestTransitionJets:
    def test_linear_part_is_pure_decay(self):
        field = HerglotzField.build(
            [catalog_generator("H3"), catalog_generator("H5")], [0.9]
        )
        jet = evolve_jet(field, 0.3, 1.7, degree=3)
        lin = jet.linear_part()
        off = lin - np.diag(np.diag(lin))
        assert np.max(np.abs(off)) < 1e-15
        assert np.max(np.abs(np.diag(lin) - math.exp(0.3 - 1.7))) < 5e-9

    def test_second_order_coefficient_integral_constant(self):
        # the (0,2) entry of H4 has unit weight, so e^t a(t) = 1 - e^-t
        field = HerglotzField.constant(catalog_generator("H4"))
        for t in (0.5, 1.0, 2.0, 3.0):
            jet = evolve_jet(field, 0.0, t, degree=3)
            got = math.exp(t) * jet.coefficient(0, (0, 2))
            assert got == pytest.approx(1.0 - math.exp(-t), abs=1e-6)

    def test_second_order_coefficient_integral_piecewise(self):
        field = HerglotzField.build(
            [catalog_generator("H4"), dilation_generator(2)], [1.0]
        )
        for t in (0.5, 1.0, 2.0, 3.0):
            jet = evolve_jet(field, 0.0, t, degree=3)
            got = math.exp(t) * jet.coefficient(0, (0, 2))
            want = 1.0 - math.exp(-min(t, 1.0))
            assert got == pytest.approx(want, abs=1e-6)

    def test_step_halving_is_fourth_order(self):
        field = HerglotzField.build(
            [catalog_generator("H4"), dilation_generator(2)], [1.0]
        )
        want = 1.0 - math.exp(-1.0)

        def err(step):
            jet = evolve_jet(field, 0.0, 2.0, degree=3, step=step)
            return abs(math.exp(2.0) * jet.coefficient(0, (0, 2)) - want)

        assert 8.0 <= err(0.08) / err(0.04) <= 32.0

    def test_semigroup_property(self, rng):
        names = ("H1", "H2", "H4", "H5")
        for _ in range(3):
            picks = rng.choice(len(names), size=3)
            gens = [
                rotate_generator(
                    catalog_generator(names[k]), rng.uniform(0.0, 2.0 * np.pi, size=2)
                )
                for k in picks
            ]
            b0 = float(rng.uniform(0.3, 1.2))
            breaks = [b0, b0 + float(rng.uniform(0.3, 1.2))]
            field = HerglotzField.build(gens, breaks)
            s, t, u = 0.0, float(rng.uniform(0.5, 1.4)), float(rng.uniform(1.6, 3.0))
            whole = evolve_jet(field, s, u, degree=4)
            first = evolve_jet(field, s, t, degree=4)
            second = evolve_jet(field, t, u, degree=4)
            assert map_distance(whole, compose(second, first)) <= 1e-8
            z = rng.uniform(-0.45, 0.45, size=(4, 2)) + 1j * rng.uniform(
                -0.45, 0.45, size=(4, 2)
            )
            direct = evolve_point(field, s, u, z)
            chained = evolve_point(field, t, u, evolve_point(field, s, t, z))
            assert np.max(np.abs(direct - chained)) <= 1e-8

    def test_scaled_transition_is_normalized(self):
        field = HerglotzField.constant(catalog_generator("H2"))
        m = scaled_transition(field, 0.0, 2.0, degree=3)
        assert m.normalization is Normalization.UNIVALENT
        assert np.max(np.abs(m.linear_part() - np.eye(2))) < 1e-8


class TestLimit:
    def test_constant_field_recovers_its_starlike_map(self):
        for name in ("H1", "H4"):
            field = HerglotzField.constant(catalog_generator(name))
            res = parametric_limit(field, horizon=15.0, degree=4)
            want = catalog_get("F" + name[1:])
            assert map_distance(res.jet, want.jet) <= 1e-5
            assert res.tail_bound <= 5e-5
            assert res.jet.normalization is Normalization.UNIVALENT

    def test_limit_requires_room_for_tail(self):
        field = HerglotzField.constant(catalog_generator("H1"))
        with pytest.raises(DomainError):
            parametric_limit(field, horizon=1.0)
        for kwargs in ({"step": 0.0}, {"step": -1e-2}):
            with pytest.raises(DomainError):
                parametric_limit(field, horizon=6.0, **kwargs)

    def test_linear_drift_breaks_normalization(self):
        # Dh(0) = -(1 - 9e-9) I is the largest deviation the constructor
        # admits (1e-8 itself rounds above CHECK_TOL); the scaled linear
        # part drifts by 9e-9 T, past 1e-6 from T = 111 on
        jet = JetMap(
            (
                MultiJet(2, 3, {(1, 0): -1.0 + 9e-9, (2, 0): 0.5}),
                MultiJet(2, 3, {(0, 1): -1.0 + 9e-9}),
            ),
            Normalization.GENERATOR,
        )
        gen = Generator(jet, jet, {"kind": "polynomial"})
        field = HerglotzField.constant(gen)
        assert parametric_limit(field, horizon=50.0, degree=3).tail_bound < 1e-1
        with pytest.raises(IntegrationError):
            parametric_limit(field, horizon=150.0, degree=3)

    def test_agrees_with_rk4_oracle(self, rng):
        # the Koenigs construction against RK4 to the horizon on the shared lattice
        horizon = 6.0

        def check(field, degree):
            res = parametric_limit(field, horizon=horizon, degree=degree)
            end = scaled_transition(field, 0.0, horizon, degree=degree)
            mid = scaled_transition(field, 0.0, horizon - 1.0, degree=degree)
            assert map_distance(res.jet, end) <= 1e-7
            assert abs(res.tail_bound - map_distance(mid, end)) <= 1e-7

        for k in range(1, 8):
            gen = catalog_generator(f"H{k}")
            check(HerglotzField.constant(gen), 4 if gen.dim == 2 else 3)

        def rotated(name):
            return rotate_generator(
                catalog_generator(name), rng.uniform(0.0, 2.0 * np.pi, size=2)
            )

        def measure():
            w = rng.uniform(0.1, 1.0, size=2)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=2)
            return AtomicMeasure(tuple(zip(angles.tolist(), (w / w.sum()).tolist())))

        for _ in range(2):
            w = rng.uniform(0.2, 1.0, size=2)
            combo = convex_combination([rotated("H1"), rotated("H5")], (w / w.sum()).tolist())
            check(HerglotzField.constant(combo), 4)
            selectors = [int(s) for s in rng.integers(0, 2, size=2)]
            check(HerglotzField.constant(product_form(selectors, [measure(), measure()])), 4)

        # breakpoints inside (T-1, T) and past T
        for breaks in ([1.3, horizon - 0.4], [horizon - 0.6], [2.0, horizon + 1.5]):
            gens = [rotated(name) for name in ("H2", "H4", "H1")[: len(breaks) + 1]]
            check(HerglotzField.build(gens, breaks), 4)

    def test_first_piece_skips_the_identity_composition(self, rng):
        # the first piece's inner map is K itself; composing it with the
        # identity, as the chain reads, changes no bit
        tables = basis_tables(2, 4)
        ident = identity_array(tables)
        T = 6.0
        gens = [
            rotate_generator(catalog_generator(name), rng.uniform(0.0, 2.0 * np.pi, size=2))
            for name in ("H2", "H4")
        ]
        for pieces, breaks in ((gens[:1], []), (gens, [1.7])):
            field = HerglotzField.build(pieces, breaks)
            got = parametric_limit(field, horizon=T, degree=4).jet.array
            K, L = pieces[0].koenigs_pair(4)
            psi = compose_arrays(K, ident, tables)
            assert np.array_equal(psi, K)
            for b, gen in zip(breaks, pieces[1:]):
                psi = compose_arrays(_rescaled(L, tables, b), psi, tables)
                K, L = gen.koenigs_pair(4)
                psi = compose_arrays(_rescaled(K, tables, b), psi, tables)
            want = compose_arrays(_rescaled(L, tables, T), psi, tables)
            assert np.array_equal(got, want)

    def test_long_horizon_reaches_the_koenigs_map(self):
        # e^T is far outside float range; the limit is the starlike map itself
        for k in range(1, 8):
            field = HerglotzField.constant(catalog_generator(f"H{k}"))
            res = parametric_limit(field, horizon=800.0, degree=4)
            assert map_distance(res.jet, catalog_get(f"F{k}").jet) <= 1e-12
            assert res.tail_bound <= 1e-12
            assert res.jet.normalization is Normalization.UNIVALENT

    def test_limit_evaluator_tracks_the_true_map(self):
        # the truncated limit jet degrades deep in the polydisc; the scaled
        # point flow does not, even on the extremal negative-real ray.
        # residual decays like e^-T times the squared image size
        field = HerglotzField.constant(catalog_generator("H1"))
        evaluate = limit_evaluator(field, horizon=18.0)
        z = np.array([[-0.35, 0.1], [0.6, -0.2j], [0.1j, -0.75]], dtype=np.complex128)
        got = evaluate(z)
        want = np.stack([koebe(z[:, 0]), z[:, 1]], axis=-1)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_limit_evaluator_validation(self):
        field = HerglotzField.constant(catalog_generator("H1"))
        with pytest.raises(DomainError):
            limit_evaluator(field, horizon=0.0)

    def test_limit_json_shape(self):
        field = HerglotzField.constant(catalog_generator("H2"))
        res = parametric_limit(field, horizon=6.0, degree=3)
        payload = res.to_json()
        assert payload["horizon"] == 6.0
        assert payload["degree"] == 3
        assert payload["tail_bound"] == res.tail_bound
        assert "jet" in payload


def _unrotated_copy(g):
    """The same generator as a fresh object: not a rotation, nothing cached."""
    return Generator(
        g.jet,
        g.evaluate,
        dict(g.provenance),
        margin_deps=g.margin_deps,
        admission=Admission.TRUSTED,
    )


class TestRotatedKoenigsPairs:
    """A rotation's Koenigs pair is its base's pair times the rotation phases."""

    def _assert_phase_pair_is_the_solved_pair(self, base, rng, degree):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=base.dim)
        rotated = rotate_generator(base, theta)
        # an independent solve: a plain generator holding the dict-rotated jet
        solved = _unrotated_copy(rotated)
        assert solved.rotation is None and rotated.rotation is not None
        for derived, direct in zip(rotated.koenigs_pair(degree), solved.koenigs_pair(degree)):
            assert np.max(np.abs(derived - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("dim,degree", [(2, 3), (3, 4), (3, 6)])
    def test_phase_pair_equals_a_direct_solve(self, rng, dim, degree):
        for k in range(1, 8):
            name = f"H{k}"
            if minimal_dimension(name) <= dim:
                base = catalog_generator(name, dim=dim, degree=degree)
                self._assert_phase_pair_is_the_solved_pair(base, rng, degree)

    def test_phase_pair_of_a_product_form(self, rng):
        measures = [
            AtomicMeasure(((0.4, 0.3), (2.1, 0.7))),
            AtomicMeasure(((1.3, 0.5), (-0.8, 0.5))),
            None,
        ]
        base = product_form([1, 2, 0], measures, degree=4)
        self._assert_phase_pair_is_the_solved_pair(base, rng, 4)

    def test_limit_of_a_rotation_is_the_rotated_limit(self, rng):
        for name, degree in (("H1", 4), ("H4", 4), ("H5", 5), ("H6", 3), ("H7", 4)):
            base = catalog_generator(name, degree=degree)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=base.dim)
            plain = parametric_limit(HerglotzField.constant(base), horizon=8.0, degree=degree)
            rotated = parametric_limit(
                HerglotzField.constant(rotate_generator(base, theta)), horizon=8.0, degree=degree
            )
            assert map_distance(rotated.jet, rotate_map(plain.jet, theta)) <= 1e-13
            assert rotated.tail_bound == pytest.approx(plain.tail_bound, rel=1e-9, abs=1e-15)

    def test_cold_and_warm_limits_agree_to_the_bit(self):
        base = _unrotated_copy(catalog_generator("H2", degree=4))
        pieces = [(0.7, -1.9), (2.3, 0.4), (-0.6, 1.1)]

        def new_field():
            return HerglotzField.build([rotate_generator(base, th) for th in pieces], [1.2, 3.5])

        def limit_array(field):
            return parametric_limit(field, horizon=6.0, degree=4).jet.array

        field = new_field()
        assert not base._koenigs_pairs
        cold = limit_array(field)
        assert set(base._koenigs_pairs) == {4}
        # warm base with fresh rotations, then everything warm
        assert np.array_equal(cold, limit_array(new_field()))
        assert np.array_equal(cold, limit_array(field))


def _rotated(name, dim, rng):
    return rotate_generator(catalog_generator(name, dim=dim), rng.uniform(0.0, 2.0 * np.pi, dim))


EXACT_TAILS = {
    **{f"H{k}": (lambda rng, k=k: _rotated(f"H{k}", minimal_dimension(f"H{k}"), rng)) for k in range(1, 8)},
    "starlike-F2-polynomial": lambda rng: from_starlike(catalog_get("F2").jet),
    "starlike-F4": lambda rng: from_starlike(catalog_get("F4")),
    "dilation": lambda rng: dilation_generator(2),
}


class TestExactTail:
    """limit_evaluator against RK4 to the horizon, its oracle."""

    def _assert_within_step_error(self, field, horizon, z, step=1e-2):
        got = limit_evaluator(field, horizon=horizon, step=step)(z)
        want = math.exp(horizon) * evolve_point(field, 0.0, horizon, z, step=step)
        finer = math.exp(horizon) * evolve_point(field, 0.0, horizon, z, step=0.5 * step)
        # RK4's error at the step is 16/15 of its gap to the half step
        bound = 2.0 * np.max(np.abs(want - finer)) + 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("index,tail", enumerate(EXACT_TAILS))
    def test_matches_rk4_to_the_horizon(self, rng, make_interior_points, index, tail):
        gen = EXACT_TAILS[tail](rng)
        pieces = 1 + index % 3 if tail != "dilation" else 2 + index % 2
        firsts = [_rotated(("H1", "H4", "H2")[k], gen.dim, rng) for k in range(pieces - 1)]
        breaks = list(np.cumsum(rng.uniform(0.2, 0.6, size=pieces - 1)))
        field = HerglotzField.build(firsts + [gen], breaks)
        last = breaks[-1] if breaks else 0.0
        z = make_interior_points(8, gen.dim, radius=0.95)
        assert field.tail.koenigs_map() is not None
        for horizon in (last + 0.05, last + 1.0):
            self._assert_within_step_error(field, horizon, z)
        self._assert_within_step_error(field, 40.0, z, step=0.05)

    def test_refused_points_take_the_rk4_path(self, make_interior_points):
        # short tails near the boundary: unguarded, Newton raised LinAlgError
        # on H1 at 0.5 and gave NaN on H5 at 2
        for name, horizon in (("H1", 0.5), ("H5", 0.3), ("H7", 0.05)):
            gen = catalog_generator(name)
            field = HerglotzField.constant(gen)
            z = make_interior_points(200, gen.dim, radius=0.95)
            _, accepted = _exact_tail(*gen.koenigs_map(), z, horizon)
            assert 0 < accepted.sum() < len(z)
            got = limit_evaluator(field, horizon=horizon)(z)
            assert np.all(np.isfinite(got))
            rk4 = math.exp(horizon) * evolve_point(field, 0.0, horizon, z)
            assert np.array_equal(got[~accepted], rk4[~accepted])
            self._assert_within_step_error(field, horizon, z)

    def test_tails_without_a_koenigs_map_keep_rk4_bit_for_bit(self, rng, make_interior_points):
        h1 = catalog_generator("H1")
        measure = AtomicMeasure(((0.4, 0.3), (2.1, 0.7)))
        tails = (
            product_form([1, 0], [measure, None], degree=4),
            convex_combination([_rotated("H2", 2, rng), h1], [0.4, 0.6]),
            shear_linear(catalog_generator("H2")),
        )
        z = make_interior_points(10, 2, radius=0.95)
        for tail in tails:
            assert tail.koenigs_map() is None
            field = HerglotzField.build([_rotated("H4", 2, rng), tail], [0.6])
            got = limit_evaluator(field, horizon=4.0)(z)
            assert np.array_equal(got, math.exp(4.0) * evolve_point(field, 0.0, 4.0, z))
        # a horizon before the last breakpoint is RK4 as well, whatever the tail
        field = HerglotzField.build([_rotated("H4", 2, rng), h1], [0.6])
        got = limit_evaluator(field, horizon=0.5)(z)
        assert np.array_equal(got, math.exp(0.5) * evolve_point(field, 0.0, 0.5, z))

    def test_far_horizons_are_finite_and_converged(self, rng, make_interior_points):
        field = HerglotzField.build([_rotated("H1", 2, rng), _rotated("H4", 2, rng)], [0.7])
        z = make_interior_points(20, 2, radius=0.95)
        limit = limit_evaluator(field, horizon=40.0)(z)
        for horizon in (700.0, 709.7):
            got = limit_evaluator(field, horizon=horizon)(z)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - limit)) <= 1e-14 * np.max(np.abs(limit))

    def test_single_points_and_validation(self):
        field = HerglotzField.constant(catalog_generator("H2"))
        z = np.array([0.2 + 0.1j, -0.3], dtype=np.complex128)
        evaluate = limit_evaluator(field, horizon=15.0)
        assert evaluate(z).shape == (2,)
        assert np.array_equal(evaluate(z), evaluate(z[None, :])[0])
        # evolve_point still checks the points and the step with no piece to run
        with pytest.raises(DomainError):
            evaluate(np.array([1.0 + 0j, 0.0]))
        with pytest.raises(DomainError):
            limit_evaluator(field, horizon=15.0, step=math.nan)(z)

    def test_the_koenigs_map_is_resolved_on_first_use(self):
        h4 = catalog_generator("H4")
        calls = []

        def koenigs_map():
            calls.append(1)
            return h4.koenigs_map()

        gen = Generator(h4.jet, h4.evaluate, {"kind": "test"}, koenigs_map=koenigs_map)
        field = HerglotzField.constant(gen)
        parametric_limit(field, horizon=6.0, degree=3)
        assert calls == []
        z = np.array([[0.3, -0.5j]])
        got = limit_evaluator(field, horizon=6.0)(z)
        assert calls == [1]
        assert np.array_equal(got, limit_evaluator(HerglotzField.constant(h4), horizon=6.0)(z))


class TestReport:
    def test_report_estimate_and_payload(self):
        field = HerglotzField.build(
            [catalog_generator("H1"), catalog_generator("H2")], [0.8]
        )
        rep = evolve_report(field, 0.0, 1.5, degree=3)
        assert rep.error_estimate < 1e-8
        payload = rep.to_json()
        assert payload["s"] == 0.0 and payload["t"] == 1.5
        assert payload["error_estimate"] == rep.error_estimate

    def test_report_without_points(self):
        field = HerglotzField.constant(catalog_generator("H4"))
        rep = evolve_report(field, 0.0, 1.0, degree=3)
        assert set(rep.to_json()) == {"s", "t", "degree", "jet", "error_estimate"}


CHAIN_KINDS = {
    "catalog": lambda rng: catalog_generator("H1"),
    "rotated": lambda rng: _rotated("H4", 2, rng),
    "product-form": lambda rng: product_form(
        [1, 0], [AtomicMeasure(((0.3, 0.6), (2.0, 0.4))), AtomicMeasure(((-1.1, 1.0),))]
    ),
    "convex-combination": lambda rng: convex_combination(
        [_rotated("H1", 2, rng), catalog_generator("H5")], [0.3, 0.7]
    ),
    "from-starlike": lambda rng: from_starlike(catalog_get("F2").jet),
    "dilation": lambda rng: dilation_generator(2),
}


def _chain_gap(field, s, t, degree=3):
    """e^(t-s) times the largest gap between the chain and RK4 at step 1e-3."""
    chain = evolve_report(field, s, t, degree=degree).jet.array
    rk4 = evolve_jet(field, s, t, degree=degree, step=1e-3).array
    return math.exp(t - s) * float(np.max(np.abs(chain - rk4)))


class TestTransitionChain:
    """evolve_report's Koenigs chain against RK4 evolve_jet, its oracle."""

    @pytest.mark.parametrize("kind", sorted(CHAIN_KINDS))
    def test_agrees_with_rk4_for_every_piece_kind(self, rng, kind):
        # breakpoints 0.8 and 1.5: s = 0.3 inside the first piece, s = 0.8 on a breakpoint
        gen = CHAIN_KINDS[kind](rng)
        field = HerglotzField(((0.8, gen), (1.5, _rotated("H2", 2, rng))), gen)
        for s in (0.3, 0.8):
            assert _chain_gap(field, s, s + 1.0) <= 1e-12

    def test_agrees_with_rk4_over_every_span(self, rng):
        field = HerglotzField.build(
            [_rotated(name, 2, rng) for name in ("H1", "H2", "H4")], [0.7, 1.3]
        )
        for s in (0.4, 0.7):
            for span in (1e-6, 0.3, 1.0, 5.0):
                assert _chain_gap(field, s, s + span) <= 1e-12
        assert _chain_gap(field, 0.4, 30.4) <= 1e-12

    def test_equal_times_give_the_identity(self, rng):
        field = HerglotzField.build([_rotated("H1", 2, rng), catalog_generator("H4")], [0.7])
        tables = basis_tables(2, 4)
        for s in (0.0, 0.3, 0.7, 2.0):
            rep = evolve_report(field, s, s)
            assert np.array_equal(rep.jet.array, identity_array(tables))
            assert rep.error_estimate == 0.0

    def test_pieces_before_s_are_never_solved(self, rng):
        # the chain asks a piece for its arrays only when it reaches it
        early = product_form([1, 0], [AtomicMeasure(((0.3, 1.0),)), None], degree=4)
        field = HerglotzField.build([early, _rotated("H2", 2, rng)], [0.8])
        evolve_report(field, 0.8, 2.0)
        evolve_report(field, 1.0, 2.0)
        assert not early._koenigs_pairs
        evolve_report(field, 0.5, 2.0)
        assert set(early._koenigs_pairs) == {4}

    def test_two_sided_semigroup_identity(self, rng):
        field = HerglotzField.build(
            [_rotated(name, 2, rng) for name in ("H1", "H2", "H4")], [0.7, 1.3]
        )
        for s, t, u in ((0.2, 0.7, 2.5), (0.3, 1.0, 1.6), (0.7, 1.3, 4.0)):
            whole = evolve_report(field, s, u).jet
            first = evolve_report(field, s, t).jet
            second = evolve_report(field, t, u).jet
            assert map_distance(whole, compose(second, first)) <= 1e-14

    def test_limit_scale_of_the_chain_is_parametric_limit(self, rng):
        # both callers share one chain: e^T phi_{0,T} is the limit jet to roundoff
        field = HerglotzField.build([_rotated("H1", 2, rng), catalog_generator("H4")], [0.7])
        phi = evolve_report(field, 0.0, 6.0).jet.array
        limit = parametric_limit(field, horizon=6.0).jet.array
        assert np.max(np.abs(math.exp(6.0) * phi - limit)) <= 1e-13

    def test_error_estimate_is_the_linear_drift_bound(self):
        # Dh(0) = -(1 - 5e-9) I: the chain takes Dh(0) = -I, RK4 does not
        jet = JetMap(
            (
                MultiJet(2, 3, {(1, 0): -1.0 + 5e-9, (2, 0): 0.5}),
                MultiJet(2, 3, {(0, 1): -1.0 + 5e-9}),
            ),
            Normalization.GENERATOR,
        )
        field = HerglotzField.constant(Generator(jet, jet, {"kind": "polynomial"}))
        for s, t in ((0.0, 1.0), (0.5, 3.0)):
            rep = evolve_report(field, s, t, degree=3)
            assert rep.error_estimate == pytest.approx(5e-9 * (t - s), rel=1e-6)
            rk4 = evolve_jet(field, s, t, degree=3, step=1e-3).array
            gap = float(np.max(np.abs(rep.jet.array - rk4)))
            assert 0.0 < gap <= rep.error_estimate
        # past 1e-6 of drift the chain refuses, as parametric_limit does at its horizon
        with pytest.raises(IntegrationError):
            evolve_report(field, 0.0, 300.0, degree=3)

    def test_window_validation(self):
        field = HerglotzField.constant(catalog_generator("H1"))
        for s, t in ((0.0, math.nan), (0.0, math.inf), (1.0, 0.5)):
            with pytest.raises(DomainError):
                evolve_report(field, s, t)
        # the chain takes no step; RK4, which does, refuses a step out of range
        for step in (0.0, -1e-2, math.nan, math.inf):
            with pytest.raises(DomainError, match="step must be positive and finite"):
                evolve_jet(field, 0.0, 1.0, step=step)

    def test_rk4_keeps_its_runaway_guard(self):
        # RK4 at a step past its stability limit ends in a non-finite state
        field = HerglotzField.build([catalog_generator("H1"), catalog_generator("H4")], [1.0])
        for t, step in ((1e9, 1e8), (1e12, 1e11)):
            with pytest.raises(IntegrationError, match="linear-part"):
                evolve_jet(field, 0.0, t, step=step)

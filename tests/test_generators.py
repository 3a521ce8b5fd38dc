"""Generator constructions and the grid admissibility certificate."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyloewner import (
    CHECK_TOL,
    Admission,
    AtomicMeasure,
    DomainError,
    Generator,
    GridSpec,
    JetMap,
    JetShapeError,
    MembershipError,
    MultiJet,
    Normalization,
    REFERENCE_GRID,
    SHELL_GRID,
    SingularityError,
    catalog_generator,
    catalog_get,
    convex_combination,
    dilation_generator,
    from_starlike,
    map_distance,
    membership_check,
    minimal_dimension,
    product_form,
    rotate_generator,
    shear_linear,
    shear_quadratic,
    torus_array,
)
from polyloewner import fourier, generators
from polyloewner.descriptions import generator_from_json
from polyloewner.kernels import basis_tables
from oracles import (
    add,
    components,
    jacobian,
    matrix_solve,
    mul,
    neg,
    rotate_map,
    scaled,
    series_in_var,
    truncated,
    variable_jet,
)
from test_acceptance import random_generator, violator


def violator_generator():
    jet = JetMap(
        (
            MultiJet(2, 3, {(1, 0): -1.0, (0, 2): 2.0}),
            MultiJet(2, 3, {(0, 1): -1.0}),
        ),
        Normalization.GENERATOR,
    )
    return Generator(jet, jet, {"kind": "polynomial"})


def _unit(dim, k, power=1):
    """The multi-index of z_k**power in dim variables."""
    return tuple(power * int(i == k) for i in range(dim))


def cubic_starlike_map(dim):
    """The polynomial map z + 2z^3 in the first coordinate, identity in the rest."""
    first = MultiJet(dim, 3, {_unit(dim, 0): 1.0, _unit(dim, 0, 3): 2.0})
    rest = tuple(MultiJet(dim, 3, {_unit(dim, k): 1.0}) for k in range(1, dim))
    return JetMap((first,) + rest, Normalization.UNIVALENT)


def _whole_mesh(g, j, r, grid):
    """The (j, r) mesh of a scan as one ``np.meshgrid`` of the scanned axes, "ij" order.

    Coordinates off ``margin_deps`` are pinned to 0, and z_j to r when j
    is off it.
    """
    n = g.dim
    circle = np.exp(2j * np.pi * np.arange(grid.angle_count) / grid.angle_count)
    deps = g.margin_deps[j] if g.margin_deps is not None else range(n)
    axes, coords = [], []
    for k in range(n):
        if k == j:
            axes.append(r * circle if j in deps else np.array([r + 0j]))
        elif k in deps:
            axes.append(
                np.concatenate([f * r * circle if f else [0j] for f in grid.companion_factors])
            )
        else:
            continue
        coords.append(k)
    pts = np.zeros((math.prod(len(a) for a in axes), n), dtype=complex)
    for k, mesh in zip(coords, np.meshgrid(*axes, indexing="ij")):
        pts[:, k] = mesh.reshape(-1)
    return pts


def _unsliced_scan(g, grid):
    """(worst margin, witness, coordinate) of one whole-mesh evaluation per (j, r)."""
    best = (-math.inf, None, None)
    for j in range(g.dim):
        for r in grid.radii:
            pts = _whole_mesh(g, j, r, grid)
            margins = np.real(g.evaluate(pts)[:, j] / pts[:, j])
            k = int(np.argmax(margins))
            if margins[k] > best[0]:
                best = (float(margins[k]), tuple(complex(c) for c in pts[k]), j)
    return best


def cubic_starlike_inverse(dim):
    """-Df^-1 f of z + 2z^3 as a SHELLS generator: a pole at |z_1| = 1/sqrt(6).

    h_1 = -(z + 2z^3)/(1 + 6z^2) in closed form, with array -z + 4z^3, and
    h_k = -z_k; ``from_starlike`` refuses this map, whose pole aliases its
    probe torus of radius 0.4.
    """
    arr = -cubic_starlike_map(dim).array
    arr[0, basis_tables(dim, 3).index[(3,) + (0,) * (dim - 1)]] = 4.0

    def evaluator(z):
        out = -z.copy()
        out[..., 0] = -(z[..., 0] + 2 * z[..., 0] ** 3) / (1 + 6 * z[..., 0] ** 2)
        return out

    return Generator(arr, evaluator, {"kind": "test"}, admission=Admission.SHELLS)


class TestMembership:
    @pytest.mark.parametrize("name", [f"H{j}" for j in range(1, 8)])
    def test_catalog_generators_pass(self, name):
        cert = membership_check(catalog_generator(name))
        assert cert.passed
        assert cert.worst_margin <= 1e-9

    def test_dilation_margin_is_minus_one_to_roundoff(self):
        cert = membership_check(dilation_generator(2))
        assert cert.worst_margin == pytest.approx(-1.0, abs=1e-15)

    def test_violator_fails_with_witness(self):
        cert = membership_check(violator_generator())
        assert not cert.passed
        # worst case -1 + 2 r at the outermost radius, phases aligned
        assert cert.worst_margin == pytest.approx(0.9, abs=1e-12)
        assert cert.witness_coordinate == 0
        z = np.array(cert.witness_point)
        assert np.max(np.abs(z)) == pytest.approx(0.95, abs=1e-12)

    def test_scan_is_deterministic(self):
        a = membership_check(violator_generator())
        b = membership_check(violator_generator())
        assert a.witness_point == b.witness_point
        assert a.worst_margin == b.worst_margin

    def test_certificate_serializes(self):
        cert = membership_check(dilation_generator(2))
        payload = cert.to_json()
        assert payload["passed"] is True
        assert len(payload["witness_point"]) == 2
        assert "radii" in payload["grid"]

    def test_nan_margins_raise_instead_of_passing(self):
        h4 = catalog_generator("H4")

        def nan_outside(z):
            out = h4.evaluate(z).copy()
            out[np.abs(z[..., 1]) > 0.9] = np.nan
            return out

        g = Generator(h4.jet, nan_outside, {"kind": "test"}, margin_deps=h4.margin_deps)
        with pytest.raises(SingularityError, match="not finite"):
            membership_check(g)
        with pytest.raises(SingularityError, match="not finite"):
            membership_check(g, grid=SHELL_GRID)

    def test_nan_coefficient_is_caught_by_both_checks(self):
        jet = JetMap(
            (
                MultiJet(2, 3, {(1, 0): -1.0, (0, 2): math.nan}),
                MultiJet(2, 3, {(0, 1): -1.0}),
            ),
            Normalization.GENERATOR,
        )
        # the constructor refuses the array itself, before the torus check runs
        with pytest.raises(DomainError, match="not finite"):
            Generator(jet, jet, {"kind": "polynomial"})
        with pytest.raises(DomainError, match="not finite"):
            Generator(jet, jet, {"kind": "polynomial"}, admission=Admission.TRUSTED)
        # a finite array with the NaN map as its evaluator reaches the scan
        finite = dilation_generator(2, degree=3).jet
        unprobed = Generator(finite, jet, {"kind": "polynomial"}, admission=Admission.TRUSTED)
        with pytest.raises(SingularityError):
            membership_check(unprobed)

    def test_slices_leave_the_certificates_unchanged(self, monkeypatch):
        # the witness is the first grid point of the worst margin, however
        # the mesh is cut into slices
        subjects = [violator_generator(), catalog_generator("H6", dim=3), cubic_starlike_inverse(2)]
        monkeypatch.setattr(generators, "_SCAN_SLICE", 2**40)
        whole = [membership_check(g) for g in subjects]
        monkeypatch.setattr(generators, "_SCAN_SLICE", 7)
        assert [membership_check(g) for g in subjects] == whole
        assert whole[2].grid == SHELL_GRID and not whole[2].passed

    @pytest.mark.parametrize("slab", [1, 500, 2**20])
    @pytest.mark.parametrize("name", ["H6", "H7", "product-form", "starlike-F2"])
    def test_slabs_leave_the_certificates_unchanged(self, monkeypatch, slab, name):
        # a slab of 1 point still holds one whole run of the trailing axes
        measure = AtomicMeasure(((0.4, 0.3), (2.1, 0.7)))
        g = {
            "H6": lambda: catalog_generator("H6", dim=3),
            "H7": lambda: catalog_generator("H7", dim=3),
            "product-form": lambda: product_form([1, 2, 0], [measure, None, measure]),
            "starlike-F2": lambda: from_starlike(catalog_get("F2")),
        }[name]()
        monkeypatch.setattr(generators, "MAX_TORUS_POINTS", slab)
        cert = membership_check(g)
        assert cert.grid == (SHELL_GRID if name == "starlike-F2" else REFERENCE_GRID)
        worst, witness, coord = _unsliced_scan(g, cert.grid)
        assert cert.worst_margin == worst
        assert cert.witness_point == witness
        assert cert.witness_coordinate == coord
        # every slab is scanned, once and in mesh order
        for j in range(g.dim):
            deps = g.margin_deps[j] if g.margin_deps is not None else frozenset(range(g.dim))
            for r in cert.grid.radii:
                mesh = generators._membership_mesh(g.dim, j, deps, r, cert.grid)
                assert np.array_equal(mesh, _whole_mesh(g, j, r, cert.grid))

    def test_a_scan_holds_one_slab_of_the_mesh_at_a_time(self, monkeypatch):
        # each (j, r) mesh of a full dim-3 torus scan is 64**3 points, 12 MiB
        n = 3
        components = [
            {"dim": n, "degree": 2, "coeffs": [{"alpha": [int(v == j) for v in range(n)], "re": -1.0}]}
            for j in range(n)
        ]
        components[0]["coeffs"].append({"alpha": [1, 1, 0], "re": 0.1})
        g = generator_from_json({"kind": "polynomial", "components": components})
        monkeypatch.setattr(generators, "MAX_TORUS_POINTS", 2**12)
        tracemalloc.start()
        try:
            cert = membership_check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.passed
        assert peak < 2**21

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pole_inside_is_found_by_the_shells(self, dim):
        # the torus alone would pass this map with worst margin -0.18; the
        # shells see h_1/z_1 = -(1 + 2z^2)/(1 + 6z^2) = 1 at z = 0.5i
        cert = membership_check(cubic_starlike_inverse(dim))
        assert cert.grid == SHELL_GRID
        assert not cert.passed
        assert cert.worst_margin == pytest.approx(1.0, abs=1e-12)
        assert abs(cert.witness_point[0]) == pytest.approx(0.5, abs=1e-12)

    def test_pole_marker_follows_the_constructions(self):
        h1 = catalog_generator("H1")
        star = from_starlike(catalog_get("F4"))
        poly = violator_generator()
        assert [g.admission for g in (h1, poly, star)] == list(Admission)
        assert dilation_generator(2).admission is Admission.TRUSTED
        measure = AtomicMeasure(((0.3, 1.0),))
        assert product_form([1, 0], [measure, None]).admission is Admission.TRUSTED
        for g in (h1, poly, star):
            assert rotate_generator(g, (0.3, 0.1)).admission is g.admission
            assert shear_quadratic(g).admission is max(Admission.TORUS, g.admission)
            for other in (h1, poly, star):
                combo = convex_combination([g, other], [0.5, 0.5])
                assert combo.admission is max(g.admission, other.admission)
        assert membership_check(shear_linear(star)).grid == SHELL_GRID
        assert membership_check(shear_linear(h1)).grid == REFERENCE_GRID

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 0.4))
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 1.1))
        with pytest.raises(DomainError):
            GridSpec(angle_count=4)
        with pytest.raises(DomainError):
            GridSpec(companion_factors=(0.5, 2.0))


def test_torus_agrees_with_the_shell_grid():
    """The shell grid as the oracle of the one-torus default.

    The pool is that of acceptance criterion 5 (catalog H1-H7, 100 random
    members from seed 42, the violator), the inverses of the dim-2 starlike
    maps F1-F5 and the z + 2z^3 maps, whose poles the torus alone misses.
    F6 and F7 are left out: a shell scan of a dim-3 inverse with no
    dependency sets meshes a million points per shell and component, about
    35 s for F6 and 100 s for F7 in all.
    """
    rng = np.random.default_rng(42)
    pool = [catalog_generator(f"H{j}") for j in range(1, 8)]
    pool += [random_generator(rng) for _ in range(100)]
    pool += [violator()]
    pool += [from_starlike(catalog_get(f"F{j}")) for j in range(1, 6)]
    pool += [cubic_starlike_inverse(1), cubic_starlike_inverse(2)]
    for g in pool:
        default = membership_check(g)
        shells = membership_check(g, grid=SHELL_GRID)
        assert default.passed == shells.passed, g.provenance
        assert default.worst_margin >= shells.worst_margin - 1e-12, g.provenance


class TestRotation:
    def test_rotation_collapses_and_cancels(self):
        h2 = catalog_generator("H2")
        th = (0.3, -1.2)
        rot = rotate_generator(h2, th)
        back = rotate_generator(rot, tuple(-t for t in th))
        assert back is h2

    def test_rotated_jet_phases(self):
        h4 = catalog_generator("H4")
        rot = rotate_generator(h4, (0.0, math.pi / 2))
        # c_{(0,2)} picks up exp(i(2*pi/2 - 0)) = -1
        assert rot.jet.coefficient(0, (0, 2)) == pytest.approx(-1.0)

    def test_rotation_preserves_margins_on_lattice_angles(self):
        h3 = catalog_generator("H3")
        base = membership_check(h3)
        k = 5
        rot = rotate_generator(h3, (2 * np.pi * k / 64, 0.0))
        cert = membership_check(rot)
        assert cert.worst_margin == pytest.approx(base.worst_margin, abs=1e-9)

    def test_rotation_keeps_trust(self):
        h1 = catalog_generator("H1")
        assert rotate_generator(h1, (1.0, 2.0)).admission is Admission.TRUSTED

    def test_rotation_of_a_probed_generator_runs_no_probe(self, monkeypatch):
        # the base passed its probe, and a rotation is its array times unit
        # phases with its evaluator conjugated by the same rotation
        n = 3
        rows = [{_unit(n, j): -1.0, _unit(n, (j + 1) % n, 2): 0.25} for j in range(n)]
        desc = {
            "kind": "polynomial",
            "components": [
                {
                    "dim": n,
                    "degree": 4,
                    "coeffs": [{"alpha": list(a), "re": c} for a, c in row.items()],
                }
                for row in rows
            ],
        }
        probes = []
        real = generators.torus_error

        def counted(evaluator, arr, tables):
            probes.append(tables.dim)
            return real(evaluator, arr, tables)

        monkeypatch.setattr(generators, "torus_error", counted)
        base = generator_from_json(desc)
        assert base.admission is Admission.TORUS and len(probes) == 1
        rot = rotate_generator(base, (0.4, -1.1, 2.3))
        assert rot.admission is Admission.TORUS
        assert len(probes) == 1

    def test_rotated_arrays_are_views_of_the_jet(self, rng):
        for k in range(1, 8):
            base = catalog_generator(f"H{k}", degree=4)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=base.dim)
            rot = rotate_generator(base, theta)
            arrays = {d: rot.jet_array(d) for d in range(1, 5)}
            assert not any(arr.flags.writeable for arr in arrays.values())
            assert rot.jet == rotate_map(base.jet, theta)
            for d, arr in arrays.items():
                assert arr.shape[1] == basis_tables(base.dim, d).size
                assert np.shares_memory(arr, rot.jet.array)
                assert np.array_equal(arr, rot.jet.array[:, : arr.shape[1]])
            # the rotation's own evaluator is the independent oracle of the phases
            probe = torus_array(rot.evaluate, basis_tables(base.dim, 4))
            assert np.max(np.abs(probe - arrays[4])) <= 1e-8


class TestProductForm:
    def test_coefficients_match_direct_herglotz_sums(self):
        measure = AtomicMeasure(((0.7, 0.4), (2.1, 0.6)))
        g = product_form([1, 0], [measure, None], degree=4)
        for k in range(1, 4):
            want = -2.0 * (
                0.4 * np.exp(-1j * k * 0.7) + 0.6 * np.exp(-1j * k * 2.1)
            )
            got = g.jet.coefficient(0, (1, k))
            assert got == pytest.approx(want, abs=1e-12)
        assert g.jet.coefficient(1, (0, 1)) == pytest.approx(-1.0)
        assert g.admission is Admission.TRUSTED

    def test_self_selector_gives_pure_power_series(self):
        measure = AtomicMeasure(((0.0, 1.0),))
        g = product_form([0, 1], [measure, None], degree=4)
        # -z (1 + 2z + 2z^2 + ...) in the first coordinate
        assert g.jet.coefficient(0, (1, 0)) == pytest.approx(-1.0)
        for m in range(2, 5):
            assert g.jet.coefficient(0, (m, 0)) == pytest.approx(-2.0)
        assert membership_check(g).passed

    def test_bad_selectors_rejected(self):
        with pytest.raises(DomainError):
            product_form([0, 2], [None, None])
        with pytest.raises(JetShapeError):
            product_form([0, 1], [None])

    def test_measure_validation(self):
        with pytest.raises(DomainError):
            AtomicMeasure(())
        with pytest.raises(DomainError):
            AtomicMeasure(((0.0, 0.7), (1.0, 0.7)))
        with pytest.raises(DomainError):
            AtomicMeasure(((0.0, -0.2), (1.0, 1.2)))
        m = AtomicMeasure(((0.5, 0.25), (1.5, 0.75)))
        assert AtomicMeasure.from_json(m.to_json()).atoms == m.atoms

    def test_moments_stay_finite_at_huge_angles(self):
        # k * angle overflows past 1e308, a power of exp(i angle) does not
        m = AtomicMeasure(((1e308, 1.0),))
        assert all(abs(m.herglotz_coefficient(k)) == pytest.approx(2.0) for k in range(1, 6))
        g = product_form([1, 0], [m, None], degree=5)
        assert np.isfinite(g.jet_array(5)).all()


class TestConvexCombination:
    def test_jet_is_weighted_sum(self):
        h1, h4 = catalog_generator("H1"), catalog_generator("H4")
        g = convex_combination([h1, h4], [0.25, 0.75])
        want = 0.25 * h1.jet.coefficient(0, (2, 0))
        assert g.jet.coefficient(0, (2, 0)) == pytest.approx(want)
        assert g.jet.coefficient(0, (0, 2)) == pytest.approx(0.75)
        assert g.admission is Admission.TRUSTED
        assert membership_check(g).passed

    def test_weight_validation(self):
        h1 = catalog_generator("H1")
        with pytest.raises(DomainError):
            convex_combination([h1, h1], [0.4, 0.4])
        with pytest.raises(DomainError):
            convex_combination([h1, h1], [-0.5, 1.5])
        with pytest.raises(JetShapeError):
            convex_combination([h1], [0.5, 0.5])


class TestShears:
    def test_shear_linear_fixes_product_structure(self):
        h2 = catalog_generator("H2")
        sheared = shear_linear(h2)
        # H2 already has the sheared shape, so the jet is unchanged
        assert map_distance(sheared.jet, h2.jet) < 1e-12
        # a shear is not trusted: it is scanned wherever membership is required
        assert sheared.admission is Admission.TORUS
        assert membership_check(sheared).passed

    def test_shear_linear_of_h4_drops_the_square_term(self):
        h4 = catalog_generator("H4")
        sheared = shear_linear(h4)
        assert map_distance(sheared.jet, dilation_generator(2, degree=4).jet) < 1e-12

    def test_shear_quadratic_of_h4_is_h4(self):
        h4 = catalog_generator("H4")
        sheared = shear_quadratic(h4)
        assert map_distance(sheared.jet, h4.jet) < 1e-12
        assert membership_check(sheared).passed

    def test_shear_evaluator_matches_series_beyond_truncation(self, rng):
        # the linear shear of H3 keeps the full (1-w)/(1+w) profile, not its
        # truncation: check the evaluator at a radius where they differ
        h3 = catalog_generator("H3", degree=3)
        sheared = shear_linear(h3)
        z = np.array([[0.9, 0.88], [0.7j, -0.85]], dtype=np.complex128)
        got = sheared.evaluate(z)
        want0 = -z[:, 0] * (1 - z[:, 1]) / (1 + z[:, 1])
        assert np.max(np.abs(got[:, 0] - want0)) < 1e-9
        assert membership_check(sheared).passed

    def test_shears_need_dim_two(self):
        with pytest.raises(DomainError):
            shear_linear(catalog_generator("H6"))


class TestFromStarlike:
    def test_polynomial_map_input(self):
        f = JetMap(
            (
                MultiJet(2, 4, {(1, 0): 1.0, (0, 2): 1.0}),
                MultiJet(2, 4, {(0, 1): 1.0}),
            ),
            Normalization.UNIVALENT,
        )
        g = from_starlike(f)
        assert map_distance(g.jet, catalog_generator("H4").jet) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pole_behind_the_self_check_is_bad_input(self, dim):
        # the pole at |z_1| = 1/sqrt(6) aliases the radius-0.4 probe: a map
        # whose Df vanishes inside the polydisc is not starlike, so this is
        # bad input, and no scan runs
        with pytest.raises(DomainError, match="not starlike") as exc:
            from_starlike(cubic_starlike_map(dim))
        assert not isinstance(exc.value, MembershipError)

    def test_failed_self_check_with_a_passing_scan_is_bad_input(self):
        # an admissible evaluator that is not the jet's: the constructor
        # decides no membership, so the disagreement is a malformed-input error
        h4 = catalog_generator("H4")
        with pytest.raises(DomainError, match="disagree") as exc:
            Generator(h4.jet, lambda z: -z, {"kind": "test"})
        assert not isinstance(exc.value, MembershipError)
        # TRUSTED and SHELLS run no probe
        for admission in (Admission.TRUSTED, Admission.SHELLS):
            Generator(h4.jet, lambda z: -z, {"kind": "test"}, admission=admission)

    def test_rejects_unnormalized_maps(self):
        f = JetMap(
            (
                MultiJet(2, 3, {(1, 0): 2.0}),
                MultiJet(2, 3, {(0, 1): 1.0}),
            ),
            Normalization.UNIVALENT,
        )
        with pytest.raises(DomainError):
            from_starlike(f)


def half_square_map(dim):
    """(z_0 - z_0^2/2, z_1, ...): det Df = 1 - z_0 vanishes at z_0 = 1 only.

    The pole of -Df^-1 f lies outside the probe torus, so ``from_starlike``
    admits the map, and its evaluator meets the zero only when asked there.
    """
    first = MultiJet(dim, 4, {_unit(dim, 0): 1.0, _unit(dim, 0, 2): -0.5})
    rest = tuple(MultiJet(dim, 4, {_unit(dim, k): 1.0}) for k in range(1, dim))
    return JetMap((first,) + rest, Normalization.UNIVALENT)


def _singular_message(point):
    return f"Jacobian of the starlike map is singular near {point}"


class TestStarlikeEvaluator:
    """-Df^-1 f at points: one LU per point, and the refusal where det Df is tiny."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_zero_of_det(self, dim):
        z = np.array([[1.0] + [0.3] * (dim - 1)], dtype=complex)
        with pytest.raises(SingularityError) as exc:
            from_starlike(half_square_map(dim)).evaluate(z)
        assert str(exc.value) == _singular_message(z[0])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_witness_is_the_first_singular_point_in_input_order(self, dim):
        g = from_starlike(half_square_map(dim))
        z = np.array(
            [[0.2] + [0.1] * (dim - 1), [1.0] + [0.2] * (dim - 1), [1.0] + [0.5] * (dim - 1)],
            dtype=complex,
        )
        with pytest.raises(SingularityError) as exc:
            g.evaluate(z)
        assert str(exc.value) == _singular_message(z[1])
        grid = np.stack([z, z[::-1]])  # leading shape (2, 3): the first bad point is z[1]
        with pytest.raises(SingularityError) as exc:
            g.evaluate(grid)
        assert str(exc.value) == _singular_message(z[1])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tiny_nonzero_det_is_singular(self, dim):
        z = np.array([[1.0 - 1e-13] + [0.1] * (dim - 1)], dtype=complex)
        assert 0.0 < abs(1.0 - z[0, 0]) < 1e-12
        with pytest.raises(SingularityError) as exc:
            from_starlike(half_square_map(dim)).evaluate(z)
        assert str(exc.value) == _singular_message(z[0])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_point(self, dim):
        g = from_starlike(half_square_map(dim))
        z = np.array([1.0] + [0.1] * (dim - 1), dtype=complex)
        with pytest.raises(SingularityError) as exc:
            g.evaluate(z)
        assert str(exc.value) == _singular_message(z)
        z[0] = 0.5
        got = g.evaluate(z)
        assert got.shape == (dim,)
        assert got[0] == pytest.approx(-(0.5 - 0.125) / 0.5, abs=1e-15)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_point_gives_nan_and_spares_the_others(self, dim):
        z = np.array([[np.nan] + [0.1] * (dim - 1), [0.3] + [0.1] * (dim - 1)], dtype=complex)
        with np.errstate(invalid="ignore"):
            got = from_starlike(half_square_map(dim)).evaluate(z)
        assert np.isnan(got[0]).all()
        assert got[1, 0] == pytest.approx(-(0.3 - 0.045) / 0.7, abs=1e-15)
        assert np.array_equal(got[1, 1:], -z[1, 1:])

    @pytest.mark.parametrize("name", [f"F{j}" for j in range(1, 8)] + ["F2-jet"])
    def test_evaluator_matches_numpy_on_the_probe_torus(self, name):
        f = catalog_get("F2").jet if name == "F2-jet" else catalog_get(name)
        g = from_starlike(f)
        fev, fjac = g.koenigs_map()
        z = fourier._torus_points(g.dim, *fourier.torus_grid(g.degree), slice(None))
        want = -np.linalg.solve(fjac(z), fev(z)[..., None])[..., 0]
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.max(np.abs(g.evaluate(z) - want) / scale) <= 1e-13

    @pytest.mark.parametrize("lead", [(), (9,), (3, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("piece", [4, None])
    def test_lu_solve_matches_numpy(self, rng, monkeypatch, n, lead, piece):
        if piece is not None:
            monkeypatch.setattr(generators, "_LU_SLICE", piece)  # several slices, the last short
        a = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
        b = rng.normal(size=lead + (n,)) + 1j * rng.normal(size=lead + (n,))
        if n > 1:
            # zero leading entries force row swaps: a row-reversed upper
            # triangle has one nonzero in column 0, on its last row
            flat = a.reshape(-1, n, n)
            flat[0::2] = np.triu(flat[0::2])[:, ::-1]
            flat[1::2, 0, 0] = 0.0
        x, det = generators._lu_solve(a, b)
        want_x = np.linalg.solve(a, b[..., None])[..., 0]
        want_det = np.linalg.det(a)
        assert x.shape == want_x.shape and det.shape == want_det.shape
        scale = np.max(np.abs(want_x), axis=-1, keepdims=True)
        assert np.all(np.abs(x - want_x) <= 1e-12 * scale)
        assert np.all(np.abs(det - want_det) <= 1e-12 * np.abs(want_det))

    def test_lu_solve_zero_pivot_gives_det_zero_quietly(self):
        a = np.array([[[0.0, 1.0], [0.0, 2.0]], [[2.0, 1.0], [1.0, 3.0]]], dtype=complex)
        b = np.ones((2, 2), dtype=complex)
        with np.errstate(all="raise"):
            x, det = generators._lu_solve(a, b)
        assert det[0] == 0.0 and not np.isfinite(x[0]).all()
        assert det[1] == pytest.approx(5.0, abs=1e-15)
        assert np.allclose(x[1], np.linalg.solve(a[1], b[1]), rtol=0, atol=1e-15)


class TestGeneratorObject:
    def test_consistency_check_rejects_mismatched_evaluator(self):
        h4 = catalog_generator("H4")

        def wrong(z):
            out = h4.evaluate(z).copy()
            out[..., 0] += 0.05 * z[..., 1]
            return out

        with pytest.raises(DomainError):
            Generator(h4.jet, wrong, {"kind": "test"})

    @pytest.mark.parametrize("dim,degree", [(2, 4), (3, 8), (2, 20)])
    def test_check_catches_a_product_form_jet_moved_by_1e_6(self, dim, degree):
        measures = [
            AtomicMeasure(((0.3, 0.6), (2.0, 0.4))),
            AtomicMeasure(((-1.1, 1.0),)),
            None,
        ][:dim]
        base = product_form([(k + 1) % dim for k in range(dim)], measures, degree=degree)
        jet = base.jet
        top = basis_tables(dim, degree).index[(1, degree - 1) + (0,) * (dim - 2)]
        assert jet.array[0, top] != 0
        array = jet.array.copy()
        array[0, top] += 1e-6
        moved = JetMap.from_array(array, jet.normalization)
        Generator(jet, base.evaluate, {"kind": "test"})
        with pytest.raises(DomainError, match="disagree"):
            Generator(moved, base.evaluate, {"kind": "test"})

    def test_jet_array_degree_cap(self):
        h4 = catalog_generator("H4", degree=3)
        with pytest.raises(JetShapeError):
            h4.jet_array(4)

    def test_to_json_shape(self):
        payload = catalog_generator("H1").to_json()
        assert payload["provenance"]["kind"] == "catalog"
        assert payload["jet"]["normalization"] == "generator-normalized"

    def test_normalization_is_checked_to_check_tol(self):
        def linear(dev):
            jet = JetMap(
                (
                    MultiJet(2, 3, {(1, 0): -1.0 + dev, (2, 0): 0.5}),
                    MultiJet(2, 3, {(0, 1): -1.0}),
                ),
                Normalization.GENERATOR,
            )
            return Generator(jet, jet, {"kind": "polynomial"})

        assert CHECK_TOL == 1e-8
        linear(0.9 * CHECK_TOL)
        with pytest.raises(DomainError, match="linear part"):
            linear(2.0 * CHECK_TOL)


def _koenigs_subjects(rng):
    """Generators whose construction knows the pointwise Koenigs map."""
    subjects = {}
    for k in range(1, 8):
        name = f"H{k}"
        for dim in (minimal_dimension(name), minimal_dimension(name) + 1):
            subjects[f"{name}-dim{dim}"] = catalog_generator(name, dim=dim)
    h4 = catalog_generator("H4", dim=3)
    once = rotate_generator(h4, rng.uniform(0.0, 2.0 * np.pi, size=3))
    subjects["rotation"] = once
    subjects["rotation-of-rotation"] = rotate_generator(once, rng.uniform(0.0, 2.0 * np.pi, size=3))
    subjects["dilation"] = dilation_generator(3)
    subjects["starlike-F4"] = from_starlike(catalog_get("F4"))
    subjects["starlike-F2-jet"] = from_starlike(catalog_get("F2").jet)
    return subjects


class TestKoenigsMap:
    """F with DF.h = -F, F(0) = 0 and DF(0) = I, where the construction knows it."""

    def test_koenigs_equation_holds_pointwise(self, rng, make_interior_points):
        for label, gen in _koenigs_subjects(rng).items():
            F, DF = gen.koenigs_map()
            z = make_interior_points(40, gen.dim)
            Fz = F(z)
            lhs = np.einsum("pij,pj->pi", DF(z), gen.evaluate(z))
            err = np.max(np.abs(lhs + Fz), axis=-1) / np.max(np.abs(Fz), axis=-1)
            assert np.max(err) <= 1e-12, label
            origin = np.zeros((1, gen.dim), dtype=np.complex128)
            assert np.max(np.abs(F(origin))) == 0.0, label
            assert np.max(np.abs(DF(origin)[0] - np.eye(gen.dim))) <= 1e-15, label

    def test_other_constructions_know_no_koenigs_map(self, rng):
        h2 = catalog_generator("H2")
        measure = AtomicMeasure(((0.4, 0.3), (2.1, 0.7)))
        rotated = rotate_generator(h2, rng.uniform(0.0, 2.0 * np.pi, size=2))
        for gen in (
            product_form([1, 0], [measure, None], degree=4),
            convex_combination([rotated, catalog_generator("H1")], [0.4, 0.6]),
            shear_linear(h2),
        ):
            assert gen.koenigs_map() is None
            # its series pair is still solved
            K, L = gen.koenigs_pair(4)
            assert not K.flags.writeable and not L.flags.writeable


ORACLE_SHAPES = [(2, 4), (3, 4), (3, 6)]


def _assert_same_array(got: np.ndarray, want: JetMap):
    """The array of an array constructor against its dict-jet oracle."""
    want_arr = want.array
    assert got.shape == want_arr.shape
    assert np.max(np.abs(got - want_arr)) <= 1e-13 * np.max(np.abs(want_arr))


def _random_measure(rng) -> AtomicMeasure:
    weights = rng.uniform(0.1, 1.0, size=3)
    return AtomicMeasure(tuple(zip(rng.uniform(-math.pi, math.pi, size=3), weights / weights.sum())))


def _rotated_catalog(rng, name, dim, degree):
    base = catalog_generator(name, dim=dim, degree=degree)
    return rotate_generator(base, rng.uniform(0.0, 2.0 * math.pi, size=dim))


class TestArrayConstructors:
    """Each constructor's array against the dict-jet construction it replaced."""

    @pytest.mark.parametrize("dim,degree", ORACLE_SHAPES)
    def test_product_form(self, rng, dim, degree):
        for _ in range(3):
            selectors = [int(s) for s in rng.integers(0, dim, size=dim)]
            measures = [_random_measure(rng) for _ in range(dim - 1)] + [None]
            g = product_form(selectors, measures, degree=degree)
            comps = []
            for k in range(dim):
                zk = variable_jet(dim, degree, k)
                if measures[k] is None:
                    comps.append(neg(zk))
                    continue
                p = MultiJet(dim, degree, {})
                for a, w in measures[k].atoms:
                    # (u + z)/(u - z) = 1 + 2 sum_m u^-m z^m with u = e^(ia)
                    u = complex(np.exp(1j * a))
                    mobius = [1.0 + 0j] + [2.0 / u**m for m in range(1, degree + 1)]
                    p = add(p, scaled(w, series_in_var(dim, degree, selectors[k], mobius)))
                comps.append(neg(mul(zk, p)))
            _assert_same_array(g.jet_array(degree), JetMap(tuple(comps)))
            # the TRUSTED build runs no probe: an untrusted copy compares its
            # evaluator with its array on the probe torus
            Generator(g.jet_array(degree), g.evaluate, {"kind": "copy"})

    @pytest.mark.parametrize("dim,degree", ORACLE_SHAPES)
    def test_convex_combination(self, rng, dim, degree):
        parts = [
            _rotated_catalog(rng, "H1", dim, degree),
            catalog_generator("H4", dim=dim, degree=degree + 1),
            product_form([1] + [0] * (dim - 1), [_random_measure(rng)] + [None] * (dim - 1), degree),
        ]
        w = [0.2, 0.3, 0.5]
        g = convex_combination(parts, w)
        comps = []
        for j in range(dim):
            acc = MultiJet(dim, degree, {})
            for wt, p in zip(w, parts):
                acc = add(acc, scaled(wt, truncated(p.jet.component(j), degree)))
            comps.append(acc)
        assert g.degree == degree
        _assert_same_array(g.jet_array(degree), JetMap(tuple(comps)))

    @pytest.mark.parametrize("degree", [4, 6])
    @pytest.mark.parametrize("name", ["H1", "H2", "H3", "H4"])
    def test_shears(self, rng, name, degree):
        g = _rotated_catalog(rng, name, 2, degree)
        coeffs = {(1, 0): -1.0}
        coeffs.update({(1, k): g.jet.coefficient(0, (1, k)) for k in range(1, degree)})
        want = JetMap((MultiJet(2, degree, coeffs), g.jet.component(1)))
        _assert_same_array(shear_linear(g).jet_array(degree), want)
        coeffs = {(1, 0): -1.0, (0, 2): g.jet.coefficient(0, (0, 2))}
        want = JetMap((MultiJet(2, degree, coeffs), g.jet.component(1)))
        _assert_same_array(shear_quadratic(g).jet_array(degree), want)

    @pytest.mark.parametrize("dim,degree", ORACLE_SHAPES)
    def test_from_starlike(self, dim, degree):
        names = [f"F{j}" for j in range(1, 8 if dim == 3 else 6)]
        for name in names:
            f = catalog_get(name, dim=dim, degree=degree)
            x = matrix_solve(jacobian(f.jet), components(f.jet))
            want = JetMap(tuple(neg(c) for c in x))
            _assert_same_array(from_starlike(f).jet_array(degree), want)

    @pytest.mark.parametrize("dim,degree", ORACLE_SHAPES)
    def test_every_kind_serves_views_of_one_read_only_array(self, rng, dim, degree):
        gens = [
            catalog_generator("H2", dim=dim, degree=degree),
            dilation_generator(dim, degree=degree),
            _rotated_catalog(rng, "H4", dim, degree),
            product_form([1] + [0] * (dim - 1), [_random_measure(rng)] + [None] * (dim - 1), degree),
            convex_combination(
                [_rotated_catalog(rng, "H1", dim, degree), catalog_generator("H5", dim=dim, degree=degree)],
                [0.4, 0.6],
            ),
            from_starlike(catalog_get("F3", dim=dim, degree=degree)),
        ]
        if dim == 2:
            gens += [shear_linear(gens[2]), shear_quadratic(gens[2])]
        for g in gens:
            for d in range(1, degree + 1):
                arr = g.jet_array(d)
                assert not arr.flags.writeable, g.provenance["kind"]
                assert arr.shape == (dim, basis_tables(dim, d).size)
                assert np.shares_memory(arr, g.jet.array), g.provenance["kind"]
                assert np.array_equal(arr, g.jet.array[:, : arr.shape[1]]), g.provenance["kind"]

    def test_array_input_and_its_shape(self):
        h4 = catalog_generator("H4")
        arr = h4.jet_array(4).copy()
        g = Generator(arr, h4.evaluate, {"kind": "test"})
        arr[0, 5] = 7.0  # the generator holds its own copy
        assert g.dim == 2 and g.degree == 4 and g.jet == h4.jet
        with pytest.raises(JetShapeError):
            Generator(arr[:, :-1], h4.evaluate, {"kind": "test"}, admission=Admission.TRUSTED)
        moved = h4.jet_array(4).copy()
        moved[1, 0] = 1e-3
        with pytest.raises(DomainError, match="constant term"):
            Generator(moved, h4.evaluate, {"kind": "test"}, admission=Admission.TRUSTED)

    def test_huge_rotation_angles_are_refused(self):
        h4 = catalog_generator("H4")
        with pytest.raises(DomainError, match="not finite"):
            rotate_generator(h4, (1e308, 1e308))


angles_st = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(
    sel=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    a1=angles_st,
    a2=angles_st,
    w=st.floats(min_value=0.05, max_value=0.95),
)
def test_product_forms_always_pass_membership(sel, a1, a2, w):
    measure = AtomicMeasure(((a1, w), (a2, 1.0 - w)))
    g = product_form(list(sel), [measure, measure], degree=3)
    cert = membership_check(g)
    assert cert.passed


@settings(max_examples=25, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    th=angles_st,
    names=st.tuples(
        st.sampled_from(["H1", "H2", "H3", "H4", "H5"]),
        st.sampled_from(["H1", "H2", "H3", "H4", "H5"]),
    ),
)
def test_combinations_of_rotated_catalog_generators_pass(w, th, names):
    parts = [
        rotate_generator(catalog_generator(names[0]), (th, 0.0)),
        catalog_generator(names[1]),
    ]
    g = convex_combination(parts, [w, 1.0 - w])
    assert membership_check(g).passed

"""Coefficient extraction by torus sampling, checked on closed forms."""

import numpy as np
import pytest

from polyloewner import (
    DomainError,
    MultiJet,
    Normalization,
    basis_tables,
    catalog_get,
    catalog_names,
    map_distance,
    minimal_dimension,
    torus_array,
    torus_grid,
)
from polyloewner.kernels import array_to_map
from oracles import ring_jacobian


def koebe_pair(z):
    # (z1/(1-z1)^2, z2): every Taylor coefficient of component 0 is k * z1^k
    out = np.empty_like(z)
    out[..., 0] = z[..., 0] / (1.0 - z[..., 0]) ** 2
    out[..., 1] = z[..., 1]
    return out


def test_torus_coefficients_recover_koebe_expansion():
    tables = basis_tables(2, 4)
    coeffs = torus_array(koebe_pair, tables)
    for k in range(1, 5):
        assert coeffs[0, tables.index[(k, 0)]] == pytest.approx(k, abs=1e-9)
    assert coeffs[1, tables.index[(0, 1)]] == pytest.approx(1, abs=1e-12)
    assert abs(coeffs[0, tables.index[(1, 1)]]) < 1e-12


def test_torus_array_matches_catalog_jet():
    entry = catalog_get("F5")
    tables = basis_tables(2, 4)
    got = array_to_map(torus_array(entry.evaluator, tables), tables, Normalization.GENERAL)
    want = entry.jet
    assert map_distance(
        got, want.with_normalization(Normalization.GENERAL)
    ) < 1e-9


def test_torus_sampling_needs_enough_angles():
    tables = basis_tables(2, 4)
    with pytest.raises(DomainError):
        torus_array(koebe_pair, tables, samples=3)
    with pytest.raises(DomainError):
        torus_array(koebe_pair, tables, radius=1.5)


def test_ring_jacobian_matches_closed_form(rng, make_interior_points):
    z = make_interior_points(6, 2, radius=0.6)
    got = ring_jacobian(koebe_pair, z)
    want = np.zeros(z.shape[:-1] + (2, 2), dtype=np.complex128)
    want[..., 0, 0] = (1.0 + z[..., 0]) / (1.0 - z[..., 0]) ** 3
    want[..., 1, 1] = 1.0
    assert np.max(np.abs(got - want)) < 1e-8


def test_ring_jacobian_single_point():
    z = np.array([0.2 + 0.1j, -0.3j])
    got = ring_jacobian(koebe_pair, z)
    assert got.shape == (2, 2)
    assert got[1, 1] == pytest.approx(1.0, abs=1e-10)


def fft_torus_array(evaluator, tables, radius, samples):
    """The oracle: full ``np.fft.fftn`` over the mesh, one exp per point."""
    dim = tables.dim
    theta = 2.0 * np.pi * np.arange(samples) / samples
    axes = np.meshgrid(*([theta] * dim), indexing="ij")
    pts = np.stack([radius * np.exp(1j * ax) for ax in axes], axis=-1)
    vals = np.asarray(evaluator(pts.reshape(-1, dim))).reshape(pts.shape)
    hat = np.fft.fftn(vals, axes=tuple(range(dim))) / samples**dim
    out = np.empty((dim, tables.size), dtype=np.complex128)
    for k, alpha in enumerate(tables.alphas):
        out[:, k] = hat[alpha] / radius ** sum(alpha)
    return out


@pytest.mark.parametrize("dim,degree", [(2, 4), (3, 6), (2, 16), (3, 12)])
def test_array_route_matches_the_fft_oracle(dim, degree):
    tables = basis_tables(dim, degree)
    radius, samples = torus_grid(degree)
    names = [n for n in catalog_names() if minimal_dimension(n) <= dim]
    assert len(names) == (10 if dim == 2 else 14)
    for name in names:
        evaluator = catalog_get(name, dim, degree).evaluator
        got = torus_array(evaluator, tables)
        want = fft_torus_array(evaluator, tables, radius, samples)
        assert np.max(np.abs(got - want)) < 2e-11, name


def test_torus_grid_follows_the_degree():
    assert [torus_grid(d) for d in (0, 12)] == [(0.4, 32)] * 2
    assert [torus_grid(d) for d in (13, 16)] == [(0.6, 64)] * 2
    assert [torus_grid(d) for d in (17, 43)] == [(0.8, 160)] * 2
    with pytest.raises(DomainError, match="up to 43"):
        torus_grid(44)
    # degree 44 fits the basis cap only in dim 1, where the check refuses it
    with pytest.raises(DomainError, match="up to 43"):
        torus_array(lambda z: z, basis_tables(1, 44))


def test_torus_array_matches_explicit_grid_arguments():
    tables = basis_tables(2, 5)
    default = torus_array(koebe_pair, tables)
    assert np.array_equal(default, torus_array(koebe_pair, tables, radius=0.4, samples=32))
    assert np.max(np.abs(default[0, tables.index[(5, 0)]] - 5.0)) < 1e-9

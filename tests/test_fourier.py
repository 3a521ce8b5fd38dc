"""Coefficient extraction by torus sampling, checked on closed forms."""

import numpy as np
import pytest

from polyloewner import (
    DomainError,
    JetMap,
    basis_tables,
    catalog_get,
    catalog_names,
    map_distance,
    minimal_dimension,
    torus_array,
    torus_grid,
)
from polyloewner import fourier
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
    got = JetMap.from_array(torus_array(entry.evaluator, tables))
    assert map_distance(got, entry.jet) < 1e-9


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
    assert np.max(np.abs(default - fft_torus_array(koebe_pair, tables, 0.4, 32))) < 2e-11
    assert np.max(np.abs(default[0, tables.index[(5, 0)]] - 5.0)) < 1e-9


def whole_mesh_transform(evaluator, tables):
    """The truncated DFT of the whole mesh evaluated at once, axis 0 first."""
    dim, degree = tables.dim, tables.degree
    radius, samples = torus_grid(degree)
    vals = np.asarray(evaluator(fourier._torus_points(dim, radius, samples, slice(None))))
    rows = fourier._dft_matrix(degree, samples)
    hat = vals.reshape((samples,) * dim + (dim,))
    for axis in range(dim):
        lead, rest = hat.shape[:axis], hat.shape[axis + 1 :]
        hat = (rows @ hat.reshape((-1, samples, int(np.prod(rest))))).reshape(lead + (degree + 1,) + rest)
    coeffs = hat[tuple(tables.alpha_matrix.T)].T
    return coeffs / np.array([radius**d for d in range(degree + 1)])[tables.degrees]


@pytest.mark.parametrize("name,dim,degree", [("F7", 3, 4), ("F6", 3, 12), ("F3", 2, 12), ("H5", 2, 16)])
def test_slabs_give_the_whole_mesh_transform(monkeypatch, name, dim, degree):
    entry = catalog_get(name, dim, degree)
    tables = basis_tables(dim, degree)
    radius, samples = torus_grid(degree)
    calls = []

    def evaluator(z):
        calls.append(len(z))
        return entry.evaluator(z)

    # a mesh of at most _TORUS_SLAB points is one slab, transformed as a whole
    one = torus_array(evaluator, tables)
    assert calls == [samples**dim]
    assert one.tobytes() == whole_mesh_transform(entry.evaluator, tables).tobytes()
    for slab in (1, 7 * samples, samples**dim // 3):
        monkeypatch.setattr(fourier, "_TORUS_SLAB", slab)
        calls.clear()
        multi = torus_array(evaluator, tables)
        assert sum(calls) == samples**dim and len(calls) > 1
        assert max(calls) == max(slab - slab % samples, samples)
        # each slab's columns go through the same first pass, in smaller products
        assert np.max(np.abs(multi - one) * radius**tables.degrees) <= 1e-15

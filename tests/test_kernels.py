"""Array kernels: the sparse pair-table engine agrees with the dict-jet reference.

The dict-jet ring of ``tests/oracles.py`` (``oracles.mul`` and the
composition ``oracles.compose`` built on it) computes every product
independently of the pair table, so it is the oracle here.  ``polyloewner.compose`` runs the array engine,
so it is checked against that oracle too.
"""

import math

import numpy as np
import pytest

from polyloewner import (
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    basis_tables,
    compose,
    jet_distance,
    map_distance,
    multiindices,
)
from polyloewner import kernels
from polyloewner.jets import MAX_BASIS_SIZE, check_jet_shape
from polyloewner.kernels import (
    compose_arrays,
    default_backend,
    identity_array,
    mul_arrays,
    rk4_jet_arrays,
)
import oracles


def random_map_array(rng, tables, zero_constant=False):
    arr = rng.normal(size=(tables.dim, tables.size)) + 1j * rng.normal(
        size=(tables.dim, tables.size)
    )
    arr *= 0.3
    if zero_constant:
        arr[:, 0] = 0.0
    return arr


def jet_of(vec, tables):
    return MultiJet(tables.dim, tables.degree, {a: c for a, c in zip(tables.alphas, vec)})


def vector_of(jet, tables):
    return np.array([jet.coefficient(a) for a in tables.alphas])


def test_basis_tables_shapes():
    for dim, degree, size in ((2, 3, 10), (3, 3, 20), (2, 4, 15), (3, 4, 35)):
        t = basis_tables(dim, degree)
        assert t.size == size
        assert len(multiindices(dim, degree)) == size
        assert t.alpha_matrix.shape == (size, dim)


def test_pair_table_is_sorted_by_k_and_starts_with_the_unit():
    for dim, degree in ((1, 5), (2, 4), (3, 6)):
        t = basis_tables(dim, degree)
        assert np.all(np.diff(t.mul_k) >= 0)
        # the first pair of every k is (0, k): no group of the reduction is empty
        assert np.array_equal(t.mul_i[t.mul_start], np.zeros(t.size))
        assert np.array_equal(t.mul_j[t.mul_start], np.arange(t.size))
        assert np.array_equal(t.mul_k[t.mul_start], np.arange(t.size))
        degrees = t.degrees
        assert np.all(degrees[t.mul_i] + degrees[t.mul_j] == degrees[t.mul_k])
        assert np.all(degrees[t.mul_k] <= degree)
        # only arrays of size O(pairs) or O(B^2): no (B^2, B) product table
        arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) <= max(t.mul_k.size, t.dim * t.size**2)


def test_pair_build_matches_the_loop():
    # the vectorized build against the pair loop it replaced, in the same (k, i, j) order
    for dim, degree in ((1, 5), (2, 4), (3, 6), (4, 3), (5, 2)):
        t = basis_tables(dim, degree)
        pairs = []
        for i, a in enumerate(t.alphas):
            for j, b in enumerate(t.alphas):
                if sum(a) + sum(b) <= degree:
                    pairs.append((t.index[tuple(x + y for x, y in zip(a, b))], i, j))
        mk, mi, mj = np.array(sorted(pairs)).T
        assert np.array_equal(t.mul_k, mk)
        assert np.array_equal(t.mul_i, mi)
        assert np.array_equal(t.mul_j, mj)
        assert [t.alphas[k] for k in t.linear] == [
            tuple(int(v == j) for v in range(dim)) for j in range(dim)
        ]


def test_monomial_layers_keep_the_pairs_that_can_be_nonzero():
    # layer d >= 2 keeps the pairs (i, j, k) with deg i >= d - 1, deg j >= 1,
    # in the order of the full table, and every k of degree >= d has a pair
    for dim, degree in ((1, 5), (2, 4), (3, 6), (4, 3), (4, 8)):
        t = basis_tables(dim, degree)
        deg = t.degrees
        assert [layer.start for layer in t.monomial_layers] == [
            int(np.argmax(deg == d)) for d in range(2, degree + 1)
        ]
        for d, layer in enumerate(t.monomial_layers, start=2):
            rows = np.arange(layer.blocks[0].lo, layer.blocks[-1].hi)
            assert layer.start == rows[0] and np.array_equal(rows, np.nonzero(deg == d)[0])
            assert all(a.hi == b.lo for a, b in zip(layer.blocks, layer.blocks[1:]))
            parent = np.concatenate([block.parent for block in layer.blocks])
            var = np.concatenate([block.var for block in layer.blocks])
            unit = np.eye(dim, dtype=np.int64)[var]
            assert np.array_equal(t.alpha_matrix[parent] + unit, t.alpha_matrix[rows])
            keep = (deg[t.mul_i] >= d - 1) & (deg[t.mul_j] >= 1)
            assert np.array_equal(layer.pair_i, t.mul_i[keep])
            assert np.array_equal(layer.pair_j, t.mul_j[keep])
            assert np.array_equal(
                layer.pair_start, np.searchsorted(t.mul_k[keep], np.arange(layer.start, t.size))
            )
            assert np.all(np.diff(layer.pair_start) > 0)


def test_monomial_layers_hold_o_pairs_at_the_largest_dim_4_shape():
    # no cached (rows x pairs) index arrays: those would take 147 MB at (4, 10)
    t = basis_tables(4, 10)
    assert sum(layer.pair_i.size for layer in t.monomial_layers) == 186_472
    arrays = [a for layer in t.monomial_layers for a in layer if isinstance(a, np.ndarray)]
    arrays += [a for layer in t.monomial_layers for block in layer.blocks for a in block[2:]]
    assert sum(a.nbytes for a in arrays) <= 16 * 2**20


def test_derivative_gather_matches_the_dict_derivative(rng):
    for dim, degree in ((1, 5), (2, 4), (3, 3)):
        tables = basis_tables(dim, degree)
        f = random_map_array(rng, tables)
        col, factor = tables.deriv_gather
        for j in range(dim):
            want = [vector_of(oracles.derivative(jet_of(row, tables), j), tables) for row in f]
            assert np.max(np.abs(f[:, col[j]] * factor[j] - np.array(want))) <= 1e-15


def test_basis_cap_is_checked_before_building(monkeypatch):
    # the cap is C(dim + degree, dim) <= MAX_BASIS_SIZE, and it admits (3, 16) and (4, 10)
    for dim in range(1, 8):
        for degree in range(0, 40):
            over = math.comb(dim + degree, dim) > MAX_BASIS_SIZE
            if over:
                with pytest.raises(JetShapeError, match="monomials"):
                    check_jet_shape(dim, degree)
            else:
                check_jet_shape(dim, degree)
    assert math.comb(19, 3) <= MAX_BASIS_SIZE and math.comb(14, 4) <= MAX_BASIS_SIZE

    def no_build(*args):
        raise AssertionError("tables were built")

    # the largest dimension the cap admits enumerates without deep recursion
    assert len(multiindices(1000, 1)) == 1001

    monkeypatch.setattr(kernels, "multiindices", no_build)
    for dim, degree in ((4, 30), (10**9, 10**9), (1000, 2)):
        with pytest.raises(JetShapeError, match="monomials"):
            basis_tables(dim, degree)


def test_default_backend_names_the_one_engine():
    assert default_backend() == "numpy"


def test_array_map_round_trip(rng):
    tables = basis_tables(2, 3)
    f = JetMap(
        (
            oracles.add(oracles.variable_jet(2, 3, 0), MultiJet(2, 3, {(1, 1): 0.5 - 0.25j})),
            oracles.add(oracles.variable_jet(2, 3, 1), MultiJet(2, 3, {(0, 3): 2.0})),
        ),
        Normalization.GENERAL,
    )
    # the dict constructors fill the basis of the engine's tables
    assert f.array.shape == (2, tables.size)
    assert f.array[0, tables.index[(1, 1)]] == 0.5 - 0.25j
    assert f.array[1, tables.index[(0, 3)]] == 2.0
    assert np.array_equal(f.array[:, tables.linear], np.eye(2))
    assert np.count_nonzero(f.array) == 4
    g = JetMap.from_array(f.array)
    assert map_distance(f, g) == 0.0 and g == f
    ident = JetMap.from_array(identity_array(tables))
    assert ident.coefficient(0, (1, 0)) == 1.0
    assert ident.coefficient(1, (0, 1)) == 1.0


@pytest.mark.parametrize(
    "dim,degree", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 6), (2, 8), (3, 8), (4, 4)]
)
def test_backends_agree_on_mul_and_compose(rng, dim, degree):
    """Array engine against the dict-jet reference: products and compositions."""
    tables = basis_tables(dim, degree)
    a = random_map_array(rng, tables)
    b = random_map_array(rng, tables, zero_constant=True)

    want_mul = np.array(
        [vector_of(oracles.mul(jet_of(a[i], tables), jet_of(b[i], tables)), tables) for i in range(dim)]
    )
    scale = max(1.0, np.max(np.abs(want_mul)))
    for i in range(dim):
        assert np.max(np.abs(mul_arrays(a[i], b[i], tables) - want_mul[i])) <= 1e-13 * scale
    # leading axes broadcast: (dim, B) rows against one (B,) row and row by row
    assert np.max(np.abs(mul_arrays(a, b, tables) - want_mul)) <= 1e-13 * scale
    stacked = mul_arrays(a[:, None, :], b[None, :, :], tables)
    assert stacked.shape == (dim, dim, tables.size)
    assert np.max(np.abs(np.diagonal(stacked).T - want_mul)) <= 1e-13 * scale

    want = oracles.compose(JetMap.from_array(a), JetMap.from_array(b)).array
    got = compose_arrays(a, b, tables)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_compose_arrays_matches_exact_composition(rng):
    tables = basis_tables(2, 4)
    outer = JetMap(
        (
            oracles.add(oracles.variable_jet(2, 4, 0), MultiJet(2, 4, {(1, 1): 0.4, (0, 2): -0.3j})),
            oracles.add(oracles.variable_jet(2, 4, 1), MultiJet(2, 4, {(2, 0): 0.2})),
        ),
        Normalization.GENERAL,
    )
    inner = JetMap(
        (
            oracles.add(oracles.variable_jet(2, 4, 0), MultiJet(2, 4, {(0, 2): 0.6})),
            oracles.add(oracles.variable_jet(2, 4, 1), MultiJet(2, 4, {(1, 1): -0.5j})),
        ),
        Normalization.GENERAL,
    )
    want = oracles.compose(outer, inner)
    got = JetMap.from_array(compose_arrays(outer.array, inner.array, tables))
    assert map_distance(got, want) < 1e-13


def _random_map(rng, dim, degree, zero_constant=False):
    tables = basis_tables(dim, degree)
    return JetMap.from_array(random_map_array(rng, tables, zero_constant))


@pytest.mark.parametrize(
    "dim,outer_degree,inner_degree", [(2, 4, 6), (2, 6, 4), (3, 5, 7), (3, 7, 5)]
)
def test_compose_matches_the_dict_oracle(rng, dim, outer_degree, inner_degree):
    # the shape is (dim, lower degree): (2, 4) and (3, 5), reached from either side
    outer = _random_map(rng, dim, outer_degree)
    inner = _random_map(rng, dim, inner_degree, zero_constant=True)
    got = compose(outer, inner)
    want = oracles.compose(outer, inner)
    shape = (dim, min(outer_degree, inner_degree))
    assert (got.dim, got.degree) == (want.dim, want.degree) == shape
    assert got.normalization is Normalization.GENERAL
    scale = max(1.0, float(np.max(np.abs(want.array))))
    assert map_distance(got, want) <= 1e-13 * scale


def test_compose_refuses_what_the_engine_refuses():
    # a nonzero inner constant raises DomainError (tests/test_jets.py)
    with pytest.raises(JetShapeError, match="dim mismatch"):
        compose(oracles.identity_map(2, 3), oracles.identity_map(3, 3))
    # degree 0 has no basis, and (3, 17) has 1140 monomials; the dict oracle takes both
    flat = JetMap((MultiJet(1, 0, {(0,): 2.0}),))
    zero = JetMap((MultiJet(1, 0, {}),))
    assert jet_distance(oracles.compose(flat, zero).component(0), flat.component(0)) == 0.0
    with pytest.raises(JetShapeError):
        compose(flat, zero)
    big = oracles.identity_map(3, 17)
    with pytest.raises(JetShapeError, match="monomials"):
        compose(big, big)


def test_compose_and_rk4_refuse_a_nonzero_constant_term(rng):
    # the monomial layers drop the pairs that only a constant term would fill
    tables = basis_tables(2, 4)
    shifted = random_map_array(rng, tables, zero_constant=True)
    shifted[1, 0] = 1e-300
    ident = identity_array(tables)
    message = "inner map of a composition must have zero constant term"
    with pytest.raises(DomainError, match=message):
        compose_arrays(ident, shifted, tables)
    with pytest.raises(DomainError, match="zero constant term"):
        rk4_jet_arrays(shifted, ident, np.full(2, 0.1), tables)
    with pytest.raises(DomainError, match="zero constant term"):
        rk4_jet_arrays(-ident, shifted, np.full(2, 0.1), tables)
    # the outer map may have one
    outer = random_map_array(rng, tables)
    assert np.array_equal(compose_arrays(outer, ident, tables), outer)


@pytest.mark.parametrize("dim,degree", [(2, 3), (3, 4), (3, 6)])
def test_backends_agree_on_rk4(rng, dim, degree):
    """Array RK4 against the same scheme with dict-jet compositions."""
    tables = basis_tables(dim, degree)
    gen = random_map_array(rng, tables, zero_constant=True)
    gen[:, 1 : 1 + dim] = -np.eye(dim)  # generator-normalized linear part
    # to t = 1; (3, 6) in 5 steps, as one dict composition there takes 0.2 s
    steps = 5 if (dim, degree) == (3, 6) else 20
    hs = np.full(steps, 1.0 / steps)
    outer = JetMap.from_array(gen)

    def field(y):
        return oracles.compose(outer, JetMap.from_array(y)).array

    y = identity_array(tables)
    for h in hs:
        k1 = field(y)
        k2 = field(y + (0.5 * h) * k1)
        k3 = field(y + (0.5 * h) * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = rk4_jet_arrays(gen, identity_array(tables), hs, tables)
    assert np.max(np.abs(got - y)) < 1e-11


def test_rk4_dilation_gives_exponential_contraction():
    # h(z) = -z evolves the identity jet to e^{-t} * identity
    tables = basis_tables(2, 3)
    gen = -identity_array(tables)
    hs = np.full(100, 0.01)
    out = rk4_jet_arrays(gen, identity_array(tables), hs, tables)
    want = np.exp(-1.0) * identity_array(tables)
    assert np.max(np.abs(out - want)) < 1e-10


def test_rk4_empty_steps_is_identity_copy():
    tables = basis_tables(2, 3)
    state = identity_array(tables)
    out = rk4_jet_arrays(-state, state, np.array([]), tables)
    assert np.array_equal(out, state)
    assert out is not state

"""Dense-array jet kernels for the evolution hot loops.

Jets living on a fixed basis (all multi-indices of total degree <= D,
graded-lex order) are stored as complex vectors of length B, and a jet
map as an (n, B) matrix.  A truncated product runs through one sparse
pairing table: the pairs (i, j) with basis[i] * basis[j] = basis[k] and
total degree <= D, sorted by k.  It gathers a[i] * b[j] over the pairs
and sums each run of equal k, so it costs O(pairs), not O(B^3).

Composition builds the monomial matrix M[k] = inner**alpha_k and
finishes with one matrix product; an RK4 step is four compositions.
Since inner(0) = 0, the row of a monomial of degree d vanishes below
degree d, so M is built layer by layer over restricted pair lists, kept
once per shape (``BasisTables.monomial_layers``):

- layer 1 is ``inner`` itself, copied in;
- layer d >= 2 multiplies each row's parent (degree d-1) by one inner
  component, over the pairs (i, j, k) with deg i >= d-1, deg j >= 1, so
  k runs over the layers d..D only.  A block of rows is one gather of the
  parent rows, one gather of ``inner``, one multiply and one
  ``np.add.reduceat`` written straight into M[rows, first k of layer d:].
  A block holds about ``_BLOCK`` products, so its temporaries stay in
  cache; up to (3, 8) every layer is one block.

The layer tables hold 9306 pairs at (3, 8) and 186,472 at (4, 10) (2.9
MB of indices).  One composition forms 132,220 products at (3, 8) and
9.3 million at (4, 10), against 492,492 and 43.8 million when every row
of degree >= 1 gathers the full table.  The precondition inner(0) = 0 is
checked on entry: ``compose_arrays`` and ``rk4_jet_arrays`` raise
``DomainError`` without it.  ``mul_arrays`` and ``compose_arrays`` (with
``rk4_jet_arrays`` built on the latter) are the only jet products in the
program: the catalog writes its jets as coefficient tables, and ``jets``
holds values only.  A ``JetMap`` is a read-only view of one such (n, B)
array, so ``compose`` runs the engine on its operands' arrays and wraps
the result, converting nothing.  The tests check the engine against the
dict-jet ring of ``tests/oracles.py``, whose products never touch the
pair tables.  ``benchmarks/bench_kernels.py`` times the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .jets import DomainError, JetMap, JetShapeError, check_jet_shape, multiindices

__all__ = [
    "BasisTables",
    "basis_tables",
    "identity_array",
    "default_backend",
    "mul_arrays",
    "jacobian_times",
    "compose_arrays",
    "compose",
    "rk4_jet_arrays",
]


# products per block of rows: about 1 MB of complex temporaries, which
# stay in cache (at (4, 10) one unblocked layer is a 27 MB temporary, and
# blocking halves the time of a composition)
_BLOCK = 1 << 16


class RowBlock(NamedTuple):
    """Rows lo:hi of a layer: row lo + r is row parent[r] times inner[var[r]]."""

    lo: int
    hi: int
    parent: np.ndarray
    var: np.ndarray


class MonomialLayer(NamedTuple):
    """Restricted pairs that build the rows of one degree layer d >= 2.

    ``start`` is the layer's first row, and its products land in the
    columns ``start:`` (degrees d..D).  The pairs (i, j, k) with
    deg i >= d-1 and deg j >= 1 are sorted by k; ``pair_start`` is the
    first pair of each k in ``start:``, and no k's run of pairs is empty.
    The rows come in blocks of about ``_BLOCK`` products.
    """

    start: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_start: np.ndarray
    blocks: tuple[RowBlock, ...]


@dataclass(frozen=True, eq=False)
class BasisTables:
    """Precomputed index tables for one (dim, degree) dense jet basis."""

    dim: int
    degree: int
    alphas: tuple[tuple[int, ...], ...]
    index: dict
    alpha_matrix: np.ndarray      # (B, dim) exponents
    degrees: np.ndarray           # (B,) total degrees
    mul_i: np.ndarray             # pairing table, sorted by k: basis[i]*basis[j] -> basis[k]
    mul_j: np.ndarray
    mul_k: np.ndarray
    mul_start: np.ndarray         # (B,) first pair of each k
    monomial_layers: tuple[MonomialLayer, ...]  # degrees 2..D of the monomial recursion
    linear: np.ndarray            # (dim,) column of z_j: arr[:, linear] is the linear part

    @property
    def size(self) -> int:
        return len(self.alphas)

    @cached_property
    def deriv_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(dim, B) columns and factors: f[..., col[j]] * factor[j] is df/dz_j.

        Column c of df/dz_j is (c_j + 1) times column c + e_j of f, read
        off the pairs (c, z_j); where c + e_j is past the degree, the
        factor is 0.
        """
        var_of = np.full(self.size, -1)
        var_of[self.linear] = np.arange(self.dim)
        sel = var_of[self.mul_j] >= 0
        v, c, k = var_of[self.mul_j[sel]], self.mul_i[sel], self.mul_k[sel]
        col = np.zeros((self.dim, self.size), dtype=np.int64)
        factor = np.zeros((self.dim, self.size))
        col[v, c] = k
        factor[v, c] = self.alpha_matrix[k, v]
        return col, factor


@lru_cache(maxsize=None)
def basis_tables(dim: int, degree: int) -> BasisTables:
    """Index tables of the (dim, degree) basis, at most ``MAX_BASIS_SIZE`` long."""
    if dim < 1 or degree < 1:
        raise JetShapeError(f"need dim >= 1 and degree >= 1, got ({dim}, {degree})")
    check_jet_shape(dim, degree)
    alphas = tuple(multiindices(dim, degree))
    index = {a: k for k, a in enumerate(alphas)}
    B = len(alphas)
    alpha_matrix = np.array(alphas, dtype=np.int64)
    degrees = alpha_matrix.sum(axis=1)

    # pairs (k, i, j) with basis[i] * basis[j] = basis[k], sorted by k, i, j;
    # k is found by matching the summed exponent rows against the basis rows
    mi, mj = np.nonzero(degrees[:, None] + degrees[None, :] <= degree)
    rows = np.concatenate([alpha_matrix, alpha_matrix[mi] + alpha_matrix[mj]])
    group = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    basis_of_group = np.empty(B, dtype=np.int64)
    basis_of_group[group[:B]] = np.arange(B)
    mk = basis_of_group[group[B:]]
    order = np.lexsort((mj, mi, mk))
    mk, mi, mj = mk[order], mi[order], mj[order]

    # alpha = parent + e_var with var the first variable of alpha; each
    # layer keeps the pairs that can be nonzero when inner(0) = 0
    bounds = np.searchsorted(degrees, np.arange(degree + 2))
    monomial_layers = []
    for d in range(2, degree + 1):
        start, stop = int(bounds[d]), int(bounds[d + 1])
        var = np.argmax(alpha_matrix[start:stop] > 0, axis=1)
        parent = np.array(
            [index[a[:v] + (a[v] - 1,) + a[v + 1 :]] for a, v in zip(alphas[start:stop], var)]
        )
        keep = (degrees[mi] >= d - 1) & (degrees[mj] >= 1)
        height = max(1, _BLOCK // int(keep.sum()))
        blocks = tuple(
            RowBlock(
                start + r, min(start + r + height, stop), parent[r : r + height], var[r : r + height]
            )
            for r in range(0, stop - start, height)
        )
        monomial_layers.append(
            MonomialLayer(
                start=start,
                pair_i=mi[keep],
                pair_j=mj[keep],
                pair_start=np.searchsorted(mk[keep], np.arange(start, B)),
                blocks=blocks,
            )
        )
    return BasisTables(
        dim=dim,
        degree=degree,
        alphas=alphas,
        index=index,
        alpha_matrix=alpha_matrix,
        degrees=degrees,
        mul_i=mi,
        mul_j=mj,
        mul_k=mk,
        mul_start=np.searchsorted(mk, np.arange(B)),
        monomial_layers=tuple(monomial_layers),
        linear=np.array([index[tuple(int(v == j) for v in range(dim))] for j in range(dim)]),
    )


def identity_array(tables: BasisTables) -> np.ndarray:
    out = np.zeros((tables.dim, tables.size), dtype=np.complex128)
    for j in range(tables.dim):
        e = tuple(1 if v == j else 0 for v in range(tables.dim))
        out[j, tables.index[e]] = 1.0
    return out


# -- the engine -----------------------------------------------------------


def default_backend() -> str:
    """Name of the one jet engine, kept for run fingerprints."""
    return "numpy"


def mul_arrays(a: np.ndarray, b: np.ndarray, tables: BasisTables) -> np.ndarray:
    """Truncated jet products a*b on the last axis; leading axes broadcast."""
    # every k has the pair (0, k), so no reduceat group is empty
    products = a[..., tables.mul_i] * b[..., tables.mul_j]
    return np.add.reduceat(products, tables.mul_start, axis=-1)


def jacobian_times(f: np.ndarray, x: np.ndarray, tables: BasisTables) -> np.ndarray:
    """Truncated jet of Df.x = sum_j df/dz_j * x_j, for (n, B) arrays f and x."""
    col, factor = tables.deriv_gather
    df = (f[:, col] * factor).transpose(1, 0, 2)  # df[j] = df/dz_j
    return mul_arrays(df, x[:, None, :], tables).sum(axis=0)


def _monomials(inner: np.ndarray, t: BasisTables) -> np.ndarray:
    """(B, B) matrix with row k = inner**alpha_k; needs inner(0) = 0."""
    B = inner.shape[1]
    M = np.zeros((B, B), dtype=np.complex128)
    M[0, 0] = 1.0
    M[t.linear] = inner
    for start, pair_i, pair_j, pair_start, blocks in t.monomial_layers:
        b = inner.take(pair_j, axis=1)
        for lo, hi, parent, var in blocks:
            prod = M.take(parent, axis=0).take(pair_i, axis=1)
            prod *= b.take(var, axis=0)
            M[lo:hi, start:] = np.add.reduceat(prod, pair_start, axis=1)
    return M


def _require_zero_constant(arr: np.ndarray, what: str) -> None:
    if arr[:, 0].any():
        raise DomainError(f"{what} must have zero constant term")


def compose_arrays(outer: np.ndarray, inner: np.ndarray, tables: BasisTables) -> np.ndarray:
    """Truncated jet of outer o inner, both (n, B) arrays, with inner(0) = 0."""
    _require_zero_constant(inner, "inner map of a composition")
    return outer @ _monomials(inner, tables)


def compose(outer: JetMap, inner: JetMap) -> JetMap:
    """Componentwise composition ``outer o inner`` of square jet maps, with inner(0) = 0.

    Both maps are truncated to the lower of their degrees, a column slice
    of their arrays.  The shape must have a basis, so degree 0 and bases
    above ``MAX_BASIS_SIZE`` raise ``JetShapeError``; the dict-jet
    composition accepted both, but no verb composes such maps.
    """
    if outer.dim != inner.dim:
        raise JetShapeError(f"dim mismatch in composition: {outer.dim} vs {inner.dim}")
    tables = basis_tables(outer.dim, min(outer.degree, inner.degree))
    cols = slice(tables.size)
    return JetMap.from_array(compose_arrays(outer.array[:, cols], inner.array[:, cols], tables))


def rk4_jet_arrays(
    gen: np.ndarray, state: np.ndarray, hs: np.ndarray, tables: BasisTables
) -> np.ndarray:
    """Advance the jet ODE state' = gen o state through the given steps.

    Both ``gen`` and ``state`` must vanish at 0; the state then stays at
    state(0) = 0 exactly, as every stage's monomial matrix needs.
    """
    _require_zero_constant(gen, "generator of a jet evolution")
    _require_zero_constant(state, "state of a jet evolution")
    y = state.copy()
    for h in np.asarray(hs, dtype=np.float64):
        k1 = gen @ _monomials(y, tables)
        k2 = gen @ _monomials(y + (0.5 * h) * k1, tables)
        k3 = gen @ _monomials(y + (0.5 * h) * k2, tables)
        k4 = gen @ _monomials(y + h * k3, tables)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y

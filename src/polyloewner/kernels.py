"""Dense-array jet kernels for the evolution hot loops.

Jets living on a fixed basis (all multi-indices of total degree <= D,
graded-lex order) are stored as complex vectors of length B, and a jet
map as an (n, B) matrix.  Every truncated product runs through one
sparse pairing table: the pairs (i, j) with basis[i] * basis[j] =
basis[k] and total degree <= D, sorted by k.  A product gathers
a[i] * b[j] over the pairs and sums each run of equal k, so it costs
O(pairs), not O(B^3).  Composition builds the monomial matrix
M[k] = inner**alpha_k by single-step recursion (each monomial is a
parent monomial times one inner component) and finishes with a matrix
product; RK4 steps are four compositions.  The dict-based ``jets``
module computes the same products independently and serves as the test
oracle.  ``benchmarks/bench_kernels.py`` times the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .jets import (
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    check_jet_shape,
    multiindices,
)

__all__ = [
    "BasisTables",
    "basis_tables",
    "map_to_array",
    "array_to_map",
    "identity_array",
    "default_backend",
    "mul_arrays",
    "compose_arrays",
    "rk4_jet_arrays",
]


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
    parent: np.ndarray            # monomial recursion: alpha = parent + e_{parent_var}
    parent_var: np.ndarray
    layers: tuple[np.ndarray, ...]  # basis indices grouped by total degree
    linear: np.ndarray            # (dim,) column of z_j: arr[:, linear] is the linear part

    @property
    def size(self) -> int:
        return len(self.alphas)

    @cached_property
    def deriv_matrices(self) -> np.ndarray:
        """(dim, B, B) 0/alpha_j matrices: row f @ D[j] holds df/dz_j."""
        B = self.size
        out = np.zeros((self.dim, B, B))
        for k, a in enumerate(self.alphas):
            for j, p in enumerate(a):
                if p:
                    lower = a[:j] + (p - 1,) + a[j + 1 :]
                    out[j, k, self.index[lower]] = p
        return out


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

    parent = np.full(B, -1, dtype=np.int64)
    parent_var = np.zeros(B, dtype=np.int64)
    for k, a in enumerate(alphas):
        if degrees[k] == 0:
            continue
        var = next(v for v, x in enumerate(a) if x > 0)
        p = list(a)
        p[var] -= 1
        parent[k] = index[tuple(p)]
        parent_var[k] = var

    layers = tuple(
        np.nonzero(degrees == d)[0].astype(np.int64) for d in range(degree + 1)
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
        parent=parent,
        parent_var=parent_var,
        layers=layers,
        linear=np.array([index[tuple(int(v == j) for v in range(dim))] for j in range(dim)]),
    )


# -- conversions ----------------------------------------------------------


def map_to_array(f: JetMap, tables: BasisTables) -> np.ndarray:
    if f.dim != tables.dim:
        raise JetShapeError(f"map dim {f.dim} does not match tables dim {tables.dim}")
    out = np.zeros((f.dim, tables.size), dtype=np.complex128)
    for i, comp in enumerate(f.components):
        for alpha, c in comp.coeffs.items():
            k = tables.index.get(alpha)
            if k is not None:
                out[i, k] = c
    return out


def array_to_map(
    arr: np.ndarray,
    tables: BasisTables,
    normalization: Normalization = Normalization.GENERAL,
) -> JetMap:
    n, B = arr.shape
    if n != tables.dim or B != tables.size:
        raise JetShapeError(f"array shape {arr.shape} does not match tables")
    comps = []
    for i in range(n):
        coeffs = {tables.alphas[k]: complex(arr[i, k]) for k in range(B) if arr[i, k] != 0}
        comps.append(MultiJet(tables.dim, tables.degree, coeffs))
    return JetMap(tuple(comps), normalization)


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


def _products(a: np.ndarray, b: np.ndarray, t: BasisTables) -> np.ndarray:
    """Truncated products over the last axis, broadcast over leading axes."""
    # every k has the pair (0, k), so no reduceat group is empty
    return np.add.reduceat(a[..., t.mul_i] * b[..., t.mul_j], t.mul_start, axis=-1)


def mul_arrays(a: np.ndarray, b: np.ndarray, tables: BasisTables) -> np.ndarray:
    """Truncated jet products a*b on the last axis; leading axes broadcast."""
    return _products(a, b, tables)


def _monomials(inner: np.ndarray, t: BasisTables) -> np.ndarray:
    """(B, B) matrix with row k = inner**alpha_k, one degree layer per product."""
    M = np.zeros((t.size, t.size), dtype=np.complex128)
    M[0, 0] = 1.0
    for idx in t.layers[1:]:
        M[idx] = _products(M[t.parent[idx]], inner[t.parent_var[idx]], t)
    return M


def compose_arrays(outer: np.ndarray, inner: np.ndarray, tables: BasisTables) -> np.ndarray:
    """Truncated jet of outer o inner, both (n, B) arrays."""
    return outer @ _monomials(inner, tables)


def rk4_jet_arrays(
    gen: np.ndarray, state: np.ndarray, hs: np.ndarray, tables: BasisTables
) -> np.ndarray:
    """Advance the jet ODE state' = gen o state through the given steps."""
    y = state.copy()
    for h in np.asarray(hs, dtype=np.float64):
        k1 = gen @ _monomials(y, tables)
        k2 = gen @ _monomials(y + (0.5 * h) * k1, tables)
        k3 = gen @ _monomials(y + (0.5 * h) * k2, tables)
        k4 = gen @ _monomials(y + h * k3, tables)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y

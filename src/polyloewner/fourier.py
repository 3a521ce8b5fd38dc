"""Spectral sampling: Taylor coefficients from samples on a torus.

For a map holomorphic on the closed polydisc of radius r < 1, sampling on
the torus |z_j| = r at N equispaced angles per axis and transforming
along each axis recovers every Taylor coefficient of total degree d.
Only the frequencies 0..D are read at degree D, so the transform is a
truncated DFT: one cached (D+1, N) matrix exp(-2 pi i ((k s) mod N)/N)/N
applied along each axis, on torus points filled from one cached ring of
N exponentials.  ``torus_array`` returns the coefficients as an (n, B)
array on the ``BasisTables`` basis, and ``torus_error`` compares them
with a jet array: the catalog and the ``Generator`` constructor check
every evaluator against its jet this way.

The mesh is evaluated in slabs of at most ``_TORUS_SLAB`` = 2**15
points: each slab holds every first index and a run of the trailing
indices (s_2..s_dim), so the first pass transforms it on its own and
writes its columns of the result, and only one slab of points and
values is held at a time.  Every mesh of dim <= 3 at degree <= 12 is one
slab and is transformed as a whole; a dim-4 mesh at 32 samples is 32
slabs.  Smaller products can round differently, by at most 1e-15 before
the r**-d scaling.

A coefficient of degree d carries two errors:

- aliasing: frequency k + N folds onto k, so the error is of order r**N
  times the size of the coefficients of degree about d + N;
- roundoff: the samples carry an error near eps = 2.2e-16 times their
  size, and dividing by r**d multiplies it by r**-d.

A small r keeps aliasing down but lets roundoff grow with the degree, so
the radius and the samples follow the degree (``torus_grid``):

    degree    radius  samples
    0..12     0.4     32
    13..16    0.6     64
    17..43    0.8     160

Over every catalog entry at (2, 2..43) and (3, 2..16), (dim, degree),
the largest coefficient error under this rule is 1.4e-11, at (2, 43); it
is 1.0e-11 at (2, 12) and (3, 12), 6.8e-13 at (2, 16) and (3, 16) and
8.4e-14 at (2, 24), against the catalog tolerance 1e-10.  Kept at
(0.4, 32), the error would reach 1.1e-10 at (3, 16) and 4.8e-10 at
(2, 17).  Degrees above 43 (a basis of at most ``MAX_BASIS_SIZE``
monomials reaches them only in dim 1) are refused, and so is a mesh of
more than ``MAX_TORUS_POINTS`` = 2**20 points (dim 4 at 32 samples; no
shape of dim 5 or more), before any point is evaluated.  The full
``np.fft.fftn`` extraction stays in the tests as the oracle of this
route; the truncated DFT agrees with it to 2e-12 on the catalog.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .jets import DomainError
from .kernels import BasisTables

__all__ = [
    "torus_grid",
    "torus_array",
    "torus_error",
]

# (largest degree, radius, samples per axis) of the torus check
TORUS_GRIDS = ((12, 0.4, 32), (16, 0.6, 64), (43, 0.8, 160))

# the largest mesh sampled: dim 4 at 32 samples
MAX_TORUS_POINTS = 2**20
# the most mesh points evaluated at once: every mesh of dim <= 3 at degree <= 12 fits
_TORUS_SLAB = 2**15


def torus_grid(degree: int) -> tuple[float, int]:
    """The (radius, samples per axis) that resolve coefficients up to ``degree``."""
    for top, radius, samples in TORUS_GRIDS:
        if degree <= top:
            return radius, samples
    raise DomainError(
        f"the torus check resolves degrees up to {TORUS_GRIDS[-1][0]}, got {degree}"
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _ring(radius: float, samples: int) -> np.ndarray:
    return _read_only(radius * np.exp(2j * np.pi * np.arange(samples) / samples))


def _torus_points(dim: int, radius: float, samples: int, cols: slice) -> np.ndarray:
    """Points of the torus radius*T^dim: every first index, the trailing ones in ``cols``.

    The trailing indices (s_2..s_dim) are flattened, s_2 slowest, and the
    points come out (samples * m, dim) with the first index slowest, so
    ``slice(None)`` gives the whole mesh in C order.  Only the ring is
    cached: filling the mesh from it costs about 0.2 ms at (3, 32), while
    a cached dim-3 mesh (1.5 MB) would stay resident through the
    membership scans that set a run's peak memory.
    """
    ring = _ring(radius, samples)
    trailing = np.arange(samples ** (dim - 1))[cols]
    pts = np.empty((samples, len(trailing), dim), dtype=np.complex128)
    pts[..., 0] = ring[:, None]
    for j in range(1, dim):
        pts[..., j] = ring[trailing // samples ** (dim - 1 - j) % samples]
    return pts.reshape(-1, dim)


@lru_cache(maxsize=None)
def _dft_matrix(degree: int, samples: int) -> np.ndarray:
    """(degree+1, samples) rows exp(-2 pi i ((k s) mod N)/N)/N, N = samples."""
    ks = np.outer(np.arange(degree + 1), np.arange(samples)) % samples
    return _read_only(np.exp(-2j * np.pi * ks / samples) / samples)


def torus_array(evaluator: Callable[[np.ndarray], np.ndarray], tables: BasisTables) -> np.ndarray:
    """(dim, B) Taylor coefficients of ``evaluator`` on the ``tables`` basis.

    ``evaluator`` maps an array of points (m, dim) to values (m, dim); the
    torus is ``torus_grid(degree)``, evaluated one slab at a time.
    """
    dim, degree = tables.dim, tables.degree
    radius, samples = torus_grid(degree)
    if samples**dim > MAX_TORUS_POINTS:
        raise DomainError(
            f"a torus of {samples}^{dim} points is over the {MAX_TORUS_POINTS}-point limit"
        )
    rows = _dft_matrix(degree, samples)
    # the first pass transforms each slab of trailing indices on its own
    trailing = samples ** (dim - 1)
    width = max(1, _TORUS_SLAB // samples)
    hat = None
    for start in range(0, trailing, width):
        stop = min(start + width, trailing)
        pts = _torus_points(dim, radius, samples, slice(start, stop))
        vals = np.asarray(evaluator(pts), dtype=np.complex128)
        if hat is None:  # so a one-slab mesh never holds hat and the evaluator temporaries at once
            hat = np.empty((degree + 1, trailing * dim), dtype=np.complex128)
        np.matmul(rows, vals.reshape(samples, -1), out=hat[:, start * dim : stop * dim])
    # after pass j, hat has axes (k_1..k_j, s_j+1..s_dim, component): each
    # pass multiplies the DFT rows into contiguous (samples, rest) blocks
    hat = hat.reshape((degree + 1,) + (samples,) * (dim - 1) + (dim,))
    for axis in range(1, dim):
        lead, rest = hat.shape[:axis], hat.shape[axis + 1 :]
        blocks = hat.reshape((-1, samples, math.prod(rest)))
        hat = (rows @ blocks).reshape(lead + (degree + 1,) + rest)
    coeffs = hat[tuple(tables.alpha_matrix.T)].T
    scale = np.array([radius**d for d in range(degree + 1)])
    return coeffs / scale[tables.degrees]


def torus_error(
    evaluator: Callable[[np.ndarray], np.ndarray], arr: np.ndarray, tables: BasisTables
) -> float:
    """Largest coefficient difference between ``evaluator`` on the torus and ``arr``."""
    return float(np.max(np.abs(torus_array(evaluator, tables) - arr)))

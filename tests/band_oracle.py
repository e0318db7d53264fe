"""The full-band solve of one Berry level, as the tests' oracle.

berry._solve_level reads psi_0 and the generator oracle's eigenvector from
a leading block of the level's sector (linalg.leading_pair).  The helpers
below read them from the whole (n_max + 1)-row band instead: the twisted
vector of the full band at the merged value, and np.linalg.eigh of the
full band, each gated on its band product.  The tests compare the block
path with them.
"""

import numpy as np

from jcrabi.berry import TWO_PI
from jcrabi.linalg import (
    _scaled,
    _twisted_tail,
    band_product,
    band_scale,
    merged_levels,
    residual_gate,
    tridiagonal,
)
from jcrabi.models import ModelKind, parity_chains, parity_sectors


def sector_vector(diag, off, value) -> np.ndarray:
    """The unit twisted vector of T - value I over every row of T, the
    symmetric tridiagonal matrix with bands ``diag`` (m,) and ``off``
    (m - 1,), on the bands scaled as merged_levels scales them."""
    diag, off, _, power = _scaled(np.asarray(diag, dtype=float)[None, None],
                                  np.asarray(off, dtype=float)[None, None])
    x = _twisted_tail(diag[0], off[0], np.ldexp([[value]], -power))[3][:, 0, 0]
    return x / np.linalg.norm(x)


def full_band_level(kind, p, level, cfg):
    """(psi_0, E, eigen residual, generator) of one level,
    from the full band of its sector: the twisted vector and np.linalg.eigh
    of every row, each gated on its band product.  E and its sector come
    from the same merged_levels solve as berry._solve_level."""
    diag, off = parity_sectors(ModelKind(kind), p, cfg)
    solved = merged_levels(diag[None], off[None], min(level + 2, cfg.dim_joint),
                           lambda _, sector: f"sector {sector}")
    sector, i = solved.sector[0, level], solved.index[0, level]
    energy = solved.levels[0, level]
    d, o = diag[sector], off[sector]
    x = sector_vector(d, o, energy)
    residual = residual_gate(band_product(d, o, x), energy, x,
                             float(np.max(band_scale(diag, off))), "at phi node 0")
    psi0 = np.zeros(cfg.dim_joint)
    psi0[parity_chains(cfg)[sector]] = x
    values, vectors = np.linalg.eigh(tridiagonal(d, o))
    residual_gate(band_product(d, o, vectors), values, vectors, float(band_scale(d, o)),
                  "in the full band")
    generator = TWO_PI * float(np.dot(np.arange(cfg.dim_field), vectors[:, i] ** 2))
    return psi0, energy, residual, generator

"""Block-Gibbs sweep kernel for the fantasy-particle sampler.

The sweep consumes a pre-generated flat array of uniforms, so a chain is a
pure function of the parameters, its start state and that array.  Per sweep
and particle the consumption order is: one uniform per hidden unit, layer by
layer bottom-up; one uniform for the class label; one per visible unit.
uniforms_per_sweep() gives the stride.
"""

import numpy as np

from . import dhbm
from .numerics import one_hot

# There is no compiled kernel; the benchmark records this flag in its
# environment line (perfbench/run.py).
NUMBA_ENABLED = False


def uniforms_per_sweep(params, n_particles):
    dims = params.hidden_dims
    return n_particles * (sum(dims) + 1 + params.n_visible)


def gibbs_sweeps(params, x, hs, y, uniforms, n_sweeps, counts=None):
    """Advance the particle block (x, hs, y) by n_sweeps full Gibbs sweeps.

    Mutates x, hs and y in place.  One sweep samples h^1..h^L, then y, then x,
    each from its exact conditional under the current parameters: dhbm's
    cond_h, cond_y and cond_x, the formulas the enumeration oracle checks.
    When `counts` (a 2^D x C array) is given, each sweep increments the
    occupancy of every particle's (x, y) cell.
    """
    M = x.shape[0]
    L = params.n_layers
    C = params.n_classes
    D = params.n_visible
    off = 0
    for _ in range(n_sweeps):
        ey = one_hot(y, C)
        for l in range(L):
            H = hs[l].shape[1]
            below = x if l == 0 else hs[l - 1]
            above = hs[l + 1] if l + 1 < L else None
            u = uniforms[off:off + M * H].reshape(M, H)
            hs[l][...] = u < dhbm.cond_h(params, l, ey, below, above)
            off += M * H
        cdf = np.cumsum(dhbm.cond_y(params, hs), axis=1)
        u = uniforms[off:off + M]
        y[...] = np.minimum((cdf <= u[:, None]).sum(axis=1), C - 1)
        off += M
        u = uniforms[off:off + M * D].reshape(M, D)
        x[...] = u < dhbm.cond_x(params, hs[0])
        off += M * D
        if counts is not None:
            ix = (x.astype(np.int64) @ (1 << np.arange(D))).astype(np.int64)
            np.add.at(counts, (ix, y), 1.0)
    return x, hs, y

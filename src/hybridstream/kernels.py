"""Block-Gibbs sweep kernel for the fantasy-particle sampler.

The sweep consumes a pre-generated flat array of uniforms, so a chain is a
pure function of the parameters, its start state and that array.  Per sweep
and particle the consumption order is: one uniform per hidden unit, layer by
layer bottom-up; one uniform for the class label; one per visible unit.
uniforms_per_sweep() gives the stride.
"""

import numpy as np

from .numerics import sigmoid, softmax

# There is no compiled kernel; the benchmark records this flag in its
# environment line (perfbench/run.py).
NUMBA_ENABLED = False


def uniforms_per_sweep(params, n_particles):
    dims = params.hidden_dims
    return n_particles * (sum(dims) + 1 + params.n_visible)


def gibbs_sweeps(params, x, hs, y, uniforms, n_sweeps, counts=None):
    """Advance the particle block (x, hs, y) by n_sweeps full Gibbs sweeps.

    Mutates x, hs and y in place.  One sweep samples h^1..h^L, then y, then x,
    each from its exact conditional under the current parameters.  When
    `counts` (a 2^D x C array) is given, each sweep increments the occupancy
    of every particle's (x, y) cell.
    """
    M = x.shape[0]
    L = params.n_layers
    C = params.n_classes
    off = 0
    for _ in range(n_sweeps):
        for l in range(L):
            lp = params.layers[l]
            H = lp.W.shape[0]
            below = x if l == 0 else hs[l - 1]
            pre = below @ lp.W.T
            np.add(pre, lp.U.T[y], out=pre)
            np.add(pre, lp.b_hidden, out=pre)
            if l + 1 < L:
                np.add(pre, hs[l + 1] @ params.layers[l + 1].W, out=pre)
            u = uniforms[off:off + M * H].reshape(M, H)
            hs[l][...] = u < sigmoid(pre, out=pre)
            off += M * H
        logits = hs[0] @ params.layers[0].U + params.b_class
        for l in range(1, L):
            logits += hs[l] @ params.layers[l].U
        cdf = np.cumsum(softmax(logits), axis=1)
        u = uniforms[off:off + M]
        y[...] = np.minimum((cdf <= u[:, None]).sum(axis=1), C - 1)
        off += M
        D = params.n_visible
        pre = hs[0] @ params.layers[0].W
        np.add(pre, params.layers[0].b_visible, out=pre)
        u = uniforms[off:off + M * D].reshape(M, D)
        x[...] = u < sigmoid(pre, out=pre)
        off += M * D
        if counts is not None:
            ix = (x.astype(np.int64) @ (1 << np.arange(D))).astype(np.int64)
            np.add.at(counts, (ix, y), 1.0)
    return x, hs, y

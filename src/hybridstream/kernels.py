"""Block-Gibbs sweep kernel for the fantasy-particle sampler.

Each sweep draws its uniforms from the chain's generator, one block per
conditional, in this order: for each hidden layer bottom-up an (M, H_l)
block, then an (M, 1) block for the class labels, then an (M, D) block for
the visible units.  PCG64's random(a + b) equals random(a) followed by
random(b), so k sweeps of one call consume the same stream as k calls of
one sweep.
"""

import numpy as np

from . import dhbm
from .numerics import one_hot

# There is no compiled kernel; the benchmark records this flag in its
# environment line (perfbench/run.py).
NUMBA_ENABLED = False


def gibbs_sweeps(params, x, hs, y, rng, n_sweeps):
    """Advance the particle block (x, hs, y) by n_sweeps full Gibbs sweeps.

    Mutates x, hs and y in place; y holds the one-hot rows of the particles'
    labels.  One sweep samples h^1..h^L, then y, then x, each from its exact
    conditional under the current parameters: dhbm's cond_h (given the
    class_drive of the rows y, taken once per sweep), cond_y and cond_x, the
    formulas the enumeration oracle checks.
    """
    M = x.shape[0]
    L = params.n_layers
    C = params.n_classes
    for _ in range(n_sweeps):
        drive = dhbm.class_drive(params, y)
        for l in range(L):
            below = x if l == 0 else hs[l - 1]
            above = hs[l + 1] if l + 1 < L else None
            p = dhbm.cond_h(params, l, drive, below, above)
            hs[l][...] = rng.random(p.shape) < p
        cdf = np.add.accumulate(dhbm.cond_y(params, hs), axis=1)
        y[...] = one_hot(np.minimum(
            np.add.reduce(cdf <= rng.random((M, 1)), axis=1), C - 1), C)
        p = dhbm.cond_x(params, hs[0])
        x[...] = rng.random(p.shape) < p
    return x, hs, y

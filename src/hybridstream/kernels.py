"""Block-Gibbs sweep kernel for the fantasy-particle sampler.

Each sweep draws its uniforms from the chain's generator in one call and
cuts them into one block per conditional, in this order: for each hidden
layer bottom-up an (M, H_l) block, then an (M, 1) block for the class
labels, then an (M, D) block for the visible units.  PCG64's random(a + b)
equals random(a) followed by random(b), so the one call gives each block
the uniforms of a call of its own, and k sweeps of one call consume the
same stream as k calls of one sweep.
"""

import numpy as np

from . import dhbm
from .numerics import one_hot, split_views

# There is no compiled kernel; the benchmark records this flag in its
# environment line (perfbench/run.py).
NUMBA_ENABLED = False


def gibbs_sweeps(params, x, hs, y, rng, n_sweeps):
    """Advance the particle block (x, hs, y) by n_sweeps full Gibbs sweeps.

    Mutates x, hs and y in place; y holds the one-hot rows of the particles'
    labels.  One sweep samples h^1..h^L, then y, then x, each from its exact
    conditional under the current parameters: dhbm's cond_h (given the
    class_drive of the rows y, taken once per sweep), cond_y and cond_x, the
    formulas the enumeration oracle checks.  A unit is on where its uniform
    lies below its conditional; a label is the number of its class
    cumulative sums at or below its uniform, the last sum left out, so a
    cumulative sum that rounds below 1 cannot give a class past the last.
    A state is the bool compare assigned into it: ``np.less(u, p, out=h)``
    into the float64 state took 1.55 against 0.76 us at 10x24 (numpy 2.4.6),
    as the ufunc casts its bool result through a buffer.
    """
    M = x.shape[0]
    L = params.n_layers
    C = params.n_classes
    shapes = [h.shape for h in hs] + [(M, 1), x.shape]
    sizes = [rows * cols for rows, cols in shapes]
    total = sum(sizes)
    for _ in range(n_sweeps):
        *u_hs, u_y, u_x = split_views(rng.random(total), shapes, sizes)
        drive = dhbm.class_drive(params, y)
        for l in range(L):
            below = x if l == 0 else hs[l - 1]
            above = hs[l + 1] if l + 1 < L else None
            hs[l][...] = u_hs[l] < dhbm.cond_h(params, l, drive, below, above)
        cdf = np.add.accumulate(dhbm.cond_y(params, hs), axis=1)
        y[...] = one_hot(np.add.reduce(cdf[:, :-1] <= u_y, axis=1), C)
        x[...] = u_x < dhbm.cond_x(params, hs[0])
    return x, hs, y

"""Weight-doubled feed-forward recognition network.

Produces the factorial posterior guess used to initialize mean-field
inference and is trained by cross-entropy toward the mean-field statistics
(the KL divergence up to a constant that does not depend on the network).
"""

import numpy as np

from .numerics import (NEG_ONE, NEG_TWO, TWO, DenseParams, add_product,
                       cross_entropy, sigmoid_from_negated,
                       sigmoid_prime_from_output)


def init_from_model(model):
    """Copy W^l (and hidden biases) out of the model; independent afterwards."""
    rec = DenseParams.from_dims([model.n_visible] + model.hidden_dims)
    for W, b, lp in zip(rec.Ws, rec.bs, model.layers):
        W[...] = lp.W
        b[...] = lp.b_hidden
    return rec


def recognize(rec, x):
    """Feed-forward pass over the 2-D float64 row batch `x`; returns the list
    of per-layer activation matrices.  Weights are doubled at every layer
    except the top one."""
    out = []
    below = x
    top = len(rec.Ws) - 1
    for l, (W, b) in enumerate(zip(rec.Ws, rec.bs)):
        # -(2 * (below W') + b), evaluated in that order in one array: the
        # factor -2 (or -1 at the top) is exact, and fl(-2p - b) =
        # -fl(2p + b), the negated input of the sigmoid's four passes
        pre = below.dot(W.T)
        np.multiply(pre, NEG_TWO if l < top else NEG_ONE, out=pre)
        np.subtract(pre, b, out=pre)
        below = sigmoid_from_negated(pre, out=pre)
        out.append(below)
    return out


def kl_loss(v_list, mu_list):
    """Cross-entropy of the factorial posterior against the mean-field target.

    Summed over every latent unit of every layer, averaged over the batch.
    Equals KL(Q_MF || Q_rec) minus the (constant in the network) entropy of
    the target.
    """
    if len(v_list) != len(mu_list):
        raise ValueError("layer count mismatch")
    return sum(cross_entropy(mu, v) for mu, v in zip(mu_list, v_list))


def rec_gradients(rec, x, mu_list, w, v_list, *, out):
    """Descent gradients of kl_loss w.r.t. every weight W^l and bias, added
    into `out`.

    The targets mu are constants.  The delta at each layer is (v - mu) plus
    the contribution backpropagated from the layer above; weight gradients
    carry the doubling factor of their own layer.  Each row's loss is
    weighted by `w` (one weight per row; 1/n everywhere is kl_loss's batch
    average), so weights of -lr with `rec` itself as `out` take a descent
    step.  Every delta is computed before the first add.  `x` is a 2-D
    float64 row batch and `v_list` is ``recognize(rec, x)``.
    """
    L = len(rec.Ws)
    inputs = [x] + v_list[:-1]
    deltas = [None] * L
    deltas[L - 1] = v_list[L - 1] - mu_list[L - 1]
    # the doubling factor 2 commutes with rounding, so it goes where the
    # array is small: on the back-propagated product (not a copy of W) and
    # on the row weights (not the weight gradient); the top layer has none
    for l in range(L - 2, -1, -1):
        back = deltas[l + 1].dot(rec.Ws[l + 1])
        if l + 1 < L - 1:
            np.multiply(back, TWO, out=back)
        deltas[l] = (v_list[l] - mu_list[l]) \
            + back * sigmoid_prime_from_output(v_list[l])
    w2 = np.multiply(w, TWO)[:, None]
    dws = [d * w2 for d in deltas[:-1]] + [deltas[-1] * w[:, None]]
    for W, b, dw, delta, below in zip(out.Ws, out.bs, dws, deltas, inputs):
        add_product(W, dw.T, below)
        add_product(b, w, delta)
    return out

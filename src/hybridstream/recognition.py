"""Weight-doubled feed-forward recognition network.

Produces the factorial posterior guess used to initialize mean-field
inference and is trained by cross-entropy toward the mean-field statistics
(the KL divergence up to a constant that does not depend on the network).
"""

import numpy as np

from .numerics import DenseParams, sigmoid, sigmoid_prime_from_output

EPS = 1e-7


def init_from_model(model):
    """Copy W^l (and hidden biases) out of the model; independent afterwards."""
    rec = DenseParams.from_dims([model.n_visible] + model.hidden_dims)
    for W, b, lp in zip(rec.Ws, rec.bs, model.layers):
        W[...] = lp.W
        b[...] = lp.b_hidden
    return rec


def _doubling(l, n_layers):
    # weights are doubled at every layer except the top one
    return 2.0 if l < n_layers - 1 else 1.0


def recognize(rec, x):
    """Feed-forward pass; returns the list of per-layer activation matrices."""
    out = []
    below = np.asarray(x, dtype=np.float64)
    L = len(rec.Ws)
    for l, (W, b) in enumerate(zip(rec.Ws, rec.bs)):
        # 2 * (below W') + b, evaluated in that order in one array
        pre = below @ W.T
        np.multiply(pre, _doubling(l, L), out=pre)
        np.add(pre, b, out=pre)
        below = sigmoid(pre, out=pre)
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
    total = 0.0
    n = None
    for v, mu in zip(v_list, mu_list):
        if v.shape != mu.shape:
            raise ValueError(f"shape mismatch {v.shape} vs {mu.shape}")
        n = v.shape[0] if v.ndim == 2 else 1
        vc = np.clip(v, EPS, 1.0 - EPS)
        total += float(np.sum(-mu * np.log(vc) - (1.0 - mu) * np.log(1.0 - vc)))
    return total / n


def rec_gradients(rec, x, mu_list, w, v_list=None, out=None):
    """Descent gradients of kl_loss w.r.t. every weight W^l and bias.

    The targets mu are constants.  The delta at each layer is (v - mu) plus
    the contribution backpropagated from the layer above; weight gradients
    carry the doubling factor of their own layer.  Each row's loss is
    weighted by `w` (one weight per row; 1/n everywhere is kl_loss's batch
    average).  `v_list` is ``recognize(rec, x)`` when the caller already
    holds it.  The gradients are written into `out` (every entry), a fresh
    container when None.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if v_list is None:
        v_list = recognize(rec, x)
    L = len(rec.Ws)
    inputs = [x] + v_list[:-1]
    deltas = [None] * L
    deltas[L - 1] = v_list[L - 1] - mu_list[L - 1]
    # the doubling factors are powers of two, which commute with rounding,
    # so they go where the array is small: on the back-propagated product
    # (not a copy of W) and on the row weights (not the weight gradient)
    for l in range(L - 2, -1, -1):
        back = deltas[l + 1] @ rec.Ws[l + 1]
        np.multiply(back, _doubling(l + 1, L), out=back)
        deltas[l] = (v_list[l] - mu_list[l]) \
            + back * sigmoid_prime_from_output(v_list[l])
    grads = rec.zeros_like() if out is None else out
    for l in range(L):
        dw = deltas[l] * (w * _doubling(l, L))[:, None]
        np.matmul(dw.T, inputs[l], out=grads.Ws[l])
        np.matmul(w, deltas[l], out=grads.bs[l])
    return grads

"""Weight-doubled feed-forward recognition network.

Produces the factorial posterior guess used to initialize mean-field
inference and is trained by cross-entropy toward the mean-field statistics
(the KL divergence up to a constant that does not depend on the network).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ViewRecord, flat_views, sigmoid, sigmoid_prime_from_output

EPS = 1e-7


@dataclass
class RecognitionLayer(ViewRecord):
    """One layer's views of its RecognitionParams vector (see
    dhbm.LayerParams)."""
    R: np.ndarray
    b: np.ndarray


@dataclass
class RecognitionParams(ViewRecord):
    """Every weight in one float64 vector `data`, laid out per layer as R, b;
    `layers` holds views of it.  Gradients share the type."""
    data: np.ndarray
    layers: tuple

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def n_visible(self):
        return self.layers[0].R.shape[1]

    @property
    def hidden_dims(self):
        return [layer.R.shape[0] for layer in self.layers]

    @classmethod
    def from_dims(cls, n_visible, hidden_dims, data=None):
        """Views over `data`, or over a zero vector when it is None."""
        shapes = []
        below = n_visible
        for h in hidden_dims:
            shapes += [(h, below), (h,)]
            below = h
        data, views = flat_views(shapes, data)
        return cls(data, tuple(RecognitionLayer(R, b)
                               for R, b in zip(views[::2], views[1::2])))

    def copy(self):
        return self.from_dims(self.n_visible, self.hidden_dims, self.data.copy())

    def zeros_like(self):
        return self.from_dims(self.n_visible, self.hidden_dims)


def init_from_model(model):
    """Copy W^l (and hidden biases) out of the model; independent afterwards."""
    rec = RecognitionParams.from_dims(model.n_visible, model.hidden_dims)
    for layer, lp in zip(rec.layers, model.layers):
        layer.R[...] = lp.W
        layer.b[...] = lp.b_hidden
    return rec


def _doubling(l, n_layers):
    # weights are doubled at every layer except the top one
    return 2.0 if l < n_layers - 1 else 1.0


def recognize(rec, x):
    """Feed-forward pass; returns the list of per-layer activation matrices."""
    out = []
    below = np.asarray(x, dtype=np.float64)
    for l, layer in enumerate(rec.layers):
        # 2 * (below R') + b, evaluated in that order in one array
        pre = below @ layer.R.T
        np.multiply(pre, _doubling(l, rec.n_layers), out=pre)
        np.add(pre, layer.b, out=pre)
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
    """Descent gradients of kl_loss w.r.t. every R^l and bias.

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
    L = rec.n_layers
    inputs = [x] + v_list[:-1]
    deltas = [None] * L
    deltas[L - 1] = v_list[L - 1] - mu_list[L - 1]
    # the doubling factors are powers of two, which commute with rounding,
    # so they go where the array is small: on the back-propagated product
    # (not a copy of R) and on the row weights (not the weight gradient)
    for l in range(L - 2, -1, -1):
        back = deltas[l + 1] @ rec.layers[l + 1].R
        np.multiply(back, _doubling(l + 1, L), out=back)
        deltas[l] = (v_list[l] - mu_list[l]) \
            + back * sigmoid_prime_from_output(v_list[l])
    grads = rec.zeros_like() if out is None else out
    for l, g in enumerate(grads.layers):
        dw = deltas[l] * (w * _doubling(l, L))[:, None]
        np.matmul(dw.T, inputs[l], out=g.R)
        np.matmul(w, deltas[l], out=g.b)
    return grads

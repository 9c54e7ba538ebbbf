"""Deep hybrid denoising autoencoder: corruption, encode/decode with top-down
feedback and tied-weight reconstruction.

The DHDA shares the DHBM parameter set (dhbm.HybridParams): layer l encodes
with W_l (plus the transposed top-down matrix W_{l+1}) and decodes its own
input with W_l transposed, so decoder weights are the same storage as the
encoder's.
"""

from dataclasses import dataclass

import numpy as np

from .dhbm import cond_y
from .numerics import relu, sigmoid
from .recognition import recognize

EPS = 1e-7


def _activation(name):
    if name == "sigmoid":
        return sigmoid
    if name == "relu":
        return relu
    raise ValueError(f"unknown activation {name!r}")


def corruption_mask(rng, shape, p):
    """Keep-mask for masking corruption: entry zeroed with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"corruption probability must lie in [0, 1], got {p}")
    return (rng.random(shape) >= p).astype(np.float64)


def corrupt(rng, v, p):
    """Each entry independently zeroed with probability p, else preserved."""
    v = np.asarray(v, dtype=np.float64)
    return v * corruption_mask(rng, v.shape, p)


@dataclass
class DhdaState:
    """Activations of one forward pass over a batch.

    hidden holds the clean per-layer activations, hidden_hat the corrupted
    copies actually fed to the decoders, masks the keep-masks that produced
    them, recons[l] the reconstruction of layer l's clean input (recons[0]
    is the input reconstruction x-bar), and class_probs the shared predictor
    output.
    """
    input_hat: np.ndarray
    input_mask: np.ndarray
    hidden: list
    hidden_hat: list
    masks: list
    recons: list
    class_probs: np.ndarray


def encode_h(params, l, below_hat, above_hat=None, activation="sigmoid"):
    """phi(W_l v-hat + W_{l+1}' h-hat^{l+1} + b); top layer has no feedback."""
    phi = _activation(activation)
    lp = params.layers[l]
    pre = below_hat @ lp.W.T + lp.b_hidden
    if l + 1 < params.n_layers:
        if above_hat is None:
            raise ValueError(f"layer {l} requires the corrupted state of layer {l + 1}")
        pre = pre + above_hat @ params.layers[l + 1].W
    return phi(pre)


def decode(params, l, h_hat, activation="sigmoid"):
    """phi(W_l' h-hat + b_visible): tied weights, transpose of the encoder."""
    phi = _activation(activation)
    lp = params.layers[l]
    return phi(h_hat @ lp.W + lp.b_visible)


def recon_cross_entropy(x, z):
    """-sum x log z + (1-x) log(1-z), averaged over the batch."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {z.shape}")
    zc = np.clip(z, EPS, 1.0 - EPS)
    n = x.shape[0] if x.ndim == 2 else 1
    return float(np.sum(-x * np.log(zc) - (1.0 - x) * np.log(1.0 - zc))) / n


def dhda_forward(params, rec, x, rng, corruption_p=0.0, num_steps=1,
                 activation="sigmoid", init_hidden=None, corrupt_topdown=True):
    """Recognition-initialized forward pass with `num_steps` cycles.

    Each cycle corrupts the input and the hidden states afresh, re-encodes
    every layer bottom-up (the top-down term uses the previous cycle's
    corrupted state), then decodes each layer's input with tied weights.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden = [h.copy() for h in init_hidden] if init_hidden is not None \
        else [np.atleast_2d(h) for h in recognize(rec, x)]
    L = params.n_layers
    hidden_hat = hidden
    for _ in range(num_steps):
        input_mask = corruption_mask(rng, x.shape, corruption_p)
        x_hat = x * input_mask
        prev_hat = hidden_hat
        new_hidden = []
        masks = []
        hidden_hat = []
        for l in range(L):
            below = x_hat if l == 0 else hidden_hat[l - 1]
            above = None
            if l + 1 < L:
                above = prev_hat[l + 1] if corrupt_topdown else hidden[l + 1]
            h = encode_h(params, l, below, above, activation)
            m = corruption_mask(rng, h.shape, corruption_p)
            new_hidden.append(h)
            masks.append(m)
            hidden_hat.append(h * m)
        hidden = new_hidden
    recons = [decode(params, l, hidden_hat[l], activation) for l in range(L)]
    return DhdaState(x_hat, input_mask, hidden, hidden_hat, masks, recons,
                     cond_y(params, hidden))

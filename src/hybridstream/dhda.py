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
from .numerics import sigmoid, split_views

EPS = 1e-7


def corruption_mask(rng, shape, p):
    """Keep-mask for masking corruption: entry zeroed with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"corruption probability must lie in [0, 1], got {p}")
    return (rng.random(shape) >= p).astype(np.float64)


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
    hidden: list
    hidden_hat: list
    masks: list
    recons: list
    class_probs: np.ndarray


def encode_h(params, l, below_hat, above_hat=None):
    """sigma(W_l v-hat + W_{l+1}' h-hat^{l+1} + b); top layer has no feedback."""
    lp = params.layers[l]
    # the terms are summed left to right in one array
    pre = below_hat @ lp.W.T
    np.add(pre, lp.b_hidden, out=pre)
    if l + 1 < params.n_layers:
        if above_hat is None:
            raise ValueError(f"layer {l} requires the corrupted state of layer {l + 1}")
        np.add(pre, above_hat @ params.layers[l + 1].W, out=pre)
    return sigmoid(pre, out=pre)


def decode(params, l, h_hat):
    """sigma(W_l' h-hat + b_visible): tied weights, transpose of the encoder."""
    lp = params.layers[l]
    pre = h_hat @ lp.W
    np.add(pre, lp.b_visible, out=pre)
    return sigmoid(pre, out=pre)


def recon_cross_entropy(x, z):
    """-sum x log z + (1-x) log(1-z), averaged over the batch."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {z.shape}")
    zc = np.clip(z, EPS, 1.0 - EPS)
    n = x.shape[0] if x.ndim == 2 else 1
    return float(np.sum(-x * np.log(zc) - (1.0 - x) * np.log(1.0 - zc))) / n


def dhda_forward(params, x, hidden, rng, corruption_p, num_steps):
    """Forward pass with `num_steps` cycles from the start state `hidden`.

    `hidden` holds one activation matrix per layer, such as the recognition
    statistics; it is only read.  Each cycle corrupts the input and the
    hidden states afresh, re-encodes every layer bottom-up (the top-down
    term uses the previous cycle's corrupted state), then decodes each
    layer's input with tied weights.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    L = params.n_layers
    # every cycle's masks, input first and then layer by layer, cut from one
    # draw: the same uniforms, in the same order, as one draw per mask
    shapes = ([x.shape] + [(x.shape[0], lp.W.shape[0])
                           for lp in params.layers]) * num_steps
    draws = iter(split_views(corruption_mask(
        rng, sum(rows * cols for rows, cols in shapes), corruption_p), shapes))
    hidden_hat = hidden
    for _ in range(num_steps):
        x_hat = x * next(draws)
        prev_hat = hidden_hat
        hidden = []
        masks = []
        hidden_hat = []
        for l in range(L):
            below = x_hat if l == 0 else hidden_hat[l - 1]
            above = prev_hat[l + 1] if l + 1 < L else None
            h = encode_h(params, l, below, above)
            m = next(draws)
            hidden.append(h)
            masks.append(m)
            hidden_hat.append(h * m)
    recons = [decode(params, l, hidden_hat[l]) for l in range(L)]
    return DhdaState(x_hat, hidden, hidden_hat, masks, recons,
                     cond_y(params, hidden))

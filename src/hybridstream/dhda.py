"""Deep hybrid denoising autoencoder: corruption and the forward pass over
dhbm's conditionals.

The DHDA shares the DHBM's parameter set (dhbm.HybridParams) and equations:
layer l encodes with dhbm.cond_h, its class_drive the hidden biases alone
(no class term), and decodes its own input with dhbm.cond_x at layer l, W_l
transposed, so decoder weights are the same storage as the encoder's.  Only
the masking corruption is its own.
"""

from dataclasses import dataclass

import numpy as np

from . import dhbm
from .numerics import bernoulli_mask, split_views


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


def dhda_forward(params, x, hidden, rng, corruption_p, num_steps):
    """Forward pass over the 2-D float64 row batch `x` with `num_steps`
    cycles from the start state `hidden`.

    `hidden` holds one activation matrix per layer, such as the recognition
    statistics; it is only read.  `corruption_p` is a number or a 0-d
    array.  Each cycle corrupts the input and the hidden states afresh,
    re-encodes every layer bottom-up (the top-down term uses the previous
    cycle's corrupted state), then decodes each layer's input with tied
    weights.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    L = params.n_layers
    # every cycle's keep-masks, input first and then layer by layer, cut
    # from one draw; an entry is kept where its uniform is >= corruption_p
    shapes = ([x.shape] + [(x.shape[0], lp.W.shape[0])
                           for lp in params.layers]) * num_steps
    sizes = [rows * cols for rows, cols in shapes]
    keep = bernoulli_mask(rng, 1, sum(sizes), corruption_p, complement=True)
    draws = iter(split_views(keep[0], shapes, sizes))
    drive = dhbm.class_drive(params, None)
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
            h = dhbm.cond_h(params, l, drive, below, above)
            m = next(draws)
            hidden.append(h)
            masks.append(m)
            hidden_hat.append(h * m)
    recons = [dhbm.cond_x(params, hidden_hat[l], l) for l in range(L)]
    return DhdaState(x_hat, hidden, hidden_hat, masks, recons,
                     dhbm.cond_y(params, hidden))

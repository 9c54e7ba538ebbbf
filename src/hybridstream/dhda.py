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


def keep_shapes(params, n, num_steps):
    """The shapes of dhda_forward's keep-masks over n rows and `num_steps`
    cycles, cycle by cycle: the input's (n, D), then each layer's (n, H_l)."""
    return ([(n, params.n_visible)]
            + [(n, h) for h in params.hidden_dims]) * num_steps


def dhda_forward(params, x, hidden, keep):
    """Forward pass over the 2-D float64 row batch `x` from the start state
    `hidden`, one cycle per L + 1 keep-masks of `keep`.

    `hidden` holds one activation matrix per layer, such as the recognition
    statistics; it is only read.  `keep` holds every cycle's keep-masks in
    the order of keep_shapes, 1 where an entry survives the corruption; the
    caller draws them (with the corruption probability as the complement of
    a mask, see numerics.cut_masks), so that they can share one draw with
    the step's other masks.  Each cycle corrupts the input and the hidden
    states afresh, re-encodes every layer bottom-up (the top-down term uses
    the previous cycle's corrupted state), then decodes each layer's input
    with tied weights.
    """
    L = params.n_layers
    if not keep or len(keep) % (L + 1):
        raise ValueError(f"{len(keep)} keep-masks are not one or more "
                         f"cycles of {L + 1}")
    draws = iter(keep)
    drive = dhbm.class_drive(params, None)
    hidden_hat = hidden
    for _ in range(len(keep) // (L + 1)):
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

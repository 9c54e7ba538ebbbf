"""The three parameter-gradient estimators: mean-field contrastive divergence,
mean-field back-propagation, and the stochastic approximation procedure with
persistent fantasy particles.

Each estimator returns the sum over rows of its per-row gradient times that
row's weight, an ASCENT direction in a HybridParams of the model's layout.
The caller puts everything a step scales by (the learning rate included)
into the weights, so a step is one add of the returned vector.  The two
contrastive estimators stack their positive and negative phases as rows of
one weighted pass, the negative rows' weights negated; back-propagation
takes its ascent sign from negated row weights.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import bernoulli_mask, one_hot, sigmoid_prime_from_output


def _contrast(v_pos, hs_pos, y_pos, v_neg, hs_neg, y_neg, w_pos, w_neg, out):
    """Positive minus negative phase as one weighted pass: the phases'
    rows are stacked and the negative rows weighted by -w_neg, so per layer
    dW = sum_i w_i h_i v_i', dU = sum_i w_i h_i y_i' and the biases are
    weighted sums of h (and, at layer 0, of v) and of y.  Every entry of
    `out` is written."""
    w = np.concatenate([w_pos, -w_neg])
    ys = np.concatenate([y_pos, y_neg])
    below = np.concatenate([v_pos, v_neg])
    for l, g in enumerate(out.layers):
        h = np.concatenate([hs_pos[l], hs_neg[l]])
        hw = h * w[:, None]
        np.matmul(hw.T, below, out=g.W)
        np.matmul(hw.T, ys, out=g.U)
        np.add.reduce(hw, axis=0, out=g.b_hidden)
        if l == 0:
            np.matmul(w, below, out=g.b_visible)
        else:
            g.b_visible[...] = 0.0
        below = h
    np.matmul(w, ys, out=out.b_class)
    return out


def mf_cd_gradients(x, y_probs, y_hat, q_rec, mf_state, params, w, out=None):
    """Mean-field contrastive divergence.

    Positive phase from the recognition statistics (data clamped), negative
    phase from the mean-field posterior; per layer dW = <h+ v+'> - <h- v-'>
    and dU = <h+ e_y'> - <h- e_yhat'>, each a sum over rows weighted by
    `w` (one weight per row; 1/n everywhere is the batch average).
    Written into `out` (every entry), a fresh container when None.
    """
    out = params.zeros_like() if out is None else out
    return _contrast(np.atleast_2d(x), q_rec, y_probs, mf_state.input_recon,
                     mf_state.layer_means, y_hat, w, w, out)


def mf_bp_gradients(x, y_probs, q_rec, state, params, w, dropout_masks=None,
                    out=None):
    """Layer-local back-propagation for the DHDA.

    Differentiates, per layer, the tied encoder/decoder reconstruction loss
    (target: the data at layer 1, the recognition statistic below at upper
    layers) plus the shared softmax log-loss; mean-field statistics entering
    from other layers are constants.  Reconstruction corruption masks are
    part of the forward function and therefore of the gradient.  Drop-out
    masks, when given, are re-applied to the hidden error deltas.  Each
    row's loss is weighted by `w` (1/n everywhere is the batch average).

    Returns the ascent direction, the descent gradient negated through the
    row weights, written into `out` (every entry), a fresh container when
    None.
    """
    x = np.atleast_2d(x)
    wc = -w[:, None]
    L = params.n_layers
    out = params.zeros_like() if out is None else out
    # softmax + log-loss output delta (p - e_y), each row times -w: every
    # delta below, and so every gradient entry, comes out negated
    xi_out = (state.class_probs - y_probs) * wc
    for l in range(L):
        lp = params.layers[l]
        h = state.hidden[l]
        h_hat = state.hidden_hat[l]
        v_in = state.input_hat if l == 0 else state.hidden_hat[l - 1]
        v_target = x if l == 0 else q_rec[l - 1]
        z = state.recons[l]
        # cross-entropy through the output sigmoid collapses to (z - target)
        xi_recon = (z - v_target) * wc
        hid_prime = sigmoid_prime_from_output(h)
        xi_hid = (xi_recon @ lp.W.T) * state.masks[l] * hid_prime
        xi_hid_out = (xi_out @ lp.U.T) * hid_prime
        xi_hid_total = xi_hid + xi_hid_out
        if dropout_masks is not None:
            xi_hid_total = xi_hid_total * dropout_masks[l]
        g = out.layers[l]
        # a + b, evaluated in that order in the view
        np.matmul(xi_hid_total.T, v_in, out=g.W)
        np.add(g.W, h_hat.T @ xi_recon, out=g.W)
        np.matmul(h.T, xi_out, out=g.U)
        np.add.reduce(xi_hid_total, axis=0, out=g.b_hidden)
        np.add.reduce(xi_recon, axis=0, out=g.b_visible)
    np.add.reduce(xi_out, axis=0, out=out.b_class)
    return out


@dataclass
class FantasyParticles:
    """M persistent Gibbs-chain states with binary units and sampled labels."""
    x: np.ndarray
    hs: list
    y: np.ndarray

    @property
    def n_particles(self):
        return self.x.shape[0]

    @classmethod
    def initialize(cls, params, n_particles, rng):
        if n_particles < 1:
            raise ValueError("need at least one fantasy particle")
        x = bernoulli_mask(rng, n_particles, params.n_visible, 0.5)
        hs = [bernoulli_mask(rng, n_particles, h, 0.5) for h in params.hidden_dims]
        y = rng.integers(0, params.n_classes, size=n_particles).astype(np.int64)
        return cls(x, hs, y)

    def advance(self, params, rng, n_sweeps=1):
        """Advance every chain by full block-Gibbs sweeps (in place)."""
        kernels.gibbs_sweeps(params, self.x, self.hs, self.y, rng, n_sweeps)
        return self


def sap_gradients(x, y_probs, q_rec, particles, params, rng, w, out=None):
    """Stochastic approximation procedure (persistent contrastive divergence).

    Positive phase as in MF-CD, a sum over rows weighted by `w`; negative
    phase from the fantasy particles, each advanced one block-Gibbs sweep
    per call and weighted by w.sum() / M, so the M chains, with their own
    sampled labels, carry the total weight.  Written into `out` (every
    entry), a fresh container when None.
    """
    particles.advance(params, rng, n_sweeps=1)
    m = particles.n_particles
    out = params.zeros_like() if out is None else out
    return _contrast(np.atleast_2d(x), q_rec, y_probs, particles.x,
                     particles.hs, one_hot(particles.y, params.n_classes),
                     w, np.full(m, w.sum() / m), out)

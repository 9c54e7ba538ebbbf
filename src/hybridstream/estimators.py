"""The three parameter-gradient estimators: mean-field contrastive divergence,
mean-field back-propagation, and the stochastic approximation procedure with
persistent fantasy particles.

All estimators return an ASCENT direction as a HybridParams of the model's
layout: the trainer applies them with a single "+ learning rate" update rule
on the flat vectors, so the back-propagation estimator negates its descent
gradients internally.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import one_hot, sigmoid_prime_from_output


def _positive_phase(x, q_rec):
    """Per-layer (h+, v+): recognition statistics, with the data at the bottom."""
    return [(q_rec[l], x if l == 0 else q_rec[l - 1]) for l in range(len(q_rec))]


def mf_cd_gradients(x, y_probs, y_hat, q_rec, mf_state, params, w, out=None):
    """Mean-field contrastive divergence.

    Positive phase from the recognition statistics (data clamped), negative
    phase from the mean-field posterior; per layer dW = <h+ v+'> - <h- v-'>
    and dU = <h+ e_y'> - <h- e_yhat'>, each a sum over rows weighted by
    `w` (one weight per row; 1/n everywhere is the batch average).
    Written into `out` (every entry), a fresh container when None.
    """
    x = np.atleast_2d(x)
    wc = w[:, None]
    out = params.zeros_like() if out is None else out
    for l, (h_pos, v_pos) in enumerate(_positive_phase(x, q_rec)):
        h_neg = mf_state.layer_means[l]
        v_neg = mf_state.input_recon if l == 0 else mf_state.layer_means[l - 1]
        hw_pos = h_pos * wc
        hw_neg = h_neg * wc
        g = out.layers[l]
        # pos - neg, evaluated in that order in the view
        np.matmul(hw_pos.T, v_pos, out=g.W)
        np.subtract(g.W, hw_neg.T @ v_neg, out=g.W)
        np.matmul(hw_pos.T, y_probs, out=g.U)
        np.subtract(g.U, hw_neg.T @ y_hat, out=g.U)
        np.matmul(w, h_pos - h_neg, out=g.b_hidden)
        if l == 0:
            np.matmul(w, v_pos - v_neg, out=g.b_visible)
        else:
            g.b_visible[...] = 0.0
    np.matmul(w, y_probs - y_hat, out=out.b_class)
    return out


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

    Returns the negation of the descent gradient (ascent convention),
    written into `out` (every entry), a fresh container when None.
    """
    x = np.atleast_2d(x)
    wc = w[:, None]
    L = params.n_layers
    out = params.zeros_like() if out is None else out
    # softmax + log-loss output delta: (p - e_y), row-weighted
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
        # -(a + b), evaluated in that order in the view
        np.matmul(xi_hid_total.T, v_in, out=g.W)
        np.add(g.W, h_hat.T @ xi_recon, out=g.W)
        np.negative(g.W, out=g.W)
        np.matmul(h.T, xi_out, out=g.U)
        np.negative(g.U, out=g.U)
        np.add.reduce(xi_hid_total, axis=0, out=g.b_hidden)
        np.negative(g.b_hidden, out=g.b_hidden)
        np.add.reduce(xi_recon, axis=0, out=g.b_visible)
        np.negative(g.b_visible, out=g.b_visible)
    np.add.reduce(xi_out, axis=0, out=out.b_class)
    np.negative(out.b_class, out=out.b_class)
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
        x = (rng.random((n_particles, params.n_visible)) < 0.5).astype(np.float64)
        hs = [(rng.random((n_particles, h)) < 0.5).astype(np.float64)
              for h in params.hidden_dims]
        y = rng.integers(0, params.n_classes, size=n_particles).astype(np.int64)
        return cls(x, hs, y)

    def advance(self, params, rng, n_sweeps=1, counts=None):
        """Advance every chain by full block-Gibbs sweeps (in place)."""
        stride = kernels.uniforms_per_sweep(params, self.n_particles)
        uniforms = rng.random(stride * n_sweeps)
        kernels.gibbs_sweeps(params, self.x, self.hs, self.y, uniforms, n_sweeps,
                             counts=counts)
        return self


def sap_gradients(x, y_probs, q_rec, particles, params, rng, w, out=None):
    """Stochastic approximation procedure (persistent contrastive divergence).

    Positive phase as in MF-CD, a sum over rows weighted by `w`; negative
    phase from the fantasy particles, each advanced one block-Gibbs sweep
    per call, averaged over the M chains with their own sampled labels and
    weighted by the total weight w.sum().  Written into `out` (every
    entry), a fresh container when None.
    """
    x = np.atleast_2d(x)
    wc = w[:, None]
    particles.advance(params, rng, n_sweeps=1)
    neg_weight = w.sum() / particles.n_particles
    ey_neg = one_hot(particles.y, params.n_classes)
    out = params.zeros_like() if out is None else out

    def finish(view, neg):
        # the view holds pos: pos - neg * (w.sum() / m), evaluated in that order
        np.subtract(view, np.multiply(neg, neg_weight, out=neg), out=view)

    for l, (h_pos, v_pos) in enumerate(_positive_phase(x, q_rec)):
        h_neg = particles.hs[l]
        v_neg = particles.x if l == 0 else particles.hs[l - 1]
        hw_pos = h_pos * wc
        g = out.layers[l]
        finish(np.matmul(hw_pos.T, v_pos, out=g.W), h_neg.T @ v_neg)
        finish(np.matmul(hw_pos.T, y_probs, out=g.U), h_neg.T @ ey_neg)
        finish(np.matmul(w, h_pos, out=g.b_hidden), h_neg.sum(axis=0))
        if l == 0:
            finish(np.matmul(w, v_pos, out=g.b_visible), v_neg.sum(axis=0))
        else:
            g.b_visible[...] = 0.0
    finish(np.matmul(w, y_probs, out=out.b_class), ey_neg.sum(axis=0))
    return out

"""The three parameter-gradient estimators: mean-field contrastive divergence,
mean-field back-propagation, and the stochastic approximation procedure with
persistent fantasy particles.

Each estimator adds into `out`, a HybridParams of the model's layout, the
sum over rows of its per-row gradient times that row's weight, an ASCENT
direction.  The caller puts everything a step scales by (the learning rate
included) into the weights and passes the model itself as `out`, so the
step is taken inside the products, one band at a time
(numerics.add_product); a zero container reads the gradient alone.  Every
factor of every product is computed before the first add, so `out` may be
the parameters the estimator reads.  The two contrastive estimators stack
their positive and negative phases as rows of one weighted pass, the
negative rows' weights negated; back-propagation takes its ascent sign from
negated row weights.  Each takes 2-D float64 row batches.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import (add_product, bernoulli_mask, one_hot,
                       sigmoid_prime_from_output)


def _contrast(v_pos, hs_pos, y_pos, v_neg, hs_neg, y_neg, w_pos, w_neg, out):
    """Positive minus negative phase as one weighted pass, added into `out`:
    the phases' rows are stacked and the negative rows weighted by -w_neg,
    so per layer dW = sum_i w_i h_i v_i', dU = sum_i w_i h_i y_i' and the
    biases are weighted sums of h (and, at layer 0, of v) and of y.  The
    visible-side biases above layer 0 get nothing."""
    w = np.concatenate([w_pos, -w_neg])
    ys = np.concatenate([y_pos, y_neg])
    # units[0] is the visible layer, units[l + 1] hidden layer l
    units = [np.concatenate([v_pos, v_neg])] + [
        np.concatenate([hp, hn]) for hp, hn in zip(hs_pos, hs_neg)]
    hws = [h * w[:, None] for h in units[1:]]
    for l, (g, hw) in enumerate(zip(out.layers, hws)):
        add_product(g.W, hw.T, units[l])
        add_product(g.U, hw.T, ys)
        np.add(g.b_hidden, np.add.reduce(hw, axis=0), out=g.b_hidden)
        if l == 0:
            add_product(g.b_visible, w, units[0])
    add_product(out.b_class, w, ys)
    return out


def mf_cd_gradients(x, y_probs, q_rec, x_recon, means, y_hat, w, *, out):
    """Mean-field contrastive divergence.

    Positive phase: the data, the recognition statistics and the targets.
    Negative phase: the reconstruction x_recon of the data from the first
    mean-field layer, the mean-field layer means and class distribution.
    Per layer dW = <h+ v+'> - <h- v-'> and dU = <h+ e_y'> - <h- e_yhat'>,
    each a sum over rows weighted by `w` (1/n everywhere: the batch average).
    """
    return _contrast(x, q_rec, y_probs, x_recon, means, y_hat, w, w, out)


def mf_bp_gradients(x, y_probs, q_rec, state, params, w, dropout_masks=None,
                    *, out):
    """Layer-local back-propagation for the DHDA.

    Differentiates, per layer, the tied encoder/decoder reconstruction loss
    (target: the data at layer 1, the recognition statistic below at upper
    layers) plus the shared softmax log-loss; mean-field statistics entering
    from other layers are constants.  Reconstruction corruption masks are
    part of the forward function and therefore of the gradient.  Drop-out
    masks, when given, are re-applied to the hidden error deltas.  Each
    row's loss is weighted by `w` (1/n everywhere is the batch average).

    Adds the ascent direction, the descent gradient negated through the
    row weights.  Every layer's deltas are computed before any weight moves,
    and each weight gradient is added as W + (A + B), its two products
    summed first.
    """
    wc = -w[:, None]
    L = params.n_layers
    # softmax + log-loss output delta (p - e_y), each row times -w: every
    # delta below, and so every gradient entry, comes out negated
    xi_out = (state.class_probs - y_probs) * wc
    terms = []
    for l in range(L):
        lp = params.layers[l]
        h = state.hidden[l]
        v_target = x if l == 0 else q_rec[l - 1]
        # cross-entropy through the output sigmoid collapses to (z - target)
        xi_recon = (state.recons[l] - v_target) * wc
        hid_prime = sigmoid_prime_from_output(h)
        xi_hid = xi_recon.dot(lp.W.T) * state.masks[l] * hid_prime
        xi_hid_out = xi_out.dot(lp.U.T) * hid_prime
        xi_hid_total = xi_hid + xi_hid_out
        if dropout_masks is not None:
            xi_hid_total = xi_hid_total * dropout_masks[l]
        terms.append((h, xi_recon, xi_hid_total))
    for l, (h, xi_recon, xi_hid_total) in enumerate(terms):
        g = out.layers[l]
        v_in = state.input_hat if l == 0 else state.hidden_hat[l - 1]
        # two weight-sized products: np.dot, which like .dot clears its
        # result first, took this function 1300 against 1230 us at
        # 784-256-256-10 on 10 rows, and saved 3 of 105 us at
        # 24-24-24-24-24-10 on 20
        np.add(g.W, xi_hid_total.T @ v_in + state.hidden_hat[l].T @ xi_recon,
               out=g.W)
        add_product(g.U, h.T, xi_out)
        np.add(g.b_hidden, np.add.reduce(xi_hid_total, axis=0), out=g.b_hidden)
        np.add(g.b_visible, np.add.reduce(xi_recon, axis=0), out=g.b_visible)
    np.add(out.b_class, np.add.reduce(xi_out, axis=0), out=out.b_class)
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


def sap_gradients(x, y_probs, q_rec, particles, params, rng, w, *, out):
    """Stochastic approximation procedure (persistent contrastive divergence).

    Positive phase as in MF-CD, a sum over rows weighted by `w`; negative
    phase from the fantasy particles, each advanced one block-Gibbs sweep
    per call and weighted by w.sum() / M, so the M chains, with their own
    sampled labels, carry the total weight.
    """
    particles.advance(params, rng, n_sweeps=1)
    m = particles.n_particles
    w_neg = np.empty(m)
    w_neg.fill(np.add.reduce(w) / m)
    return _contrast(x, q_rec, y_probs, particles.x,
                     particles.hs, one_hot(particles.y, params.n_classes),
                     w, w_neg, out)

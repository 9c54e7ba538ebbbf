"""Comparison model: drop-out rectifier feed-forward network trained with
supervised back-propagation plus a weighted pseudo-label gradient on
unlabeled samples (entropy-regularization self-training), one weighted
pass per batch: MlpPseudoLabelModel, and the functions of its math.
"""

import numpy as np

from .numerics import (ZERO, DenseParams, add_product, as_rows, cut_masks,
                       one_hot, row_targets, softmax)
from .trainer import Learner

EPS = 1e-12


def init_mlp(n_visible, hidden_dims, n_classes, rng, weight_std=0.01):
    """The MLP's start: Gaussian weights (mean 0, std `weight_std`), zero
    biases."""
    params = DenseParams.from_dims([n_visible, *hidden_dims, n_classes])
    for W in params.Ws:
        W[...] = rng.normal(0.0, weight_std, size=W.shape)
    return params


def mlp_forward(params, x, scales, first=None):
    """(hidden activations, class probs) of rectifier layers over the 2-D
    float64 row batch `x`, hidden layer l times scales[l] (drop-out masks in
    training, keep_prob in prediction, None for neither), and a softmax.
    `first`, when given, is layer 0's unscaled rectified activations of
    `x`, max(x W_0' + b_0, 0); it is only read, so its scaled copy is a new
    array."""
    hidden = []
    below = x
    for l, (W, b) in enumerate(zip(params.Ws[:-1], params.bs[:-1])):
        if l == 0 and first is not None:
            h = first if scales is None else np.multiply(first, scales[0])
        else:
            h = below.dot(W.T)
            np.add(h, b, out=h)
            np.maximum(h, ZERO, out=h)
            if scales is not None:
                np.multiply(h, scales[l], out=h)
        hidden.append(h)
        below = h
    logits = below.dot(params.Ws[-1].T)
    return hidden, softmax(np.add(logits, params.bs[-1], out=logits))


def log_loss(probs, y_onehot):
    n = probs.shape[0]
    return float(-np.sum(y_onehot * np.log(np.clip(probs, EPS, 1.0)))) / n


def mlp_gradients(params, x, y_onehot, w, keep_prob=1.0, rng=None,
                  first=None, *, out):
    """Descent gradients of the row-weighted softmax log-loss
    sum_i w_i * loss_i over the 2-D float64 row batch `x`, through one pass
    under a keep-mask per hidden layer, cut from one draw (none at keep_prob
    1; drop-out without `rng` raises ValueError), added into `out`.  Weights
    of 1/n give the batch average; weights of -lr with `params` itself as
    `out` take a descent step, as every layer's delta is computed before any
    weight moves.  `first` is mlp_forward's, when the caller has it."""
    masks = None
    if float(keep_prob) < 1.0:
        masks, = cut_masks(rng, [([(len(x), len(b)) for b in params.bs[:-1]],
                                  keep_prob, False)])
    hidden, probs = mlp_forward(params, x, masks, first)
    inputs = [x] + hidden
    # the forward pass's probabilities are not needed again: delta takes them
    delta = np.subtract(probs, y_onehot, out=probs)
    np.multiply(delta, w[:, None], out=delta)
    deltas = [delta]
    # a unit the mask dropped has hidden 0, so the gate zeroes its delta too.
    # It writes +0.0 where a multiply by the bool gate gave a negative delta
    # -0.0: a zero term moves no sum that has a non-zero one, and a zero sum
    # leaves a parameter as it is whatever its sign, as no parameter is -0.0
    # (biases start at +0.0, and a sum is -0.0 only when both terms are)
    for l in range(len(hidden) - 1, -1, -1):
        back = deltas[-1].dot(params.Ws[l + 1])
        np.putmask(back, np.less_equal(hidden[l], ZERO), 0.0)
        deltas.append(back)
    for W, b, delta, below in zip(out.Ws[::-1], out.bs[::-1], deltas,
                                  inputs[::-1]):
        add_product(W, delta.T, below)
        np.add(b, np.add.reduce(delta, axis=0), out=b)
    return out


def mlp_predict(params, x, keep_prob=1.0, first=None):
    """Class probabilities of `x`, each hidden layer times keep_prob (a
    number or a 0-d array); `first` is mlp_forward's, when the caller has
    it."""
    scales = (None if float(keep_prob) >= 1.0
              else [keep_prob] * (len(params.Ws) - 1))
    return mlp_forward(params, as_rows(x), scales, first)[1]


class MlpPseudoLabelModel(Learner):
    """The MLP with the hybrids' update/predict surface (trainer.Learner)."""

    def __init__(self, n_visible, hidden_dims, n_classes, config, rng):
        super().__init__(config, rng)
        self.params = init_mlp(n_visible, hidden_dims, n_classes, rng)

    def param_vectors(self):
        return [self.params.data]

    def update(self, x, labels):
        """One descent step on log-loss(labeled) + beta * log-loss(unlabeled,
        pseudo-labels), each the mean over its rows, in one weighted pass.

        `labels` holds a class index per row of `x`, negative where the row
        is unlabeled.  The rows of weighted_rows enter the step with their
        weights, which carry lr, and their row_targets of the class
        probabilities of the last predict() when the prologue (_rows) hands
        them on, with the first layer that starts the forward pass, else of
        an eval pass of its own (made only when a kept row is unlabeled).
        One forward and one backward pass add the step into the parameters
        through the negated weights.  An update that keeps no row changes
        nothing, and the report says so.
        """
        taken = self._rows(x, labels)
        if taken is None:
            return {"updated": False, "beta": None}
        x, labels, lab, w, beta, passes = taken
        probs, first = (None, None) if passes is None else passes
        if probs is None and not lab.all():
            probs = mlp_predict(self.params, x, self.keep_prob)
        targets = one_hot(row_targets(labels, lab, probs),
                          len(self.params.bs[-1]))
        mlp_gradients(self.params, x, targets, -w, self.keep_prob, self.rng,
                      first, out=self.params)
        return {"updated": True, "beta": beta}

    def predict(self, x):
        """Eval-mode class probabilities, kept with layer 0's unscaled
        rectified activations for the next update() of `x` (_keep)."""
        self._kept = None      # freed before the new pass, not after
        first = as_rows(x).dot(self.params.Ws[0].T)
        np.add(first, self.params.bs[0], out=first)
        np.maximum(first, ZERO, out=first)
        probs = mlp_predict(self.params, x, self.keep_prob, first)
        self._keep(x, probs, first)
        return probs

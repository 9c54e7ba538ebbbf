"""Comparison model: drop-out rectifier feed-forward network trained with
supervised back-propagation plus a weighted pseudo-label gradient on
unlabeled samples (entropy-regularization self-training), one weighted
pass per batch.
"""

import numpy as np

from .numerics import (DenseParams, add_product, as_rows, dropout_masks,
                       one_hot, row_targets, softmax, weighted_rows)

EPS = 1e-12


def init_mlp(n_visible, hidden_dims, n_classes, rng, weight_std=0.01):
    """The MLP's start: Gaussian weights (mean 0, std `weight_std`), zero
    biases."""
    params = DenseParams.from_dims([n_visible, *hidden_dims, n_classes])
    for W in params.Ws:
        W[...] = rng.normal(0.0, weight_std, size=W.shape)
    return params


def mlp_forward(params, x, scales):
    """(hidden activations, class probs) of rectifier layers over the 2-D
    float64 row batch `x`, hidden layer l times scales[l] (drop-out masks in
    training, keep_prob in prediction, None for neither), and a softmax."""
    hidden = []
    below = x
    for l, (W, b) in enumerate(zip(params.Ws[:-1], params.bs[:-1])):
        h = below.dot(W.T)
        np.add(h, b, out=h)
        np.maximum(h, 0.0, out=h)
        if scales is not None:
            np.multiply(h, scales[l], out=h)
        hidden.append(h)
        below = h
    logits = below.dot(params.Ws[-1].T)
    return hidden, softmax(np.add(logits, params.bs[-1], out=logits))


def log_loss(probs, y_onehot):
    n = probs.shape[0]
    return float(-np.sum(y_onehot * np.log(np.clip(probs, EPS, 1.0)))) / n


def mlp_gradients(params, x, y_onehot, w, keep_prob=1.0, rng=None, *, out):
    """Descent gradients of the row-weighted softmax log-loss
    sum_i w_i * loss_i over the 2-D float64 row batch `x`, through one pass
    under dropout_masks, added into `out`.  Weights of 1/n give the batch
    average; weights of -lr with `params` itself as `out` take a descent
    step, as every layer's delta is computed before any weight moves."""
    masks = dropout_masks(rng, [(len(x), len(b)) for b in params.bs[:-1]],
                          keep_prob)
    hidden, probs = mlp_forward(params, x, masks)
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
        np.putmask(back, hidden[l] <= 0, 0.0)
        deltas.append(back)
    for W, b, delta, below in zip(out.Ws[::-1], out.bs[::-1], deltas,
                                  inputs[::-1]):
        add_product(W, delta.T, below)
        np.add(b, np.add.reduce(delta, axis=0), out=b)
    return out


def mlp_update(params, x, labels, lr, beta, keep_prob=1.0, rng=None,
               probs=None):
    """One descent step on log-loss(labeled) + beta * log-loss(unlabeled,
    pseudo-labels), each the mean over its rows, in one weighted pass.

    `labels` holds a class index per row of `x`, negative where the row is
    unlabeled.  The rows of weighted_rows enter the step with their
    weights, which carry lr, and their row_targets of `probs`:
    mlp_predict(params, x, keep_prob) at the current parameters, or a fresh
    prediction when None (an unlabeled row is kept only when every row is).
    One forward and one backward pass add the step into `params` through
    the negated weights.  A step that keeps no row changes nothing.
    """
    x, labels, lab, w = weighted_rows(as_rows(x), np.asarray(labels), lr, beta)
    if len(x) == 0:
        return params
    if probs is None and not lab.all():
        probs = mlp_predict(params, x, keep_prob)
    targets = one_hot(row_targets(labels, lab, probs), len(params.bs[-1]))
    return mlp_gradients(params, x, targets, -w, keep_prob, rng, out=params)


def mlp_predict(params, x, keep_prob=1.0):
    """Class probabilities of `x`, each hidden layer times keep_prob."""
    scales = None if keep_prob >= 1.0 else [keep_prob] * (len(params.Ws) - 1)
    return mlp_forward(params, as_rows(x), scales)[1]

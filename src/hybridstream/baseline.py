"""Comparison model: drop-out rectifier feed-forward network trained with
supervised back-propagation plus a weighted pseudo-label gradient on
unlabeled samples (entropy-regularization self-training), one weighted
pass per batch.
"""

import numpy as np

from .numerics import (DenseParams, dropout_masks, one_hot, relu, row_targets,
                       row_weights, softmax)

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
        h = relu(below @ W.T + b)
        if scales is not None:
            np.multiply(h, scales[l], out=h)
        hidden.append(h)
        below = h
    return hidden, softmax(below @ params.Ws[-1].T + params.bs[-1])


def log_loss(probs, y_onehot):
    n = probs.shape[0]
    return float(-np.sum(y_onehot * np.log(np.clip(probs, EPS, 1.0)))) / n


def mlp_gradients(params, x, y_onehot, w, keep_prob=1.0, rng=None, *, out):
    """Descent gradients of the row-weighted softmax log-loss
    sum_i w_i * loss_i over the 2-D float64 row batch `x`, through one pass
    under dropout_masks, written into `out` (every entry).  Weights of 1/n
    give the batch average."""
    masks = dropout_masks(rng, [(len(x), d) for d in params.dims[1:-1]], keep_prob)
    hidden, probs = mlp_forward(params, x, masks)
    inputs = [x] + hidden[:-1]
    # the forward pass's probabilities are not needed again: delta takes them
    delta = np.subtract(probs, y_onehot, out=probs)
    np.multiply(delta, w[:, None], out=delta)
    # matmul straight into the views: a wide layer's gradient is not copied
    np.matmul(delta.T, hidden[-1] if hidden else x, out=out.Ws[-1])
    np.sum(delta, axis=0, out=out.bs[-1])
    for l in range(len(hidden) - 1, -1, -1):
        delta = (delta @ params.Ws[l + 1]) * (hidden[l] > 0)
        if masks is not None:
            delta = delta * masks[l]
        np.matmul(delta.T, inputs[l], out=out.Ws[l])
        np.sum(delta, axis=0, out=out.bs[l])
    return out


def mlp_update(params, x, labels, lr, beta, keep_prob=1.0, rng=None,
               probs=None, *, out):
    """One descent step on log-loss(labeled) + beta * log-loss(unlabeled,
    pseudo-labels), each the mean over its rows, in one weighted pass.

    `labels` holds a class index per row of `x`, negative where the row is
    unlabeled.  Rows take their row_weights, which carry lr, and their
    row_targets of `probs`: mlp_predict(params, x, keep_prob) at the current
    parameters, or a fresh prediction when None.  Rows of weight zero (the
    unlabeled ones when beta is 0) are left out.  One forward and one
    backward pass write the step into `out`; one subtract takes it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels)
    lab, w = row_weights(labels, len(x), lr, beta)
    if beta == 0.0 and not lab.all():     # the unlabeled rows weigh 0
        x, w, labels, lab = x[lab], w[lab], labels[lab], lab[lab]
    if len(x) == 0:
        return params
    if probs is None and not lab.all():
        probs = mlp_predict(params, x, keep_prob)
    targets = one_hot(row_targets(labels, lab, probs), params.dims[-1])
    grads = mlp_gradients(params, x, targets, w, keep_prob, rng, out=out)
    np.subtract(params.data, grads.data, out=params.data)
    return params


def mlp_predict(params, x, keep_prob=1.0):
    """Class probabilities of `x`, each hidden layer times keep_prob."""
    scales = None if keep_prob >= 1.0 else [keep_prob] * (len(params.Ws) - 1)
    return mlp_forward(params, np.atleast_2d(np.asarray(x, dtype=np.float64)),
                       scales)[1]

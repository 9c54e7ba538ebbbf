"""Comparison model: drop-out rectifier feed-forward network trained with
supervised back-propagation plus a weighted pseudo-label gradient on
unlabeled samples (entropy-regularization self-training), one weighted
pass per batch.
"""

import numpy as np

from .numerics import DenseParams, one_hot, relu, softmax

EPS = 1e-12


def init_mlp(n_visible, hidden_dims, n_classes, rng, weight_std=0.01):
    """The MLP's start: Gaussian weights (mean 0, std `weight_std`), zero
    biases."""
    params = DenseParams.from_dims([n_visible, *hidden_dims, n_classes])
    for W in params.Ws:
        W[...] = rng.normal(0.0, weight_std, size=W.shape)
    return params


def mlp_forward(params, x, keep_prob=1.0, train_mode=False, rng=None):
    """Rectifier layers with drop-out, softmax head.

    Train mode applies fresh binary masks to each hidden layer (rng
    required when keep_prob < 1); eval mode scales activations by
    keep_prob.  Returns (hidden activations, class probs, masks).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden = []
    masks = []
    below = x
    for W, b in zip(params.Ws[:-1], params.bs[:-1]):
        h = relu(below @ W.T + b)
        if keep_prob < 1.0:
            if train_mode:
                if rng is None:
                    raise ValueError("train-mode drop-out needs an rng")
                m = (rng.random(h.shape) < keep_prob).astype(np.float64)
                h = h * m
                masks.append(m)
            else:
                h = h * keep_prob
        hidden.append(h)
        below = h
    probs = softmax(below @ params.Ws[-1].T + params.bs[-1])
    return hidden, probs, masks


def log_loss(probs, y_onehot):
    n = probs.shape[0]
    return float(-np.sum(y_onehot * np.log(np.clip(probs, EPS, 1.0)))) / n


def mlp_gradients(params, x, y_onehot, w, keep_prob=1.0, train_mode=False,
                  rng=None, out=None):
    """Descent gradients of the row-weighted softmax log-loss
    sum_i w_i * loss_i, written into `out` (every entry), a fresh container
    when None.  Weights of 1/n give the batch average."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden, probs, masks = mlp_forward(params, x, keep_prob, train_mode, rng)
    inputs = [x] + hidden[:-1]
    grads = params.zeros_like() if out is None else out
    # the forward pass's probabilities are not needed again: delta takes them
    delta = np.subtract(probs, y_onehot, out=probs)
    np.multiply(delta, np.asarray(w, dtype=np.float64)[:, None], out=delta)
    # matmul straight into the views: a wide layer's gradient is not copied
    np.matmul(delta.T, hidden[-1] if hidden else x, out=grads.Ws[-1])
    np.sum(delta, axis=0, out=grads.bs[-1])
    for l in range(len(hidden) - 1, -1, -1):
        delta = (delta @ params.Ws[l + 1]) * (hidden[l] > 0)
        if masks:
            delta = delta * masks[l]
        np.matmul(delta.T, inputs[l], out=grads.Ws[l])
        np.sum(delta, axis=0, out=grads.bs[l])
    return grads


def mlp_update(params, x, labels, lr, beta, keep_prob=1.0, rng=None,
               probs=None, out=None):
    """One descent step on log-loss(labeled) + beta * log-loss(unlabeled,
    pseudo-labels), each the mean over its rows, in one weighted pass.

    `labels` holds a class index per row of `x`, negative where the row is
    unlabeled.  Labeled rows weigh lr/n_lab, unlabeled rows lr*beta/n_unlab
    and carry the argmax of the eval-mode class probabilities as their target:
    `probs`, which must be mlp_predict(params, x, keep_prob) at the current
    parameters, or a fresh eval pass over the whole batch when None.  Rows
    of weight zero (every unlabeled row when beta is 0) are left out of the
    pass.  The batch takes one train-mode forward pass, with one drop-out
    draw per layer, and one backward pass into the gradient container `out`
    (a fresh one when None).  The weights carry lr, so that gradient is the
    step, taken with one in-place subtract.  Mutates params.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels)
    lab = labels >= 0
    n_lab = int(np.count_nonzero(lab))
    n_unlab = len(labels) - n_lab
    if beta != 0.0 and n_unlab > 0:
        if probs is None:
            probs = mlp_predict(params, x, keep_prob)
        targets = np.where(lab, labels, np.argmax(probs, axis=1))
        w = np.where(lab, lr / max(n_lab, 1), lr * beta / n_unlab)
    elif n_lab > 0:
        if n_unlab > 0:
            x = x[lab]
        targets = labels[lab]
        w = np.full(n_lab, lr / n_lab)
    else:
        return params
    grads = mlp_gradients(params, x, one_hot(targets, params.dims[-1]), w,
                          keep_prob, train_mode=True, rng=rng, out=out)
    np.subtract(params.data, grads.data, out=params.data)
    return params


def mlp_predict(params, x, keep_prob=1.0):
    _, probs, _ = mlp_forward(params, x, keep_prob, train_mode=False)
    return probs

"""Comparison model: drop-out rectifier feed-forward network trained with
supervised back-propagation plus a weighted pseudo-label gradient on
unlabeled samples (entropy-regularization self-training).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ViewRecord, flat_views, one_hot, relu, softmax

EPS = 1e-12


@dataclass
class MlpParams(ViewRecord):
    """Every weight in one float64 vector `data`, laid out per layer as W, b;
    `Ws` and `bs` hold views of it.  Gradients share the type."""
    data: np.ndarray
    Ws: tuple
    bs: tuple

    @property
    def n_classes(self):
        return self.Ws[-1].shape[0]

    @property
    def dims(self):
        """[n_visible, hidden sizes..., n_classes]."""
        return [self.Ws[0].shape[1]] + [W.shape[0] for W in self.Ws]

    @classmethod
    def from_dims(cls, dims, data=None):
        """Views over `data`, or over a zero vector when it is None."""
        shapes = []
        for below, above in zip(dims[:-1], dims[1:]):
            shapes += [(above, below), (above,)]
        data, views = flat_views(shapes, data)
        return cls(data, tuple(views[::2]), tuple(views[1::2]))

    def copy(self):
        return self.from_dims(self.dims, self.data.copy())

    def zeros_like(self):
        return self.from_dims(self.dims)

    @classmethod
    def initialize(cls, n_visible, hidden_dims, n_classes, rng, weight_std=0.01):
        params = cls.from_dims([n_visible] + list(hidden_dims) + [n_classes])
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


def mlp_gradients(params, x, y_onehot, keep_prob=1.0, train_mode=False, rng=None,
                  out=None):
    """Descent gradients of the batch-averaged softmax log-loss, written into
    `out` (every entry), a fresh container when None."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    hidden, probs, masks = mlp_forward(params, x, keep_prob, train_mode, rng)
    inputs = [x] + hidden[:-1]
    grads = params.zeros_like() if out is None else out
    delta = (probs - y_onehot) / n
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


def mlp_update(params, x_lab, y_lab, x_unlab, lr, beta, keep_prob=1.0, rng=None,
               workspaces=None):
    """Descent step on log-loss(lab) + beta * log-loss(unlab, pseudo-labels).

    Pseudo-labels are the model's own eval-mode argmax predictions.
    Mutates params in place.  `workspaces` is a dict the caller keeps across
    steps: it holds the gradient container of each side ("lab", "unlab"),
    built the first time that side occurs (fresh ones each step when None).
    """
    workspaces = {} if workspaces is None else workspaces

    def workspace(side):
        if side not in workspaces:
            workspaces[side] = params.zeros_like()
        return workspaces[side]

    grads = []
    if x_lab is not None and len(x_lab) > 0:
        y_oh = one_hot(y_lab, params.n_classes)
        grads.append((1.0, mlp_gradients(params, x_lab, y_oh, keep_prob,
                                         train_mode=True, rng=rng,
                                         out=workspace("lab"))))
    if beta != 0.0 and x_unlab is not None and len(x_unlab) > 0:
        _, probs, _ = mlp_forward(params, x_unlab, keep_prob, train_mode=False)
        y_pseudo = one_hot(np.argmax(probs, axis=1), params.n_classes)
        grads.append((beta, mlp_gradients(params, x_unlab, y_pseudo, keep_prob,
                                          train_mode=True, rng=rng,
                                          out=workspace("unlab"))))
    for weight, g in grads:
        np.multiply(g.data, lr * weight, out=g.data)
        np.subtract(params.data, g.data, out=params.data)
    return params


def mlp_predict(params, x, keep_prob=1.0):
    _, probs, _ = mlp_forward(params, x, keep_prob, train_mode=False)
    return probs

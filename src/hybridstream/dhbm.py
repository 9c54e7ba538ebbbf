"""Deep hybrid Boltzmann machine: energy, exact tiny-model oracle, and the
conditional / mean-field equations with top-down feedback.

Layer convention: a model with hidden sizes [H1, ..., HL] over D visible
units and C classes stores per layer l (0-based here) a weight matrix
W[l] of shape (H_l, H_{l-1}) with H_{-1} = D and a visible-side bias
(H_{l-1},), then every layer's class weights as one block U of shape
(sum H_l, C) and its hidden biases as one block b_hidden (sum H_l,): layer
l owns rows edges[l]:edges[l+1] of each block, its U[l] (H_l, C) and hidden
bias (H_l,).  The blocks let the class expert of every layer be one product:
cond_y's logits and class_drive's class term of every hidden conditional.
The visible-side biases of layers l > 0 are only exercised by the
autoencoder decoders; the Boltzmann energy uses layer 0's.

Probabilities are proportional to exp(-E) with E as returned by
:func:`energy`; under that convention every conditional below is the
sigmoid / softmax form that the mean-field equations iterate, and the
oracle BruteForceJoint enumerates energy itself.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import (ViewRecord, flat_views, one_hot, sigmoid,
                       sigmoid_from_negated, softmax)


@dataclass
class LayerParams(ViewRecord):
    """One layer's views of its HybridParams vector, U and b_hidden its rows
    of the model's blocks.  Write through a view (``lp.W[...] = ...`` or
    ``lp.W += d``); a view cannot be replaced (see numerics.ViewRecord)."""
    W: np.ndarray
    U: np.ndarray
    b_hidden: np.ndarray
    b_visible: np.ndarray


@dataclass
class HybridParams(ViewRecord):
    """Every parameter in one float64 vector `data`, laid out per layer as
    W, b_visible, then the class-weight block U (sum H_l, C), the
    hidden-bias block b_hidden (sum H_l,) and b_class; `layers`, `U`,
    `b_hidden` and `b_class` are views of it, layer l's U and b_hidden rows
    edges[l]:edges[l+1] of the blocks.  The estimators add their step into
    one: the model itself in training, or zero parameters (see
    :meth:`zeros_like`) to read a gradient alone.
    """
    data: np.ndarray
    layers: tuple
    U: np.ndarray
    b_hidden: np.ndarray
    b_class: np.ndarray
    edges: tuple

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def n_visible(self):
        return self.layers[0].W.shape[1]

    @property
    def n_classes(self):
        return self.b_class.shape[0]

    @property
    def hidden_dims(self):
        return [lp.W.shape[0] for lp in self.layers]

    @classmethod
    def from_dims(cls, n_visible, hidden_dims, n_classes):
        """Zero parameters of this layout."""
        shapes = []
        below = n_visible
        for h in hidden_dims:
            shapes += [(h, below), (below,)]
            below = h
        edges = (0, *itertools.accumulate(hidden_dims))
        data, views = flat_views(
            shapes + [(edges[-1], n_classes), (edges[-1],), (n_classes,)])
        U, b_hidden, b_class = views[-3:]
        layers = tuple(LayerParams(views[2 * l], U[lo:hi], b_hidden[lo:hi],
                                   views[2 * l + 1])
                       for l, (lo, hi) in enumerate(zip(edges, edges[1:])))
        return cls(data, layers, U, b_hidden, b_class, edges)

    def zeros_like(self):
        """Zero parameters of the same layout, into which an estimator adds
        the gradient alone."""
        return self.from_dims(self.n_visible, self.hidden_dims, self.n_classes)

    @classmethod
    def initialize(cls, n_visible, hidden_dims, n_classes, rng, weight_std=0.01):
        """Gaussian weights (mean 0, std `weight_std`), zero biases."""
        params = cls.from_dims(n_visible, hidden_dims, n_classes)
        for lp in params.layers:
            lp.W[...] = rng.normal(0.0, weight_std, size=lp.W.shape)
            lp.U[...] = rng.normal(0.0, weight_std, size=lp.U.shape)
        return params


@dataclass
class MeanFieldState:
    """A mean-field iterate: each hidden layer's means and the class
    distribution."""
    layer_means: list
    class_probs: np.ndarray


def energy(params, y, x, hs):
    """E(y, x, h^1..h^L) = -sum_l h_l'W_l v_{l-1} - sum_l h_l'U_l e_y - biases.

    The class index y, x and each h broadcast over their leading axes, units
    on the last: one configuration gives a float, a grid of them an array (the
    grid BruteForceJoint enumerates)."""
    x = np.asarray(x, dtype=np.float64)
    hs = [np.asarray(h, dtype=np.float64) for h in hs]
    if len(hs) != params.n_layers:
        raise ValueError(f"expected {params.n_layers} hidden vectors, got {len(hs)}")
    ey = one_hot(y, params.n_classes)
    e = -(ey @ params.b_class)
    below = x
    for lp, h in zip(params.layers, hs):
        if lp.W.shape != (h.shape[-1], below.shape[-1]):
            raise ValueError(f"W shape {lp.W.shape} does not match "
                             f"({h.shape[-1]}, {below.shape[-1]})")
        e = (e - np.sum((h @ lp.W) * below, axis=-1)
             - np.sum((h @ lp.U) * ey, axis=-1) - h @ lp.b_hidden)
        below = h
    e = e - x @ params.layers[0].b_visible
    return float(e) if e.ndim == 0 else e


def class_drive(params, y):
    """Every hidden layer's class term and bias, negated, -(y U' + b_hidden):
    a (rows, sum H_l) array, or -b_hidden when `y` is None, the DHDA
    encoder's term.  Layer l's columns edges[l]:edges[l+1] are what its
    cond_h subtracts.  The product is subtracted from the negated bias,
    fl(-b - yU') = -fl(yU' + b) as rounding to nearest is symmetric in
    sign, so the one negation is of the bias vector and not of a batch.

    `y` is the class distribution, a float row of probabilities per row (a
    sampled label's one-hot row, whose product with U' has the bits of U's
    column).  Integer labels raise TypeError: their product with U' would
    be another number.
    """
    neg_bias = np.negative(params.b_hidden)
    if y is None:
        return neg_bias
    if y.dtype.kind != "f":
        raise TypeError(f"class_drive takes class probability rows, got "
                        f"{y.dtype} labels: pass their one-hot rows")
    drive = y.dot(params.U.T)
    return np.subtract(neg_bias, drive, out=drive)


def cond_h(params, l, drive, below, above=None, below_product=None):
    """Mean of hidden layer l given its neighbours and the class.

    sigma(W_l v_{l-1} + (U_l y + b) + W_{l+1}' h_{l+1}), summed in that order
    and negated, with `drive` the class_drive of y (its columns of layer l
    are the middle term, negated): -fl(fl(a + d) + c) as fl(fl(-d - a) - c),
    the input of sigmoid_from_negated's four passes.  `below_product`, when
    given, is below's product W_l v_{l-1} formed by the caller, and `below`
    is not read.  Accepts mean vectors in place of binary states, and
    batches (rows) in place of single vectors.
    """
    lo, hi = params.edges[l:l + 2]
    top = l + 1 == len(params.layers)
    if above is None and not top:
        raise ValueError(f"layer {l} requires the state of layer {l + 1}")
    if below_product is None:
        pre = below.dot(params.layers[l].W.T)
        np.subtract(drive[..., lo:hi], pre, out=pre)
    else:
        pre = np.subtract(drive[..., lo:hi], below_product)
    if not top:
        np.subtract(pre, above.dot(params.layers[l + 1].W), out=pre)
    return sigmoid_from_negated(pre, out=pre)


def cond_x(params, h, l=0):
    """Mean of layer l's input given its state h, sigma(W_l' h + b_visible_l):
    the visible layer's conditional at l = 0, the DHDA's tied decoder at any l."""
    lp = params.layers[l]
    pre = h.dot(lp.W)
    np.add(pre, lp.b_visible, out=pre)
    return sigmoid(pre, out=pre)


def cond_y(params, h_means, scale=None):
    """Class distribution from all layers jointly: softmax(sum_l U_l' h_l + b),
    with each h_l times `scale` (a number or a 0-d array) when it is given:
    the layers' means joined along their units into one copy, scaled in
    place, times the block U in one product."""
    if len(h_means) != params.n_layers:
        raise ValueError(f"expected {params.n_layers} layer means, got {len(h_means)}")
    h = np.concatenate(h_means, axis=-1)
    if scale is not None:
        np.multiply(h, scale, out=h)
    logits = h.dot(params.U)
    np.add(logits, params.b_class, out=logits)
    return softmax(logits)


def mean_field_step(params, x, state, clamped_y=None, x_product=None):
    """One full fixed-point cycle: h^1, ..., h^L, then y.

    x stays clamped to the data, so no step reads a reconstruction of it;
    a caller that needs one takes cond_x of the final h^1.  If `clamped_y`
    (a batch x C matrix of class probabilities, such as one-hot labels) is
    given the class distribution is held fixed at it and no cond_y is taken.
    Every layer's class term is read from one class_drive of the step's y.
    `x_product`, when given, is x times W_1' (x.dot(W_1.T)), formed once by
    a caller that takes several steps at the same x and parameters: the
    bits of the product each step would form.
    """
    means = list(state.layer_means)
    y_probs = clamped_y if clamped_y is not None else state.class_probs
    drive = class_drive(params, y_probs)
    L = params.n_layers
    for l in range(L):
        below = x if l == 0 else means[l - 1]
        above = means[l + 1] if l + 1 < L else None
        means[l] = cond_h(params, l, drive, below, above,
                          x_product if l == 0 else None)
    if clamped_y is None:
        y_probs = cond_y(params, means)
    return MeanFieldState(means, y_probs)


def _enumerate_binary(n):
    """All binary vectors of length n; row i holds the bits of i (LSB first)."""
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def _state_index(v):
    bits = np.asarray(v).astype(np.int64)
    return int(bits @ (1 << np.arange(bits.shape[0])))


class BruteForceJoint:
    """Exact joint p(y, x, h^1, h^2) of a tiny two-layer model by enumeration.

    The table is exp(-E), normalized, with E from one :func:`energy` call on
    the grid of every configuration, so the conditionals read off it are an
    oracle independent of the sigmoid/softmax formulas in this module.
    """

    MAX_CONFIGS = 1 << 20

    def __init__(self, params):
        if params.n_layers != 2:
            raise ValueError("enumeration oracle supports exactly 2 hidden layers")
        D = params.n_visible
        H1, H2 = params.hidden_dims
        C = params.n_classes
        total = (1 << (D + H1 + H2)) * C
        if total > self.MAX_CONFIGS:
            raise ValueError(f"{total} configurations exceed the "
                             f"{self.MAX_CONFIGS} enumeration bound")
        X, A, B = (_enumerate_binary(n) for n in (D, H1, H2))
        # -E indexed [y, ix, i1, i2]
        negE = -energy(params, np.arange(C)[:, None, None, None],
                       X[None, :, None, None],
                       [A[None, None, :, None], B[None, None, None, :]])
        w = np.exp(negE - negE.max())
        self.log_z = float(np.log(w.sum()) + negE.max())
        self.joint = w / w.sum()
        self._X, self._A, self._B = X, A, B

    def marginal_xy(self):
        """p(x, y) as an array indexed [ix, y]."""
        return self.joint.sum(axis=(2, 3)).T

    def _unit_marginal(self, weights, states):
        w = weights / weights.sum()
        return w @ states

    def cond_h1(self, y, x, h2):
        w = self.joint[int(y), _state_index(x), :, _state_index(h2)]
        return self._unit_marginal(w, self._A)

    def cond_h2(self, y, h1):
        w = self.joint[int(y), :, _state_index(h1), :].sum(axis=0)
        return self._unit_marginal(w, self._B)

    def cond_x(self, h1):
        w = self.joint[:, :, _state_index(h1), :].sum(axis=(0, 2))
        return self._unit_marginal(w, self._X)

    def cond_y(self, h1, h2):
        w = self.joint[:, :, _state_index(h1), _state_index(h2)].sum(axis=1)
        return w / w.sum()

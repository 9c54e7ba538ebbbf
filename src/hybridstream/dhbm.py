"""Deep hybrid Boltzmann machine: energy, exact tiny-model oracle, and the
conditional / mean-field equations with top-down feedback.

Layer convention: a model with hidden sizes [H1, ..., HL] over D visible
units and C classes stores per layer l (0-based here) a weight matrix
W[l] of shape (H_l, H_{l-1}) with H_{-1} = D, a class matrix U[l] of shape
(H_l, C), a hidden bias (H_l,) and a visible-side bias (H_{l-1},).  The
visible-side biases of layers l > 0 are only exercised by the autoencoder
decoders; the Boltzmann energy uses layer 0's.

Probabilities are proportional to exp(-E) with E as returned by
:func:`energy`; under that convention every conditional below is the
sigmoid / softmax form that the mean-field equations iterate, and the
oracle BruteForceJoint enumerates energy itself.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ViewRecord, flat_views, one_hot, sigmoid, softmax


@dataclass
class LayerParams(ViewRecord):
    """One layer's views of its HybridParams vector.  Write through a view
    (``lp.W[...] = ...`` or ``lp.W += d``); a view cannot be replaced (see
    numerics.ViewRecord)."""
    W: np.ndarray
    U: np.ndarray
    b_hidden: np.ndarray
    b_visible: np.ndarray


@dataclass
class HybridParams(ViewRecord):
    """Every parameter in one float64 vector `data`, laid out per layer as
    W, U, b_hidden, b_visible and then b_class; `layers` and `b_class` are
    views of it.  The estimators add their step into one: the model itself
    in training, or zero parameters (see :meth:`zeros_like`) to read a
    gradient alone.
    """
    data: np.ndarray
    layers: tuple
    b_class: np.ndarray

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
            shapes += [(h, below), (h, n_classes), (h,), (below,)]
            below = h
        data, views = flat_views(shapes + [(n_classes,)])
        layers = tuple(LayerParams(*views[i:i + 4])
                       for i in range(0, len(views) - 1, 4))
        return cls(data, layers, views[-1])

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


def cond_h(params, l, y, below, above=None):
    """Mean of hidden layer l given its neighbours and the class.

    sigma(U_l y + W_l v_{l-1} + W_{l+1}' h_{l+1} + b); accepts mean vectors in
    place of binary states, and batches (rows) in place of single vectors.
    `y` is the class distribution, a float row of probabilities per row (a
    sampled label's one-hot row, whose product with U_l' has the bits of U_l's
    column), or None for no class term: the DHDA's encoder.  Integer labels
    raise TypeError: their product with U_l' would be another number.
    """
    lp = params.layers[l]
    if l + 1 < params.n_layers and above is None:
        raise ValueError(f"layer {l} requires the state of layer {l + 1}")
    # the terms are summed left to right in one array
    pre = below.dot(lp.W.T)
    if y is not None:
        if y.dtype.kind != "f":
            raise TypeError(f"cond_h takes class probability rows, got "
                            f"{y.dtype} labels: pass their one-hot rows")
        np.add(pre, y.dot(lp.U.T), out=pre)
    np.add(pre, lp.b_hidden, out=pre)
    if l + 1 < params.n_layers:
        np.add(pre, above.dot(params.layers[l + 1].W), out=pre)
    return sigmoid(pre, out=pre)


def cond_x(params, h, l=0):
    """Mean of layer l's input given its state h, sigma(W_l' h + b_visible_l):
    the visible layer's conditional at l = 0, the DHDA's tied decoder at any l."""
    lp = params.layers[l]
    pre = h.dot(lp.W)
    np.add(pre, lp.b_visible, out=pre)
    return sigmoid(pre, out=pre)


def cond_y(params, h_means, scale=1.0):
    """Class distribution from all layers jointly: softmax(sum_l U_l' h_l + b),
    with each h_l times `scale`.  A scaled layer is a temporary that lives
    only while its product is taken, so one copy exists at a time."""
    if len(h_means) != params.n_layers:
        raise ValueError(f"expected {params.n_layers} layer means, got {len(h_means)}")

    def scaled(h):
        return h if scale == 1.0 else np.multiply(h, scale)

    logits = scaled(h_means[0]).dot(params.layers[0].U)
    np.add(logits, params.b_class, out=logits)
    for lp, h in zip(params.layers[1:], h_means[1:]):
        np.add(logits, scaled(h).dot(lp.U), out=logits)
    return softmax(logits)


def mean_field_step(params, x, state, clamped_y=None):
    """One full fixed-point cycle: h^1, ..., h^L, then y.

    x stays clamped to the data, so no step reads a reconstruction of it;
    a caller that needs one takes cond_x of the final h^1.  If `clamped_y`
    (a batch x C matrix of class probabilities, such as one-hot labels) is
    given the class distribution is held fixed at it and no cond_y is taken.
    """
    means = list(state.layer_means)
    y_probs = clamped_y if clamped_y is not None else state.class_probs
    L = params.n_layers
    for l in range(L):
        below = x if l == 0 else means[l - 1]
        above = means[l + 1] if l + 1 < L else None
        means[l] = cond_h(params, l, y_probs, below, above)
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

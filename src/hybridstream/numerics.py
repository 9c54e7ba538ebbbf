"""Activation functions, seeded randomness, the flat parameter layout
shared by every model component, the dense-network parameter type, the
mask and drop-out draws, row weights, row targets and cross-entropy that
every model shares, and the type check of every config value.

All arithmetic is double precision.  Randomness is never global: callers
construct a Generator with :func:`make_rng` and pass it explicitly so that
identical seeds reproduce identical runs.
"""

import dataclasses
import math
import numbers

import numpy as np

EPS = 1e-7     # cross_entropy clips probabilities to [EPS, 1 - EPS]


def make_rng(seed):
    """Seeded PCG64 generator; the only sanctioned way to get randomness."""
    return np.random.Generator(np.random.PCG64(np.uint64(seed)))


def flat_views(shapes, data=None):
    """A flat float64 parameter vector and its consecutive views of `shapes`.

    Allocates a zero vector when `data` is None.  Every parameter container
    is built here, so copying, updating or writing a whole model is one
    operation on the vector, and writing through a view writes the vector.
    """
    total = sum(math.prod(shape) for shape in shapes)
    if data is None:
        data = np.zeros(total)
    elif (data.dtype != np.float64 or data.shape != (total,)
          or not data.flags.c_contiguous):
        raise ValueError(f"expected a contiguous float64 vector of {total} "
                         f"parameters, got {data.dtype} {data.shape}")
    return data, split_views(data, shapes)


def split_views(flat, shapes):
    """Consecutive views of the vector `flat`, one of each shape in turn."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


class ViewRecord:
    """Base of the dataclasses that hold a parameter vector and its views.

    A field is set once, when the record is built.  Setting it again to the
    array it already holds is accepted: ``lp.W += d`` adds in place and then
    rebinds ``W`` to the same view.  Any other value raises, because a new
    array would detach the field from the flat vector.
    """

    def __setattr__(self, name, value):
        if (name not in self.__dataclass_fields__
                or self.__dict__.get(name, value) is not value):
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


@dataclasses.dataclass
class DenseParams(ViewRecord):
    """A dense feed-forward network's weights in one float64 vector `data`,
    laid out per layer as W (out, in), b (out,); `Ws` and `bs` hold views of
    it.  The recognition net and the baseline MLP are both one; a gradient
    shares the type (see :meth:`zeros_like`)."""
    data: np.ndarray
    Ws: tuple
    bs: tuple

    @property
    def dims(self):
        """[input size, each layer's output size...]."""
        return [self.Ws[0].shape[1]] + [W.shape[0] for W in self.Ws]

    @classmethod
    def from_dims(cls, dims, data=None):
        """Views over `data`, or over a zero vector when it is None."""
        shapes = []
        for below, above in zip(dims[:-1], dims[1:]):
            shapes += [(above, below), (above,)]
        data, views = flat_views(shapes, data)
        return cls(data, tuple(views[::2]), tuple(views[1::2]))

    def zeros_like(self):
        """Zero parameters of the same layout, the container of a gradient."""
        return self.from_dims(self.dims)


def check_type(name, value, kind, least=None):
    """Raise a ValueError naming `name` unless `value` is of type `kind` and,
    when `least` is not None, >= `least`.  For int that is an integer (numpy's
    too) that is not a bool, for float a finite real that is not a bool."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is int:
        ok, need = number and isinstance(value, numbers.Integral), "an integer"
    elif kind is float:
        ok, need = number and math.isfinite(value), "finite (a real, not a bool)"
    else:
        ok, need = isinstance(value, kind), f"a {kind.__name__}"
    if least is not None:
        ok, need = ok and value >= least, f"{need} and >= {least}"
    if not ok:
        raise ValueError(f"{name} must be {need}, got {value!r}")


def check_fields(record, **least):
    """check_type of each field of the dataclass `record` against its
    annotated type and its least value in `least`, if one is given."""
    for field in dataclasses.fields(record):
        check_type(field.name, getattr(record, field.name), field.type,
                   least.get(field.name))


def sigmoid(v, out=None):
    """Logistic sigmoid, overflow-safe for any v.

    exp() is only ever called on -|v|: each element is 1 / (1 + exp(-v)) for
    v >= 0 and exp(v) / (1 + exp(v)) otherwise, computed without branching
    in the output and one scratch array.  `out` may be v itself.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        # ufuncs return scalars for 0-d input, which out= cannot take
        return float(sigmoid(v.reshape(1))[0])
    pos = v >= 0        # read before out, which may alias v, is written
    e = np.abs(v, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.putmask(e, pos, 1.0)
    return np.divide(e, den, out=e)


def sigmoid_prime_from_output(s):
    """Derivative of the sigmoid expressed through its output: s * (1 - s)."""
    return s * (1.0 - s)


def relu(v):
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def softmax(v, axis=-1):
    """Shift-invariant softmax along `axis`; rows sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    e = v - v.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def bernoulli_mask(rng, rows, cols, p):
    """Matrix of i.i.d. {0,1} entries, 1 where a uniform draw is below p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mask probability must lie in [0, 1], got {p}")
    return (rng.random((rows, cols)) < p).astype(np.float64)


def dropout_masks(rng, shapes, keep_prob):
    """A keep-mask of each shape, cut from one draw: the same bits as one
    bernoulli_mask per shape.  None when keep_prob >= 1; drop-out without a
    generator raises ValueError."""
    if keep_prob >= 1.0:
        return None
    if rng is None:
        raise ValueError("drop-out needs an rng")
    flat = bernoulli_mask(rng, 1, sum(math.prod(s) for s in shapes), keep_prob)
    return split_views(flat[0], shapes)


def row_weights(labels, n_rows, lr, beta):
    """(labeled-row mask, step weights) of a batch of `n_rows` rows whose
    negative labels (an array) mark unlabeled rows: lr/n_lab on each labeled
    row, lr*beta/n_unlab on each unlabeled one, a count of 0 taken as 1.
    Raises ValueError unless `labels` holds one label per row."""
    if labels.shape != (n_rows,):
        raise ValueError(f"labels of shape {labels.shape} for a batch of "
                         f"{n_rows} rows: one label per row is needed")
    lab = labels >= 0
    n_lab = int(np.count_nonzero(lab))
    return lab, np.where(lab, lr / max(n_lab, 1),
                         lr * beta / max(len(lab) - n_lab, 1))


def row_targets(labels, lab, probs):
    """Each row's class: its label where `lab`, else its pseudo-label, the
    argmax (lowest on a tie) of its class probabilities `probs`."""
    if lab.all():
        return labels
    return np.where(lab, labels, np.argmax(probs, axis=1))


def cross_entropy(target, p):
    """-sum target log p + (1 - target) log(1 - p), p clipped to [EPS, 1 - EPS],
    averaged over the rows of a batch (a vector is one row)."""
    if target.shape != p.shape:
        raise ValueError(f"shape mismatch {target.shape} vs {p.shape}")
    pc = np.clip(p, EPS, 1.0 - EPS)
    n = target.shape[0] if target.ndim == 2 else 1
    return float(np.sum(-target * np.log(pc)
                        - (1.0 - target) * np.log(1.0 - pc))) / n


def one_hot(indices, n_classes):
    """Rows of the identity: shape indices.shape + (n_classes,), float64."""
    return np.eye(n_classes)[np.asarray(indices, dtype=np.int64)]

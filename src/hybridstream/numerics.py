"""Activation functions, seeded randomness, the flat parameter layout
shared by every model component, the dense-network parameter type, the
banded product-add every gradient function steps with, the mask and
drop-out draws, weighted rows, row targets and cross-entropy that every
model shares, and the type check of every config value.

All arithmetic is double precision.  Randomness is never global: callers
construct a Generator with :func:`make_rng` and pass it explicitly so that
identical seeds reproduce identical runs.

The call rule: C entry points, no dtype round-trips.  Every numpy call on
the predict/update path reaches numpy's C code without a Python-level
wrapper on the way, and no array is converted to a dtype it already has or
only passes through.  Every matrix product is taken with the array method
``a.dot(b)``; every sum, maximum and running sum with its ufunc's
``reduce`` or ``accumulate``, the calls that ``np.sum``, ``ndarray.max`` and
``np.cumsum`` wrap; an argmax with the method ``p.argmax(axis=1)``; a clamp
with ``np.maximum`` then ``np.minimum`` in place; a gate with
``np.putmask``; a filled vector with ``np.empty`` and ``.fill``; and a
batch enters a model through :func:`as_rows`.  A bool miss vector enters the
prequential sum as it is, and a keep-mask is drawn as ``u >= p`` in one pass
(bernoulli_mask's `complement`), not as ``1 - (u < p)``.  ``np.count_nonzero``
keeps its thin wrapper (0.3 us): numpy has no public entry to the C count
behind it.

For float64 operands of one or two dimensions ``a.dot(b)``, ``np.dot(a, b)``
and ``a @ b`` reach the same BLAS routine (gemm, or gemv where one side is a
vector) with the same operands, so the bits are the same, but the method
gets there soonest: ``np.dot`` first runs numpy's Python-level
``__array_function__`` dispatcher, and ``@`` the ufunc machinery.  At
20x24x24 they took 1.59, 1.83 and 2.31 us, and for a 40-row vector times a
matrix 0.59, 0.81 and 1.12 us (numpy 2.4, one BLAS thread), and a stream
model's step takes about a hundred such products.  The other wrappers cost
as much per call: ``np.argmax(p, axis=1)`` took 3.12 us against 0.74 us for
the method, ``np.atleast_2d(np.asarray(x))`` 1.19 against 0.26 us,
``np.clip(out=)`` 3.26 against 2.31 us for maximum then minimum, and a
bool-times-float gate 2.56 against about 1.8 us for a compare and putmask
(numpy 2.4.6, one BLAS thread).  The method clears its result before the
BLAS call, a pass over the result that ``@`` does not make, so a product
whose result is a large weight block keeps ``@``: add_product's banded loop
and estimators.mf_bp_gradients' weight products, each with its
measurement.
"""

import dataclasses
import functools
import math
import numbers

import numpy as np

EPS = 1e-7     # cross_entropy clips probabilities to [EPS, 1 - EPS]

# add_product adds its product in bands of rows of `out` of about this many
# bytes, each while it is still in cache
BAND_BYTES = 1 << 18
# OpenBLAS's AVX-512 double kernels work on 8 columns at a time and split a
# depth above 384 into blocks; outside those bounds a band's rows were seen
# to round other than the same rows of the whole product, so add_product
# takes such a product whole
BAND_COLUMNS = 8
BAND_MAX_DEPTH = 384


def make_rng(seed):
    """Seeded PCG64 generator; the only sanctioned way to get randomness."""
    return np.random.Generator(np.random.PCG64(np.uint64(seed)))


def flat_views(shapes):
    """A zero float64 vector and its consecutive views of `shapes`.  Every
    parameter container is built here, so a write through a view, or of a
    whole model's vector into `data`, writes the one vector."""
    data = np.zeros(sum(math.prod(shape) for shape in shapes))
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
    read on its own is added into a zero one (see :meth:`zeros_like`)."""
    data: np.ndarray
    Ws: tuple
    bs: tuple

    @property
    def dims(self):
        """[input size, each layer's output size...]."""
        return [self.Ws[0].shape[1]] + [W.shape[0] for W in self.Ws]

    @classmethod
    def from_dims(cls, dims):
        """Zero parameters of the layout of `dims`."""
        shapes = []
        for below, above in zip(dims[:-1], dims[1:]):
            shapes += [(above, below), (above,)]
        data, views = flat_views(shapes)
        return cls(data, tuple(views[::2]), tuple(views[1::2]))

    def zeros_like(self):
        """Zero parameters of the same layout, into which a gradient function
        adds the gradient alone."""
        return self.from_dims(self.dims)


def _band_edges(out, depth):
    """Row edges of add_product's bands of the 2-D array `out` over a
    product of inner size `depth`: about BAND_BYTES each and split evenly,
    so no band has one row (a one-row product takes numpy's gemv path,
    which can round differently).  None when the product is taken whole:
    `out` fits one band, is a vector, or banding could move a bit (see
    BAND_COLUMNS)."""
    n = min(len(out) // 2, -(-out.nbytes // BAND_BYTES))
    if (out.ndim != 2 or n < 2 or out.shape[1] % BAND_COLUMNS
            or depth > BAND_MAX_DEPTH):
        return None
    return [len(out) * i // n for i in range(n + 1)]


def add_product(out, a, b):
    """out += a @ b in place, one band of rows (_band_edges) at a time, each
    band's product added while it is still in cache: the bits of
    ``out + a @ b`` without a whole-product temporary.  Returns `out`."""
    # a block that fits one band, as every block of a stream model does,
    # skips the band arithmetic
    edges = _band_edges(out, b.shape[0]) if out.nbytes > BAND_BYTES else None
    if edges is None:
        out += a.dot(b)
        return out
    # np.dot, like .dot, clears its result first and took a band of the
    # transposed view slower than @: 27.1 against 21.1 us per 32-row band at
    # 256x20x784 (241 against 195 us whole); .dot, on a noisier run, 36.7
    # against 33.4 us
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = out[lo:hi]
        band += a[lo:hi] @ b
    return out


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


def softmax(v):
    """Shift-invariant softmax along the last axis; rows sum to 1."""
    e = v - np.maximum.reduce(v, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def bernoulli_mask(rng, rows, cols, p, complement=False):
    """Matrix of i.i.d. {0,1} entries, 1 where a uniform draw is below p or,
    with `complement`, at or above it: the bits of one minus the mask of the
    same draw, in one pass."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mask probability must lie in [0, 1], got {p}")
    u = rng.random((rows, cols))
    return (u >= p if complement else u < p).astype(np.float64)


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


def as_rows(x):
    """`x` as a 2-D float64 row batch, with the shapes of
    ``np.atleast_2d(np.asarray(x, dtype=np.float64))``: a scalar is one row of
    one, a vector one row, and more dimensions stay.  An array that is
    already 2-D float64 comes back itself, not a copy."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(1, -1) if x.ndim < 2 else x


def weighted_rows(x, labels, lr, beta):
    """(x, labels, labeled-row mask, step weights) of the rows of the batch
    `x` that enter a step, given its labels (an array, negative where a row
    is unlabeled): lr/n_lab on each labeled row, lr*beta/n_unlab on each
    unlabeled one, a count of 0 taken as 1.  At beta 0 the unlabeled rows
    weigh nothing and are left out; `x` and `labels` come back as given
    when every row is kept.  Raises ValueError unless `labels` holds one
    label per row."""
    if labels.shape != (len(x),):
        raise ValueError(f"labels of shape {labels.shape} for a batch of "
                         f"{len(x)} rows: one label per row is needed")
    lab = labels >= 0
    if beta == 0.0 and not lab.all():
        x, labels, lab = x[lab], labels[lab], lab[lab]
    n_lab = int(np.count_nonzero(lab))
    return x, labels, lab, np.where(lab, lr / max(n_lab, 1),
                                    lr * beta / max(len(lab) - n_lab, 1))


def row_targets(labels, lab, probs):
    """Each row's class: its label where `lab`, else its pseudo-label, the
    argmax (lowest on a tie) of its class probabilities `probs`."""
    if lab.all():
        return labels
    return np.where(lab, labels, probs.argmax(axis=1))


def cross_entropy(target, p):
    """-sum target log p + (1 - target) log(1 - p), p clipped to [EPS, 1 - EPS],
    averaged over the rows of a batch (a vector is one row)."""
    if target.shape != p.shape:
        raise ValueError(f"shape mismatch {target.shape} vs {p.shape}")
    pc = np.clip(p, EPS, 1.0 - EPS)
    n = target.shape[0] if target.ndim == 2 else 1
    return float(np.sum(-target * np.log(pc)
                        - (1.0 - target) * np.log(1.0 - pc))) / n


@functools.cache
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def one_hot(indices, n_classes):
    """Rows of the identity: shape indices.shape + (n_classes,), float64.
    The identity is built once per class count; indexing copies its rows."""
    return _identity(n_classes)[np.asarray(indices, dtype=np.int64)]

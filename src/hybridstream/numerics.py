"""Activation functions, seeded randomness, the flat parameter layout
shared by every model component, the dense-network parameter type, the
banded product-add every gradient function steps with, the mask draws,
weighted rows, row targets and cross-entropy that every
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
(cut_masks' `complement`), not as ``1 - (u < p)``.  ``np.count_nonzero``
keeps its thin wrapper (0.3 us): numpy has no public entry to the C count
behind it.  A run's path calls no numpy function whose first call imports
a submodule that the run does not compute with: ``np.unique`` imports
``numpy.ma``, so the offline run takes its classes from a bincount.

The scalar rule: no Python number reaches a ufunc.  Under numpy 2's
promotion rules (NEP 50) a Python float or int operand becomes a new 0-d
array on every call; a read-only 0-d float64 array built once
(:func:`constant`: ZERO, ONE, TWO and the sigmoid's clamp here, and each
config value where its owner is built) promotes to the same float64, so
the bits are the same, and skips that work.  On a 20x24 float64 array
``np.add(a, 1.0, out=a)`` took 0.60 against 0.41 us,
``np.minimum(a, 709.0, out=a)`` 0.69 against 0.50 us and
``np.divide(1.0, a, out=a)`` 0.84 against 0.67 us (numpy 2.4.6, one BLAS
thread, best of 9x100k); operator forms such as ``1.0 - s`` pay the same.

The one-draw rule: draws with no other draw between them are one call.
PCG64's ``random(a + b)`` gives the uniforms of ``random(a)`` followed by
``random(b)``, so one draw cut into views has the bits of a draw per view.
:func:`cut_masks` is the one function that turns uniforms into masks: it
takes a list of groups, each of one probability, and cuts them in turn from
one draw, and each caller takes every mask it needs from one call (an
update's drop-out groups, with the DHDA's corruption keep-masks between its
two; the fantasy particles' start states).  Each Gibbs sweep draws all of
its blocks at once (kernels, through :func:`split_views`).  A mask, and a
sampled state, is its bool compare assigned into the float64 array it lands
in (``u[...] = u < p``), with no ``astype`` copy: at 1920 entries that took
1.64 us, ``np.less(u, p, out=u)`` 2.12 us, as the ufunc casts its bool
result through a buffer, and ``(u < p).astype(np.float64)`` 2.62 us (numpy
2.4.6, a shared host).

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

Every conditional of both hybrids ends in the sigmoid 1 / (1 +
exp(min(-v, 709))), floored at about 1.2e-308 for v <= -709, with a worst
error of 2.25 ulp (long-double reference, 1M points in [-700, 700]).
:func:`sigmoid_from_negated` takes -v and makes four in-place passes;
:func:`sigmoid` takes v and negates it first, five.  The hidden
conditionals and the recognition layers form -v themselves, in the adds
they make anyway (dhbm.class_drive, dhbm.cond_h, recognition.recognize):
rounding to nearest is symmetric in sign, so fl(-a - b) = -fl(a + b) and
fl(-2 p) = -fl(2 p), and the negated sum has the bits of the negated pass.
Where the sum is an exact zero it is +0 where the negation gave -0, and
exp(+0) = exp(-0) = 1: the same outputs.
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


def split_views(flat, shapes, sizes=None):
    """Consecutive views of the vector `flat`, one of each shape in turn;
    `sizes`, when given, holds each shape's element count."""
    if sizes is None:
        sizes = [math.prod(shape) for shape in shapes]
    views = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def constant(value, dtype=np.float64):
    """`value` as a read-only 0-d array: the operand form of a fixed number
    or of a config value on the predict/update path (the scalar rule in the
    module docstring).  Built once, where its owner is built."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


ZERO = constant(0.0)
ONE = constant(1.0)
TWO = constant(2.0)
NEG_ONE = constant(-1.0)
NEG_TWO = constant(-2.0)
# sigmoid's clamp of -v: exp(709) is finite
_EXP_CLAMP = constant(709.0)
# weighted_rows' labeled-row test, an int64 operand for the int64 labels
_INT_ZERO = constant(0, np.int64)


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
    """Logistic sigmoid of a float64 array of one or more dimensions:
    1 / (1 + exp(min(-v, 709))) in five in-place passes over `out`, the
    negation and then sigmoid_from_negated's four, and no temporary; `out`
    may be v.  The clamp keeps exp() finite: every v <= -709, -inf included,
    gives 1 / (1 + e**709), about 1.2e-308 (exp(v) / (1 + exp(v)) falls to 0
    below about -745).  The worst error against a long-double reference
    over 1M uniform points in [-700, 700] read 2.25 ulp, against 2.11 for
    the sign-masked form: the same bits for v >= 0, at most 3 ulp apart
    below.
    """
    e = np.negative(v, out=out)
    return sigmoid_from_negated(e, out=e)


def sigmoid_from_negated(u, out=None):
    """sigmoid(-u) from the negated pre-activation u = -v: 1 / (1 +
    exp(min(u, 709))) in four in-place passes over `out` (minimum, exp,
    add, divide), the bits of sigmoid(v); `out` may be u."""
    e = np.minimum(u, _EXP_CLAMP, out=out)
    np.exp(e, out=e)
    np.add(e, ONE, out=e)
    return np.divide(ONE, e, out=e)


def sigmoid_prime_from_output(s):
    """Derivative of the sigmoid expressed through its output: s * (1 - s),
    taken as (1 - s) * s in place of the difference (a product of two
    numbers rounds the same in either order)."""
    d = np.subtract(ONE, s)
    return np.multiply(d, s, out=d)


def softmax(v):
    """Shift-invariant softmax along the last axis; rows sum to 1."""
    e = v - np.maximum.reduce(v, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def cut_masks(rng, groups):
    """Every mask of `groups`, a list of (shapes, p, complement), cut in turn
    from one draw: for each group a list of float64 masks of its 2-D shapes,
    1 where a uniform is below p or, with `complement`, at or above it (the
    bits of one minus the mask of the same draw, in one pass).  Each group
    has the bits of a draw of its own, taken in order, and no float64
    temporary is made.  `p` is a number or a 0-d array (see
    :func:`constant`).  A p outside [0, 1], or no generator, raises
    ValueError before anything is drawn."""
    if rng is None:
        raise ValueError("masks need an rng")
    total = 0
    for shapes, p, _ in groups:
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"mask probability must lie in [0, 1], got {p}")
        for rows, cols in shapes:
            total += rows * cols
    u = rng.random(total)
    # the views are cut inline, with no size lists: one group of four 20x24
    # masks took 9.6 against 10.4 us through split_views, MF-CD's two 18.9
    # against 20.7 us and the DHDA's three 27.3 against 31.1 us (numpy
    # 2.4.6, one BLAS thread, a shared two-CPU host)
    cut = []
    lo = 0
    for shapes, p, complement in groups:
        start = lo
        masks = []
        for rows, cols in shapes:
            masks.append(u[lo:lo + rows * cols].reshape(rows, cols))
            lo += rows * cols
        part = u[start:lo]
        part[...] = part >= p if complement else part < p
        cut.append(masks)
    return cut


def as_rows(x):
    """`x` as a 2-D float64 row batch, with the shapes of
    ``np.atleast_2d(np.asarray(x, dtype=np.float64))``: a scalar is one row of
    one, a vector one row, and more dimensions stay.  An array that is
    already 2-D float64 comes back itself, not a copy."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(1, -1) if x.ndim < 2 else x


def weighted_rows(x, labels, lr, beta):
    """(x, labels, labeled-row mask, step weights, n_lab) of the rows of the
    batch `x` that enter a step, given its labels (an array, negative where
    a row is unlabeled): lr/n_lab on each labeled row, lr*beta/n_unlab on
    each unlabeled one, a count of 0 taken as 1.  At beta 0 the unlabeled rows
    weigh nothing and are left out; `x` and `labels` come back as given
    when every row is kept.  Raises ValueError unless `labels` holds one
    label per row."""
    if labels.shape != (len(x),):
        raise ValueError(f"labels of shape {labels.shape} for a batch of "
                         f"{len(x)} rows: one label per row is needed")
    lab = np.greater_equal(labels, _INT_ZERO)
    n_lab = int(np.count_nonzero(lab))
    if beta == 0.0 and n_lab < len(lab):
        x, labels, lab = x[lab], labels[lab], lab[lab]
    return x, labels, lab, np.where(lab, lr / max(n_lab, 1),
                                    lr * beta / max(len(lab) - n_lab, 1)), n_lab


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

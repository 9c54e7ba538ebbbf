"""Activation functions, seeded randomness and the flat parameter layout
shared by every model component.

All arithmetic is double precision.  Randomness is never global: callers
construct a Generator with :func:`make_rng` and pass it explicitly so that
identical seeds reproduce identical runs.
"""

import dataclasses
import math

import numpy as np


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


def bernoulli_mask(rng, rows, cols, keep_prob):
    """Matrix of i.i.d. {0,1} entries with P(1) = keep_prob."""
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError(f"keep_prob must lie in [0, 1], got {keep_prob}")
    return (rng.random((rows, cols)) < keep_prob).astype(np.float64)


def one_hot(indices, n_classes):
    """Rows of the identity: shape indices.shape + (n_classes,), float64."""
    return np.eye(n_classes)[np.asarray(indices, dtype=np.int64)]

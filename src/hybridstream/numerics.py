"""Activation functions, seeded randomness and the flat parameter layout
shared by every model component.

All arithmetic is double precision.  Randomness is never global: callers
construct a Generator with :func:`make_rng` and pass it explicitly so that
identical seeds reproduce identical runs.
"""

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
    sizes = [math.prod(shape) for shape in shapes]
    if data is None:
        data = np.zeros(sum(sizes))
    elif (data.dtype != np.float64 or data.shape != (sum(sizes),)
          or not data.flags.c_contiguous):
        raise ValueError(f"expected a contiguous float64 vector of {sum(sizes)} "
                         f"parameters, got {data.dtype} {data.shape}")
    views = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        views.append(data[offset:offset + size].reshape(shape))
        offset += size
    return data, views


def sigmoid(v):
    """Logistic sigmoid, overflow-safe for |v| up to ~745.

    Branches on the sign of v so exp() is only ever called on non-positive
    arguments.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_prime_from_output(s):
    """Derivative of the sigmoid expressed through its output: s * (1 - s)."""
    return s * (1.0 - s)


def relu(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.maximum(v, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def relu_prime(v):
    return (np.asarray(v, dtype=np.float64) > 0).astype(np.float64)


def softmax(v, axis=-1):
    """Shift-invariant softmax along `axis`; rows sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def bernoulli_mask(rng, rows, cols, keep_prob):
    """Matrix of i.i.d. {0,1} entries with P(1) = keep_prob."""
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError(f"keep_prob must lie in [0, 1], got {keep_prob}")
    return (rng.random((rows, cols)) < keep_prob).astype(np.float64)


def one_hot(indices, n_classes):
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (n_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out

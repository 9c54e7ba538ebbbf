"""IDX (MNIST-style) dataset loading and stratified semi-supervised splits."""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import constant

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# unit_scale's divisor
_PIXEL_MAX = constant(255.0)


class IdxError(ValueError):
    pass


@dataclass
class IdxDataset:
    """Images and labels of an IDX pair.

    The images stay as the file's ``uint8`` pixels, 1 byte each where
    float64 takes 8; ``unit_scale`` turns rows into [0, 1] only when they
    are used: each training batch as it is taken, and the validation and
    test sets in 512-row chunks (``evaluation.test_error``).
    """
    images: np.ndarray  # (N, D) uint8 pixels
    labels: np.ndarray  # (N,) class indices


def unit_scale(pixels):
    """Pixel bytes in [0, 255] as float64 in [0, 1].

    Elementwise, so the rows of a batch get the bits that the whole array's
    ``astype(np.float64) / 255.0`` gives them.
    """
    return np.divide(pixels, _PIXEL_MAX)


def _read_exact(f, n, path, last=False):
    """The next `n` bytes; when `last`, a byte after them is refused too."""
    data = f.read(n + last)
    if len(data) < n:
        raise IdxError(f"{path}: truncated at byte {f.tell() - len(data)} "
                       f"(wanted {n} bytes, got {len(data)})")
    if len(data) > n:
        raise IdxError(f"{path}: bytes after the last record, from byte {f.tell() - 1}")
    return data


def _open(path):
    """The file at `path` for reading; an IdxError naming it if it cannot
    be opened."""
    try:
        return open(path, "rb")
    except OSError as e:
        raise IdxError(f"{path}: {e.strerror}") from e


def load_idx(images_path, labels_path):
    """Big-endian IDX parsing; the images are the file's uint8 pixels.  A
    file shorter or longer than its header's counts is an IdxError."""
    with _open(images_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, images_path))
        if magic != IMAGE_MAGIC:
            raise IdxError(f"{images_path}: bad image magic 0x{magic:08x} at byte 0")
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, images_path))
        raw = _read_exact(f, n * rows * cols, images_path, last=True)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with _open(labels_path) as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        if magic != LABEL_MAGIC:
            raise IdxError(f"{labels_path}: bad label magic 0x{magic:08x} at byte 0")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, labels_path))
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path, last=True),
                               dtype=np.uint8).astype(np.int64)
    if n_labels != n:
        raise IdxError(f"{labels_path}: {n_labels} labels for {n} images")
    return IdxDataset(images, labels)


def mnist_paths(root=None, split="train"):
    """Conventional IDX file locations under a dataset root.

    Falls back to the HYBRIDSTREAM_DATA environment variable.
    """
    root = root or os.environ.get("HYBRIDSTREAM_DATA", ".")
    prefix = "train" if split == "train" else "t10k"
    return (os.path.join(root, f"{prefix}-images-idx3-ubyte"),
            os.path.join(root, f"{prefix}-labels-idx1-ubyte"))


def split_semi_supervised(dataset, n_labeled, n_valid, rng):
    """Class-stratified disjoint (labeled, unlabeled, validation) row
    indices into ``dataset``, each an int64 array.

    Labeled and validation rows come class by class, in each class's
    permuted order; the unlabeled rows are the remainder, ascending.  Only
    indices are made, so no pixel is copied: a run reads its rows from the
    loaded images through them.

    The classes are the non-zero entries of the labels' bincount, in
    ascending order as ``np.unique`` gives them; ``np.unique``'s first
    call imports ``numpy.ma``, about 20 ms of a run's set-up that nothing
    computes with.
    """
    labels = dataset.labels
    classes = np.flatnonzero(np.bincount(labels))
    per_class_lab = n_labeled // len(classes)
    per_class_val = n_valid // len(classes)
    lab_idx, val_idx = [], []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if len(idx) < per_class_lab + per_class_val:
            raise ValueError(f"class {c}: only {len(idx)} samples for "
                             f"{per_class_lab + per_class_val} requested")
        idx = rng.permutation(idx)
        lab_idx.append(idx[:per_class_lab])
        val_idx.append(idx[per_class_lab:per_class_lab + per_class_val])
    lab_idx = np.concatenate(lab_idx)
    val_idx = np.concatenate(val_idx)
    taken = np.zeros(len(labels), dtype=bool)
    taken[lab_idx] = True
    taken[val_idx] = True
    return lab_idx, np.flatnonzero(~taken), val_idx

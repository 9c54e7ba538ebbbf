import struct

import numpy as np
import pytest

from hybridstream.datasets import (IdxDataset, IdxError, load_idx, mnist_paths,
                                   split_semi_supervised, unit_scale)
from hybridstream.numerics import make_rng


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "images"
    lbl_path = tmp_path / "labels"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def test_load_idx_roundtrip(tmp_path):
    rng = make_rng(0)
    images = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    images[0, 0, :2] = 0, 255
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    # the images are the file's bytes; unit_scale gives the [0, 1] rows
    # that the whole-array conversion gives, to the last bit
    assert ds.images.dtype == np.uint8 and ds.images.shape == (5, 12)
    assert np.array_equal(ds.images, images.reshape(5, 12))
    scaled = unit_scale(ds.images)
    assert scaled.dtype == np.float64
    assert scaled.min() == 0.0 and scaled.max() == 1.0
    whole = images.reshape(5, 12).astype(np.float64) / 255.0
    assert np.array_equal(scaled.view(np.int64), whole.view(np.int64))
    every_byte = np.arange(256, dtype=np.uint8)
    assert np.array_equal(unit_scale(every_byte).view(np.int64),
                          (every_byte.astype(np.float64) / 255.0).view(np.int64))
    assert np.array_equal(ds.labels, labels)


def test_load_idx_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                              np.zeros(1, np.uint8))
    data = bytearray(img.read_bytes())
    data[3] = 0x42
    img.write_bytes(bytes(data))
    with pytest.raises(IdxError, match="magic"):
        load_idx(img, lbl)


def test_load_idx_truncated_reports_offset(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8),
                              np.zeros(3, np.uint8))
    img.write_bytes(img.read_bytes()[:-5])
    with pytest.raises(IdxError, match="truncated"):
        load_idx(img, lbl)


@pytest.mark.parametrize("which, end", [("images", 16 + 3 * 4), ("labels", 8 + 3)])
def test_load_idx_trailing_bytes_report_offset(tmp_path, which, end):
    # a byte after the last image or label that the header counts is refused,
    # naming the file and the offset of the first such byte
    paths = dict(zip(("images", "labels"), write_idx_pair(
        tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8))))
    path = paths[which]
    path.write_bytes(path.read_bytes() + bytes(17))
    with pytest.raises(IdxError, match=f"{path}: bytes after .* byte {end}$"):
        load_idx(paths["images"], paths["labels"])


def test_load_idx_count_mismatch(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    img, _ = write_idx_pair(tmp_path / "a", np.zeros((3, 2, 2), np.uint8),
                            np.zeros(3, np.uint8))
    _, lbl = write_idx_pair(tmp_path / "b", np.zeros((2, 2, 2), np.uint8),
                            np.zeros(2, np.uint8))
    with pytest.raises(IdxError, match="labels"):
        load_idx(img, lbl)


@pytest.mark.parametrize("missing", ["images", "labels"])
def test_load_idx_names_a_missing_file(tmp_path, missing):
    # a file that is not there is a data error naming the file, as a
    # truncated one is, not an OSError
    paths = dict(zip(("images", "labels"), write_idx_pair(
        tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))))
    paths[missing].unlink()
    with pytest.raises(IdxError, match=f"{paths[missing]}: No such file"):
        load_idx(paths["images"], paths["labels"])


def test_mnist_paths_env_fallback(monkeypatch):
    monkeypatch.setenv("HYBRIDSTREAM_DATA", "/data/mnist")
    imgs, lbls = mnist_paths(None, "test")
    assert imgs == "/data/mnist/t10k-images-idx3-ubyte"
    assert lbls == "/data/mnist/t10k-labels-idx1-ubyte"
    assert mnist_paths("/other", "train")[0] == "/other/train-images-idx3-ubyte"


def test_split_semi_supervised_stratified_disjoint():
    # int64 row indices, no copies: each class gives its share of labeled
    # and validation rows, the three parts are disjoint and cover every row,
    # and the unlabeled rows are the rest, ascending
    rng = make_rng(1)
    n = 300
    images = rng.random((n, 8))
    labels = np.repeat(np.arange(3), 100)
    ds = IdxDataset(images, labels)
    labeled, unlabeled, validation = split_semi_supervised(ds, 30, 15, rng)
    for part in (labeled, unlabeled, validation):
        assert isinstance(part, np.ndarray) and part.dtype == np.int64
    assert (len(labeled), len(unlabeled), len(validation)) == (30, 255, 15)
    for c in range(3):
        assert np.sum(labels[labeled] == c) == 10
        assert np.sum(labels[validation] == c) == 5
    together = np.concatenate([labeled, unlabeled, validation])
    assert np.array_equal(np.sort(together), np.arange(n))
    assert np.array_equal(unlabeled, np.sort(unlabeled))


def test_split_semi_supervised_with_gaps_between_classes():
    # classes 0, 3 and 7: the split gives the indices of one built on
    # np.unique's class list, class by class in ascending order
    rng = make_rng(2)
    labels = rng.permutation(np.repeat([0, 3, 7], [40, 50, 60]))
    ds = IdxDataset(np.zeros((len(labels), 2), dtype=np.uint8), labels)
    got = split_semi_supervised(ds, 12, 6, make_rng(5))
    ref_rng = make_rng(5)
    lab, val = [], []
    for c in np.unique(labels):
        idx = ref_rng.permutation(np.flatnonzero(labels == c))
        lab.append(idx[:4])
        val.append(idx[4:6])
    lab, val = np.concatenate(lab), np.concatenate(val)
    unlab = np.setdiff1d(np.arange(len(labels)), np.concatenate([lab, val]))
    for part, want in zip(got, (lab, unlab, val)):
        assert part.dtype == np.int64
        assert np.array_equal(part, want)


def test_split_semi_supervised_insufficient_class():
    ds = IdxDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        split_semi_supervised(ds, 4, 2, make_rng(0))

import csv

import numpy as np
import pytest

from hybridstream import evaluation
from hybridstream.evaluation import (CurveWriter, PrequentialState,
                                     prequential_direct, summarize_trials)
from hybridstream.numerics import make_rng


def test_hand_case_alpha_half():
    p = PrequentialState(0.5)
    p.update_many([1.0])
    assert p.update_many([0.0]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_incremental_equals_direct():
    rng = make_rng(0)
    losses = rng.random(1000)
    for alpha in (0.5, 0.9, 0.995):
        p = PrequentialState(alpha)
        incr = p.update_many(losses)
        assert abs(incr - prequential_direct(losses, alpha)) < 1e-12


def test_alpha_one_is_running_mean():
    losses = [1.0, 0.0, 1.0, 1.0]
    p = PrequentialState(1.0)
    assert p.update_many(losses) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.995, 1.0])
def test_update_many_matches_update_bits(alpha):
    # one loss per call and uneven chunks give the same bits, and both the
    # weighted-sum definition
    losses = (make_rng(1).random(500) < 0.3).astype(np.float64)
    one = PrequentialState(alpha)
    errors = [one.update_many([loss]) for loss in losses]
    many = PrequentialState(alpha)
    assert many.update_many(losses[:200]) == errors[199]
    got = many.update_many(losses[200:])
    assert np.float64(got).view(np.int64) == np.float64(errors[-1]).view(np.int64)
    for a, b in ((many.weighted_loss, one.weighted_loss),
                 (many.weighted_count, one.weighted_count)):
        assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64)
    for i in (1, 200, 500):
        assert abs(errors[i - 1] - prequential_direct(losses[:i], alpha)) < 1e-12


@pytest.mark.parametrize("alpha", [0.995, 1.0])
def test_update_many_takes_a_bool_miss_vector_with_the_float_bits(alpha):
    # the stream loop passes its bool miss vector as it is
    misses = make_rng(2).random(500) < 0.3
    bools, floats = PrequentialState(alpha), PrequentialState(alpha)
    for chunk in np.array_split(misses, 7):
        got = bools.update_many(chunk)
        want = floats.update_many(chunk.astype(np.float64))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    for a, b in ((bools.weighted_loss, floats.weighted_loss),
                 (bools.weighted_count, floats.weighted_count)):
        assert type(a) is float
        assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def test_error_undefined_before_samples():
    with pytest.raises(ValueError):
        PrequentialState().error


def test_invalid_alpha():
    with pytest.raises(ValueError):
        PrequentialState(0.0)
    with pytest.raises(ValueError):
        PrequentialState(1.1)


def test_test_error():
    def predict(x):
        return np.tile([0.9, 0.1], (len(x), 1))

    pixels = np.zeros((4, 2), dtype=np.uint8)
    err = evaluation.test_error(predict, pixels, np.array([0, 0, 1, 1]))
    assert err == pytest.approx(0.5)
    with pytest.raises(ValueError):
        evaluation.test_error(predict, pixels[:0], np.array([]))
    with pytest.raises(ValueError, match="3 rows for 4 labels"):
        evaluation.test_error(predict, pixels[:3], np.array([0, 0, 1, 1]))


def test_test_error_scores_in_chunks():
    # 1100 rows: two full chunks and a short one
    rng = make_rng(4)
    pixels = rng.integers(0, 256, (1100, 6), dtype=np.uint8)
    labels = rng.integers(0, 3, 1100)
    seen = []

    def predict(rows):
        # row-wise: each row's scores depend on that row alone
        seen.append(rows)
        return rows[:, :3]

    err = evaluation.test_error(predict, pixels, labels)
    assert [len(rows) for rows in seen] == [512, 512, 76]
    assert evaluation.EVAL_CHUNK_ROWS == 512
    for rows in seen:
        assert rows.dtype == np.float64
        assert rows.min() >= 0.0 and rows.max() <= 1.0
    scaled = pixels.astype(np.float64) / 255.0
    assert np.array_equal(np.concatenate(seen).view(np.int64),
                          scaled.view(np.int64))
    one_pass = float(np.mean(np.argmax(scaled[:, :3], axis=1) != labels))
    assert 0.0 < one_pass < 1.0
    assert type(err) is float
    assert np.float64(err).view(np.int64) == np.float64(one_pass).view(np.int64)


def test_curve_writer_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    with CurveWriter(path) as w:
        w.add(100, "dhbm-mf", 0.25)
        w.add(200, "mlp-pl", 1.0 / 3.0)
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == CurveWriter.HEADER
    assert rows[0] == ["100", "dhbm-mf", "0.25"]
    assert float(rows[1][2]) == 1.0 / 3.0  # repr round-trips


def test_summarize_trials():
    s = summarize_trials({"m": [0.1, 0.2, 0.3]})
    assert s["m"]["mean"] == pytest.approx(0.2)
    assert s["m"]["trials"] == 3
    assert s["m"]["stderr"] == pytest.approx(np.std([0.1, 0.2, 0.3], ddof=1)
                                             / np.sqrt(3))
    single = summarize_trials({"m": [0.4]})
    assert single["m"]["stderr"] == 0.0

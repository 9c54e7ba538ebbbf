import copy
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridstream import streams
from hybridstream.numerics import make_rng


def test_led_digit_seven_segments():
    # noise-free: digit 7 lights exactly segments a, b, c
    assert np.array_equal(streams.LED_SEGMENTS[7], [1, 1, 1, 0, 0, 0, 0])


def test_led_segments_distinct():
    rows = {tuple(r) for r in streams.LED_SEGMENTS}
    assert len(rows) == 10


def test_led_noise_free_decodable():
    cfg = streams.StreamConfig(kind="led", noise_fraction=0.0,
                               drift_attr_count=0)
    stream = streams.make_stream(cfg, make_rng(0))
    batch = stream.next_batch(10_000)
    # nearest-segment decoding is exact without noise
    seg = batch.features[:, :7]
    dists = np.abs(seg[:, None, :] - streams.LED_SEGMENTS[None]).sum(axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), batch.labels)


def test_led_bayes_error_exact_values():
    assert streams.led_bayes_error(0.0) == 0.0
    assert streams.led_bayes_error(0.1) == pytest.approx(0.25998, abs=5e-6)
    # at p = 0.5 every pattern is equally likely under every digit
    assert streams.led_bayes_error(0.5) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("noise", [0.1, 0.25])
def test_led_bayes_error_matches_the_generator(noise):
    # the Bayes classifier picks the digit of highest likelihood, which for
    # p < 1/2 is the one nearest in segment flips; ties cost the same either
    # way.  Its error on 200k generated instances lies within 4 standard
    # errors of the enumerated value.
    cfg = streams.StreamConfig(kind="led", noise_fraction=noise,
                               drift_attr_count=0)
    stream = streams.make_stream(cfg, make_rng(17))
    errors = 0
    n = 200_000
    for _ in range(n // 50_000):
        batch = stream.next_batch(50_000)
        flips = (batch.features[:, None, :7] != streams.LED_SEGMENTS).sum(axis=2)
        errors += int(np.count_nonzero(np.argmin(flips, axis=1) != batch.labels))
    want = streams.led_bayes_error(noise)
    assert abs(errors / n - want) < 4 * np.sqrt(want * (1 - want) / n)


def test_led_feature_space():
    cfg = streams.StreamConfig(kind="led")
    batch = streams.make_stream(cfg, make_rng(1)).next_batch(100)
    assert batch.features.shape == (100, 24)
    assert set(np.unique(batch.features)) <= {0.0, 1.0}
    assert batch.labels.min() >= 0 and batch.labels.max() <= 9


def test_led_noise_rate():
    cfg = streams.StreamConfig(kind="led", noise_fraction=0.1,
                               drift_attr_count=0)
    stream = streams.make_stream(cfg, make_rng(2))
    clean_cfg = streams.StreamConfig(kind="led", noise_fraction=0.0,
                                     drift_attr_count=0)
    clean = streams.make_stream(clean_cfg, make_rng(2))
    noisy_b = stream.next_batch(5000)
    clean_b = clean.next_batch(5000)
    flips = np.mean(noisy_b.features[:, :7] != clean_b.features[:, :7])
    assert abs(flips - 0.1) < 3 * np.sqrt(0.1 * 0.9 / (5000 * 7))


def test_waveform_bases_shape_and_peaks():
    assert streams.WAVEFORM_BASES.shape == (3, 21)
    assert [int(np.argmax(b)) + 1 for b in streams.WAVEFORM_BASES] == [7, 15, 11]
    assert streams.WAVEFORM_BASES.max() == 6.0


def test_waveform_features_unit_interval():
    cfg = streams.StreamConfig(kind="waveform")
    batch = streams.make_stream(cfg, make_rng(3)).next_batch(500)
    assert batch.features.shape == (500, 40)
    assert batch.features.min() >= 0.0
    assert batch.features.max() <= 1.0
    assert set(np.unique(batch.labels)) <= {0, 1, 2}


def test_waveform_instance_pure_function():
    # oracle: each instance from the per-instance formula, drawing from a
    # clone of the stream's generator in _raw_chunk's order (classes, mixing
    # weights, signal noise, pure noise)
    stream = streams.make_stream(streams.StreamConfig(kind="waveform"), make_rng(7))
    clone = copy.deepcopy(stream.rng)
    n = 6
    feats, classes = stream._raw_chunk(n)
    want_classes = clone.integers(0, streams.WAVEFORM_CLASSES, size=n)
    u = clone.random(n)
    eps_signal = clone.standard_normal((n, streams.WAVEFORM_SIGNAL))
    eps_noise = clone.standard_normal(
        (n, streams.WAVEFORM_FEATURES - streams.WAVEFORM_SIGNAL))
    assert np.array_equal(classes, want_classes)
    for i in range(n):
        a, b = streams.WAVEFORM_PAIRS[want_classes[i]]
        signal = u[i] * streams.WAVEFORM_BASES[a] \
            + (1.0 - u[i]) * streams.WAVEFORM_BASES[b] + eps_signal[i]
        raw = np.concatenate([signal, eps_noise[i]])
        assert np.array_equal(feats[i], streams.waveform_normalize(raw))


def test_waveform_normalize_clamps():
    assert streams.waveform_normalize(np.array([-10.0]))[0] == 0.0
    assert streams.waveform_normalize(np.array([20.0]))[0] == 1.0
    assert streams.waveform_normalize(np.array([3.0]))[0] == pytest.approx(0.5)


def test_drift_rotates_attributes():
    cfg = streams.StreamConfig(kind="led", noise_fraction=0.0,
                               drift_attr_count=4, drift_interval=100)
    stream = streams.make_stream(cfg, make_rng(4))
    stream.next_batch(100)
    perm = stream._current_perm()
    assert list(perm[:4]) == [3, 0, 1, 2]
    assert list(perm[4:]) == list(range(4, 24))
    # a full cycle restores the identity
    stream.next_batch(300)
    assert list(stream._current_perm()) == list(range(24))


def test_drift_permutation_matches_roll_formula():
    # at every instance count over two full drift cycles, read in order and
    # then out of order, the permutation rolls the first k attributes by the
    # rotation count
    k, interval = 4, 3
    cfg = streams.StreamConfig(kind="led", drift_attr_count=k,
                               drift_interval=interval)
    stream = streams.make_stream(cfg, make_rng(6))
    counts = list(range(2 * k * interval + 1))
    for i in counts + counts[::-5]:
        stream.instances = i
        want = np.arange(24)
        want[:k] = np.roll(want[:k], (i // interval) % k)
        assert np.array_equal(stream._current_perm(), want)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(streams.STREAMS)), data=st.data())
def test_a_full_drift_cycle_restores_the_attribute_order(kind, data):
    # drift_attr_count * drift_interval instances, drawn in batches cut
    # anywhere, end with the attributes in their first order; every row on
    # the way is permuted by its own instance's rotation.  Each raw row holds
    # the attribute indices, so a row of the batch shows its permutation
    n = streams.STREAMS[kind].n_features
    k = data.draw(st.integers(0, n), label="drift_attr_count")
    interval = data.draw(st.integers(1, 30), label="drift_interval")
    cycle = k * interval
    cuts = data.draw(st.lists(st.integers(1, max(cycle - 1, 1)), unique=True,
                              max_size=20), label="cuts")
    edges = [0] + sorted(c for c in cuts if c < cycle) + [cycle]
    cfg = streams.StreamConfig(kind=kind, drift_attr_count=k,
                               drift_interval=interval)
    stream = streams.make_stream(cfg, make_rng(8))
    stream._raw_chunk = lambda rows: (np.tile(np.arange(n, dtype=np.float64),
                                              (rows, 1)),
                                      np.zeros(rows, dtype=np.int64))
    rows = [stream.next_batch(hi - lo).features
            for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    assert stream.instances == cycle
    assert np.array_equal(stream._current_perm(), np.arange(n))
    assert np.array_equal(stream.next_batch(1).features[0], np.arange(n))
    for i, row in enumerate(np.concatenate(rows) if rows else []):
        want = np.arange(n)
        if k > 1:
            want[:k] = np.roll(want[:k], i // interval)
        assert np.array_equal(row, want)


STREAM_DIGESTS = {
    "led": "adda299b565b131635fc1ddfac0c835494bbefd8379fc51ee0aa4cbbb04614e8",
    "waveform": "d41b8140850a6b20d8d05d301ac2685db63505c8e6c355051ff4d0f69b66d045",
}


@pytest.mark.parametrize("kind", sorted(STREAM_DIGESTS))
def test_stream_bits_pinned(kind):
    # sha256 of 2000 drifting instances drawn in uneven batches, each batch
    # masked as the prequential loop masks it: features, true labels and
    # kept labels.  Recorded before the generators' constants were hoisted
    # and their clipping made in place, which keep every bit
    cfg = streams.StreamConfig(kind=kind, drift_attr_count=7,
                               drift_interval=137, label_fraction=0.3)
    stream = streams.make_stream(cfg, make_rng(21))
    mask_rng = make_rng(22)
    digest = hashlib.sha256()
    for n in itertools.cycle((33, 13, 64, 20, 7, 1)):
        n = min(n, 2000 - stream.instances)
        if n == 0:
            break
        batch = stream.next_batch(n)
        masked = streams.mask_labels(batch, cfg.label_fraction, mask_rng)
        for a in (batch.features, batch.labels, masked.labels):
            digest.update(a.tobytes())
    assert stream.instances == 2000
    assert digest.hexdigest() == STREAM_DIGESTS[kind]


def test_drift_boundary_split_within_batch():
    cfg = streams.StreamConfig(kind="led", noise_fraction=0.0,
                               drift_attr_count=4, drift_interval=10)
    stream = streams.make_stream(cfg, make_rng(5))
    batch = stream.next_batch(25)  # spans two boundaries
    assert len(batch) == 25
    assert stream.instances == 25


def test_mask_labels_rate_and_values():
    cfg = streams.StreamConfig(kind="led")
    batch = streams.make_stream(cfg, make_rng(6)).next_batch(10_000)
    masked = streams.mask_labels(batch, 0.1, make_rng(7))
    frac = np.mean(masked.labels >= 0)
    assert abs(frac - 0.1) < 3 * np.sqrt(0.1 * 0.9 / 10_000)
    kept = masked.labels >= 0
    assert np.array_equal(masked.labels[kept], batch.labels[kept])
    assert (masked.labels[~kept] == -1).all()


def test_stream_config_validation():
    with pytest.raises(ValueError):
        streams.StreamConfig(kind="mystery")
    with pytest.raises(ValueError):
        streams.StreamConfig(noise_fraction=1.5)
    with pytest.raises(ValueError):
        streams.StreamConfig(batch_size=0)


def test_stream_reproducible_from_seed():
    cfg = streams.StreamConfig(kind="waveform")
    a = streams.make_stream(cfg, make_rng(13)).next_batch(50)
    b = streams.make_stream(cfg, make_rng(13)).next_batch(50)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("field, value, message", [
    ("drift_attr_count", 2.5, "must be an integer"),
    ("drift_attr_count", -3, "must be an integer and >= 0"),
    ("drift_attr_count", 25, "exceeds the feature count"),
    ("drift_interval", 0, "must be an integer and >= 1"),
    ("drift_interval", -5, "must be an integer and >= 1"),
    ("batch_size", 2.5, "must be an integer"),
    ("label_fraction", True, "must be finite"),
    ("noise_fraction", "0.1", "must be finite")])
def test_config_refuses_a_value_of_another_type_or_range(field, value, message):
    # a float drift count would fail only at the first drift boundary, a
    # negative one or a drift interval below 1 would silently mean no drift,
    # and LED has 24 attributes to rotate
    with pytest.raises(ValueError, match=f"^{field} {message}"):
        streams.StreamConfig(**{field: value})

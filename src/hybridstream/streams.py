"""Evolving data-stream generators (LED, Waveform) with feature noise,
cyclic-attribute concept drift, and semi-supervised label masking.

Drift model: every `drift_interval` instances the positions of the first
`drift_attr_count` attributes rotate one step among themselves, so the
mapping from generator attributes to feature slots changes over time while
the underlying concept stays recoverable.  A full cycle restores the
original order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import ONE, ZERO, check_fields, constant

# Seven-segment encodings per digit, segment order (a, b, c, d, e, f, g):
# a = top, b = top-right, c = bottom-right, d = bottom, e = bottom-left,
# f = top-left, g = middle.
LED_SEGMENTS = np.array([
    [1, 1, 1, 1, 1, 1, 0],  # 0
    [0, 1, 1, 0, 0, 0, 0],  # 1
    [1, 1, 0, 1, 1, 0, 1],  # 2
    [1, 1, 1, 1, 0, 0, 1],  # 3
    [0, 1, 1, 0, 0, 1, 1],  # 4
    [1, 0, 1, 1, 0, 1, 1],  # 5
    [1, 0, 1, 1, 1, 1, 1],  # 6
    [1, 1, 1, 0, 0, 0, 0],  # 7
    [1, 1, 1, 1, 1, 1, 1],  # 8
    [1, 1, 1, 1, 0, 1, 1],  # 9
], dtype=np.float64)

LED_FEATURES = 24
LED_CLASSES = 10

WAVEFORM_FEATURES = 40
WAVEFORM_SIGNAL = 21
WAVEFORM_CLASSES = 3
# Triangular base waveforms peaking at attributes 7, 15 and 11 (1-based).
_centers = [7, 15, 11]
WAVEFORM_BASES = np.array(
    [[max(6.0 - abs(i - c), 0.0) for i in range(1, WAVEFORM_SIGNAL + 1)]
     for c in _centers])
# Classes combine base pairs (1,2), (1,3), (2,3).
WAVEFORM_PAIRS = [(0, 1), (0, 2), (1, 2)]
# each class's two bases, indexed [class, first or second, attribute]
_PAIR_BASES = WAVEFORM_BASES[np.array(WAVEFORM_PAIRS)]
# Fixed affine normalization: [-3, 9] -> [0, 1], clamped.
WAVEFORM_LO, WAVEFORM_HI = -3.0, 9.0
_WAVEFORM_LO = constant(WAVEFORM_LO)
_WAVEFORM_SPAN = constant(WAVEFORM_HI - WAVEFORM_LO)


@dataclass
class StreamConfig:
    kind: str = "led"
    noise_fraction: float = 0.1
    drift_attr_count: int = 0
    drift_interval: int = 50_000
    label_fraction: float = 0.1
    batch_size: int = 20

    def __post_init__(self):
        check_fields(self, drift_attr_count=0, drift_interval=1, batch_size=1)
        if self.kind not in STREAMS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.drift_attr_count > STREAMS[self.kind].n_features:
            raise ValueError("drift_attr_count exceeds the feature count")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")


@dataclass
class StreamBatch:
    features: np.ndarray
    labels: np.ndarray  # class index per row, -1 = unlabeled

    def __len__(self):
        return self.features.shape[0]


class _DriftingStream:
    """Shared drift/permutation bookkeeping for both generators, which set
    their feature and class counts as class attributes."""

    n_features: int
    n_classes: int

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.instances = 0
        self.perm = np.arange(self.n_features)
        # (rotation, permutation) last built by _current_perm
        self._rotated = (0, self.perm)

    def _current_perm(self):
        """self.perm with its first drift_attr_count entries rolled by the
        rotation count, built once per rotation; self.perm itself, the
        identity, at rotation 0: before the first drift and after each whole
        cycle."""
        k = self.config.drift_attr_count
        rot = self.instances // self.config.drift_interval % k if k > 1 else 0
        if rot == 0:
            return self.perm
        if rot != self._rotated[0]:
            perm = self.perm.copy()
            perm[:k] = np.roll(perm[:k], rot)
            self._rotated = (rot, perm)
        return self._rotated[1]

    def _raw_chunk(self, n):
        raise NotImplementedError

    def next_batch(self, n=None):
        """Next n instances (default: config batch size), drift-boundary exact."""
        n = self.config.batch_size if n is None else n
        feats = []
        labels = []
        remaining = n
        while remaining > 0:
            chunk = remaining
            if self.config.drift_attr_count > 1:
                to_boundary = self.config.drift_interval \
                    - self.instances % self.config.drift_interval
                chunk = min(chunk, to_boundary)
            f, y = self._raw_chunk(chunk)
            perm = self._current_perm()
            if perm is not self.perm:   # the identity's column copy is skipped
                f = f[:, perm]
            feats.append(f)
            labels.append(y)
            self.instances += chunk
            remaining -= chunk
        if len(feats) == 1:
            return StreamBatch(feats[0], labels[0])
        return StreamBatch(np.concatenate(feats), np.concatenate(labels))


class LedStream(_DriftingStream):
    """Noisy 24-attribute LED digit stream: 7 segment attributes plus 17
    irrelevant ones, each independently flipped with probability
    noise_fraction."""

    n_features = LED_FEATURES
    n_classes = LED_CLASSES

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.noise_fraction = constant(config.noise_fraction)

    def _raw_chunk(self, n):
        # the digits and the irrelevant bits in one call: bounded integers
        # of an array of bounds have the values of one call per bound
        draws = self.rng.integers(0, _led_bounds(n))
        digits = draws[:n]
        feats = np.empty((n, LED_FEATURES))
        feats[:, :7] = LED_SEGMENTS[digits]
        feats[:, 7:] = draws[n:].reshape(n, LED_FEATURES - 7)
        if self.config.noise_fraction > 0:
            # 1.0 where an attribute flips, written into its uniform
            flip = self.rng.random((n, LED_FEATURES))
            flip[...] = flip < self.noise_fraction
            np.abs(np.subtract(feats, flip, out=feats), out=feats)
        return feats, digits


@functools.cache
def _led_bounds(n):
    """The exclusive upper bounds of an LED chunk of n rows' draws: n digits
    of LED_CLASSES, then n * 17 irrelevant bits of 2, read-only."""
    bounds = np.empty(n * (LED_FEATURES - 6), dtype=np.int64)
    bounds.fill(2)
    bounds[:n] = LED_CLASSES
    bounds.flags.writeable = False
    return bounds


def led_bayes_error(noise_fraction):
    """Exact error of the Bayes classifier of the LED stream, from the 2^7
    segment patterns each digit shows with every segment flipped with
    probability `noise_fraction`; the other 17 attributes carry no
    information.  Ties cost the same whichever digit they pick."""
    patterns = (np.arange(1 << 7)[:, None] >> np.arange(7)) & 1
    flips = (patterns[:, None, :] != LED_SEGMENTS).sum(axis=2)
    likelihood = noise_fraction ** flips * (1.0 - noise_fraction) ** (7 - flips)
    return 1.0 - float(likelihood.max(axis=1).sum()) / LED_CLASSES


def waveform_normalize(raw):
    """`raw` mapped affinely from [WAVEFORM_LO, WAVEFORM_HI] to [0, 1] and
    clamped there, in one new array."""
    scaled = np.subtract(raw, _WAVEFORM_LO)
    np.divide(scaled, _WAVEFORM_SPAN, out=scaled)
    np.maximum(scaled, ZERO, out=scaled)
    return np.minimum(scaled, ONE, out=scaled)


class WaveformStream(_DriftingStream):
    """Three-class waveform stream: convex combinations of two of three
    triangular bases over 21 attributes plus unit Gaussian noise, 19 pure
    noise attributes, all mapped affinely to [0, 1]."""

    n_features = WAVEFORM_FEATURES
    n_classes = WAVEFORM_CLASSES

    def _raw_chunk(self, n):
        classes = self.rng.integers(0, WAVEFORM_CLASSES, size=n)
        u = self.rng.random((n, 1))
        bases = _PAIR_BASES[classes]
        signal = u * bases[:, 0]
        signal += np.subtract(ONE, u) * bases[:, 1]
        signal += self.rng.standard_normal((n, WAVEFORM_SIGNAL))
        noise = self.rng.standard_normal((n, WAVEFORM_FEATURES - WAVEFORM_SIGNAL))
        feats = waveform_normalize(np.concatenate([signal, noise], axis=1))
        return feats, classes


STREAMS = {"led": LedStream, "waveform": WaveformStream}


def make_stream(config, rng):
    """The configured generator, drawing from `rng`."""
    return STREAMS[config.kind](config, rng)


def mask_labels(batch, label_fraction, rng):
    """Independently keep each row's label with probability label_fraction,
    a number or a 0-d array."""
    if not 0.0 <= float(label_fraction) <= 1.0:
        raise ValueError("label_fraction must lie in [0, 1]")
    keep = np.less(rng.random(len(batch)), label_fraction)
    return StreamBatch(batch.features, np.where(keep, batch.labels, -1))

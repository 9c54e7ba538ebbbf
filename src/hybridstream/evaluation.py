"""Prequential error with exponential forgetting, finite-set test error, and
CSV curve emission.
"""

import csv
import math

import numpy as np

from .datasets import unit_scale
from .numerics import as_rows

# rows per predict call in test_error: far below a 10k-image test set, so the
# float64 rows and the model's activations stay small, and well above the
# batch size, because a model's matmuls can round a small chunk's rows other
# than the whole set's
EVAL_CHUNK_ROWS = 512


class PrequentialState:
    """Memoryless prequential error: S <- a*S + loss, B <- a*B + 1, P = S/B.

    Algebraically identical to the weighted-sum ratio with forgetting factor
    a; at a = 1 it reduces exactly to the running mean.
    """

    def __init__(self, alpha=0.995):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        self.alpha = alpha
        self.weighted_loss = 0.0
        self.weighted_count = 0.0

    @property
    def error(self):
        if self.weighted_count == 0.0:
            raise ValueError("prequential error undefined before any sample")
        return float(self.weighted_loss / self.weighted_count)

    def update_many(self, losses):
        """S <- a*S + loss, B <- a*B + 1 for each loss in turn; returns the
        error after the last one.  A bool miss vector is taken as it is: a
        True adds 1 to the float S exactly as 1.0 does."""
        a = self.alpha
        s, b = self.weighted_loss, self.weighted_count
        for loss in np.asarray(losses).tolist():
            s = a * s + loss
            b = a * b + 1.0
        self.weighted_loss, self.weighted_count = s, b
        return self.error


def prequential_direct(losses, alpha):
    """Direct evaluation of the weighted-sum definition (test oracle)."""
    i = len(losses)
    num = sum(alpha ** (i - k) * losses[k - 1] for k in range(1, i + 1))
    den = sum(alpha ** (i - k) for k in range(1, i + 1))
    return num / den


def test_error(predict_fn, features, labels):
    """Fraction misclassified under argmax prediction.

    `features` are pixel bytes (``IdxDataset.images``).  They are scored in
    chunks of EVAL_CHUNK_ROWS rows, each scaled to [0, 1] by ``unit_scale``
    just before its ``predict_fn`` call.  The count of misses over the
    chunks, divided by the set size, is the mean of a whole-set miss vector
    to the last bit.  The predictions carry no such guarantee: a chunk of
    fewer than about 400 rows, such as a short last one, can get other last
    bits than the same rows inside a whole-set pass, because BLAS takes
    another path for small products.  A near-tie argmax can then move, and
    the error with it.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} rows for {len(labels)} labels")
    wrong = 0
    for start in range(0, len(labels), EVAL_CHUNK_ROWS):
        stop = start + EVAL_CHUNK_ROWS
        probs = as_rows(predict_fn(unit_scale(features[start:stop])))
        wrong += int(np.count_nonzero(probs.argmax(axis=1)
                                      != labels[start:stop]))
    return wrong / len(labels)


class CurveWriter:
    """Append-safe CSV of (iteration, model, prequential error) points."""

    HEADER = ["iteration", "model", "preq_error"]
    FLUSH_EVERY = 100

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(self.HEADER)
        self._pending = 0

    def add(self, iteration, model, value):
        try:
            self._writer.writerow([iteration, model, repr(float(value))])
        except OSError as exc:
            raise OSError(f"writing curve file {self.path}: {exc}") from exc
        self._pending += 1
        if self._pending >= self.FLUSH_EVERY:
            self._file.flush()
            self._pending = 0

    def close(self):
        self._file.flush()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def summarize_trials(final_errors):
    """Mean and standard error per model over trials.

    final_errors: {model: [per-trial final error]}.
    """
    out = {}
    for model, values in final_errors.items():
        v = np.asarray(values, dtype=np.float64)
        stderr = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
        out[model] = {"mean": float(v.mean()), "stderr": stderr,
                      "trials": len(v)}
    return out

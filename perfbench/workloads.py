"""The three benchmark workloads, driven only through hybridstream's public
experiment entry points.

Each workload runs fixed-size *units* in a closed loop until the time budget
is spent; a unit makes its entry-point calls through ``call`` (the
``Recorder.call`` of ``instrument.py``) and returns one :class:`Call` for
each.  Every unit's inputs derive from the workload seed and the unit index.

* ``led-stream``: criterion-6 LED setup; each model kind is its own
  single-trial ``run_stream_trial`` call, timed from outside.
* ``offline-wide``: criterion-7 path (``run_mnist_experiment``) at
  784-256-256-10 on seeded synthetic IDX files; ``dhbm-mf`` and ``mlp-lab``
  are separate calls.
* ``waveform-trials``: criterion-6 Waveform setup, ``dhbm-mf`` and ``mlp-pl``
  sharing each trial's stream, several trials per
  ``run_stream_experiment(jobs=2)`` call.
"""

import glob
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_FILES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}

STREAM_TRAINER = {"lr": 0.051, "beta_f": 0.1, "keep_prob": 0.5, "num_steps": 3}


def derive_seed(*keys):
    """Deterministic 32-bit seed from the workload seed and unit keys."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def stream_config(kind, arch, noise, models, iterations, seed, trials=1):
    # drift every 1000 instances so that the 4-attribute drift happens
    # within a unit; criterion 6 drifts every 50k over 100k instances
    return {
        "stream": {"kind": kind, "noise_fraction": noise, "label_fraction": 0.1,
                   "batch_size": 20, "drift_attr_count": 4,
                   "drift_interval": 1000},
        "architecture": arch, "iterations": iterations, "models": list(models),
        "trainer": dict(STREAM_TRAINER), "seed": seed, "trials": trials,
        "curve_every": 500,
    }


def write_synthetic_idx(root, seed, n_train, n_test):
    """Seeded MNIST-format files: 10 random 28x28 class templates plus noise.

    A template lights a random 18% of the pixels; each image flips 8% of
    its template's pixels, draws lit pixels from [160, 255] and the rest
    from [0, 63].  Labels are balanced across classes.
    """
    rng = np.random.default_rng(derive_seed(seed, 31))
    templates = rng.random((10, 784)) < 0.18
    os.makedirs(root, exist_ok=True)
    for split, n in (("train", n_train), ("test", n_test)):
        labels = rng.permutation(np.arange(n) % 10).astype(np.uint8)
        # uint8 and float32 temporaries keep this below the program's own
        # peak memory
        on = templates[labels] ^ (rng.random((n, 784), dtype=np.float32) < 0.08)
        images = rng.integers(0, 64, (n, 784), dtype=np.uint8)
        images[on] = rng.integers(160, 256, int(on.sum()), dtype=np.uint8)
        images_name, labels_name = IDX_FILES[split]
        with open(os.path.join(root, images_name), "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, n, 28, 28))
            f.write(images.tobytes())
        with open(os.path.join(root, labels_name), "wb") as f:
            f.write(struct.pack(">II", 0x00000801, n))
            f.write(labels.tobytes())


@dataclass
class Call:
    """One timed entry-point call."""
    instances: int          # trial-instances (stream) or training instances
    wall_s: float
    slowdown: float         # host slowdown during the call (Recorder.call)
    cpu_s: float            # the whole call, pool workers' trials included
    path_cpu_s: float       # the caller's CPU plus the busiest pool worker's
    steps_s: dict           # {kind: [CPU seconds of each predict/update step]}
    finals: dict            # {kind: [per-trial error]} as returned
    files: list             # curve and summary CSVs the call wrote

    def cpu_by_kind(self):
        """The call's CPU time split over its model kinds: each kind's own
        steps plus an equal share of the rest (stream, prequential update,
        dispatch, output), so that one kind's step time moves only its
        own share."""
        steps = {k: sum(v) for k, v in self.steps_s.items()}
        shared = (self.cpu_s - sum(steps.values())) / len(steps)
        return {k: v + shared for k, v in steps.items()}


class Workload:
    step_mode = "predict+update"
    # ReferenceLoop(rows, n_in, n_out, iterations, nominal_s) shaped like
    # the workload's layers
    ref_loop = (20, 24, 24, 20, 0.32e-3)

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp

    def prepare(self):
        """Make input files before any timing starts."""

    def setup_spec(self):
        return {"arch": self.arch, "kinds": list(self.kinds),
                "trainer": STREAM_TRAINER}


class LedStream(Workload):
    name = "led-stream"
    arch = "24-24-24-24-24-10"
    kinds = ("dhbm-mf", "dhbm-sap", "dhda", "mlp-pl")
    iterations = 3000

    def config(self, kind, iterations, seed):
        return stream_config("led", self.arch, 0.1, [kind], iterations, seed)

    def unit(self, u, out_dir, experiments, call, **_):
        calls = []
        # rotate the order so no kind always runs first in a round
        order = self.kinds[u % 4:] + self.kinds[:u % 4]
        for kind in order:
            cfg = self.config(kind, self.iterations, self.seed)
            path = os.path.join(out_dir, kind)
            finals, *times = call(experiments.run_stream_trial, cfg, u, path)
            calls.append(Call(self.iterations, *times,
                              {k: [v] for k, v in finals.items()},
                              [os.path.join(path, f"curves_trial{u}.csv")]))
        return calls

    def reference(self, out_dir, experiments):
        files = []
        for kind in self.kinds:
            path = os.path.join(out_dir, kind)
            experiments.run_stream_trial(self.config(kind, 1000, 0), 0, path)
            files.append(os.path.join(path, "curves_trial0.csv"))
        return files


class OfflineWide(Workload):
    name = "offline-wide"
    arch = "784-256-256-10"
    kinds = ("dhbm-mf", "mlp-lab")
    step_mode = "update"
    ref_loop = (10, 784, 256, 1, 0.85e-3)
    # criterion 7's 6 epochs and trainer settings: with t1=3 labeled epochs
    # the first three epochs train at beta=0 and the last three at beta>0.
    # Half the pool is labeled (criterion 7: 1/11).  At 1000 labeled images
    # dhbm-mf reaches a test error near 0 on every seed tried; at 500 it
    # sits on the steep part of its learning curve, between 0.3 and 0.8.
    sizes = {"n_labeled": 1000, "n_unlabeled": 1000, "n_valid": 1000, "epochs": 6,
             "n_train": 3000, "n_test": 2000}
    # the reference run is narrower so that it leaves chance level (and so
    # its test errors respond to arithmetic changes) within a second
    ref_sizes = {"arch": "784-64-64-10", "n_labeled": 300, "n_unlabeled": 100,
                 "n_valid": 100, "epochs": 6, "n_train": 1000, "n_test": 500}

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.data_root = os.path.join(tmp, "idx")

    @property
    def instances(self):
        s = self.sizes
        return s["epochs"] * (s["n_labeled"] + s["n_unlabeled"])

    def prepare(self):
        write_synthetic_idx(self.data_root, self.seed, self.sizes["n_train"],
                            self.sizes["n_test"])

    def setup_spec(self):
        return {"arch": self.arch, "kinds": list(self.kinds),
                "trainer": {"keep_prob": 0.5, "anneal": True},
                "idx_root": self.data_root,
                "split": [self.sizes["n_labeled"], self.sizes["n_valid"]]}

    def config(self, kind, seed, data_root, sizes):
        return {"architecture": sizes.get("arch", self.arch),
                "n_labeled": sizes["n_labeled"],
                "n_unlabeled": sizes["n_unlabeled"], "n_valid": sizes["n_valid"],
                "epochs": sizes["epochs"], "batch_size": 10, "models": [kind],
                "trainer": {"keep_prob": 0.5, "anneal": True}, "seed": seed,
                "trials": 1, "data_root": data_root}

    def unit(self, u, out_dir, experiments, call, **_):
        calls = []
        order = self.kinds if u % 2 == 0 else self.kinds[::-1]
        for kind in order:
            cfg = self.config(kind, derive_seed(self.seed, u), self.data_root,
                              self.sizes)
            path = os.path.join(out_dir, kind)
            finals, *times = call(experiments.run_mnist_experiment, cfg, path)
            calls.append(Call(self.instances, *times, finals,
                              [os.path.join(path, "summary.csv")]))
        return calls

    def reference(self, out_dir, experiments):
        root = os.path.join(out_dir, "idx")
        write_synthetic_idx(root, 0, self.ref_sizes["n_train"],
                            self.ref_sizes["n_test"])
        files = []
        for kind in self.kinds:
            path = os.path.join(out_dir, kind)
            experiments.run_mnist_experiment(
                self.config(kind, 0, root, self.ref_sizes), path)
            files.append(os.path.join(path, "summary.csv"))
        return files


class WaveformTrials(Workload):
    name = "waveform-trials"
    arch = "40-40-40-40-40-3"
    kinds = ("dhbm-mf", "mlp-pl")
    trials = 4
    iterations = 4000
    ref_loop = (20, 40, 40, 20, 0.45e-3)

    def config(self, seed, iterations, trials):
        return stream_config("waveform", self.arch, 0.0, self.kinds, iterations,
                             seed, trials)

    def unit(self, u, out_dir, experiments, call, jobs=2):
        cfg = self.config(derive_seed(self.seed, u), self.iterations, self.trials)
        finals, *times = call(experiments.run_stream_experiment, cfg, out_dir,
                              jobs=jobs)
        return [Call(self.trials * self.iterations, *times, finals,
                     sorted(glob.glob(os.path.join(out_dir, "curves_trial*.csv")))
                     + [os.path.join(out_dir, "summary.csv")])]

    def reference(self, out_dir, experiments):
        experiments.run_stream_experiment(self.config(0, 1000, 2), out_dir, jobs=2)
        return [os.path.join(out_dir, n) for n in
                ("curves_trial0.csv", "curves_trial1.csv", "summary.csv")]


WORKLOADS = {w.name: w for w in (LedStream, OfflineWide, WaveformTrials)}

"""Experiment loops: prequential stream runs and offline MNIST-style runs.

A stream run draws mini-batches from one shared generator, scores every
model on each batch before training on it (test-then-train), and feeds all
models the identical semi-supervised batches.  Iterations count instances.
"""

import json
import os
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import baseline, streams
from .dhbm import HybridParams
from .datasets import load_idx, mnist_paths, split_semi_supervised, unit_scale
from .evaluation import CurveWriter, PrequentialState, summarize_trials, test_error
from .numerics import check_type, constant, make_rng
from .trainer import KINDS, Trainer, TrainerConfig, keep_weakly

STREAM_MODEL_KINDS = (*KINDS, "mlp-pl")
MODEL_KINDS = (*KINDS, "mlp-pl", "mlp-lab")

# the top-level config keys each experiment reads, each with its type, its
# least value (for a count) and whether a run needs it; any other key is an error
Key = namedtuple("Key", "kind least required", defaults=(None, False))
STREAM_KEYS = {"stream": Key(dict, required=True),
               "architecture": Key(str, required=True),
               "iterations": Key(int, 1, required=True),
               "models": Key(list), "trainer": Key(dict), "seed": Key(int, 0),
               "trials": Key(int, 1), "preq_alpha": Key(float),
               "curve_every": Key(int, 1)}
MNIST_KEYS = {"architecture": Key(str, required=True), "n_labeled": Key(int, 1),
              "n_unlabeled": Key(int, 0), "n_valid": Key(int, 1),
              "epochs": Key(int, 1), "batch_size": Key(int, 1),
              "models": Key(list), "trainer": Key(dict), "seed": Key(int, 0),
              "trials": Key(int, 1), "data_root": Key(str)}


def _check_keys(config, known):
    """Refuse a key not in `known`, a missing required key, a value of
    another type or out of range, an empty model list, and a model kind
    build_model lacks or that is listed twice."""
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; "
                         f"known keys are {sorted(known)}")
    missing = [key for key, spec in known.items() if spec.required and key not in config]
    if missing:
        raise ValueError(f"missing config keys {missing}")
    for key, value in config.items():
        check_type(key, value, known[key].kind, known[key].least)
    if not 0.0 < config.get("preq_alpha", 1.0) <= 1.0:
        raise ValueError(f"preq_alpha must lie in (0, 1], got {config['preq_alpha']}")
    models = config.get("models", [])
    if "models" in config and not models:
        raise ValueError("models must list at least one model kind, got []")
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if models.count(kind) > 1:
            raise ValueError(f"model kind {kind!r} is listed "
                             f"{models.count(kind)} times")


def _trainer_config(config, **defaults):
    """The TrainerConfig of `config`'s "trainer" fields over `defaults`."""
    return TrainerConfig(**dict(defaults, **config.get("trainer", {})))


def parse_architecture(arch):
    """'D-H1-...-HL-C' -> (n_visible, hidden_dims, n_classes)."""
    try:
        parts = [int(p) for p in arch.split("-")]
    except ValueError as e:
        raise ValueError(f"architecture {arch!r} has a non-integer size") from e
    if len(parts) < 3:
        raise ValueError(f"architecture {arch!r} needs at least D-H-C")
    if min(parts) < 1:
        raise ValueError(f"architecture {arch!r} has a size below 1")
    return parts[0], parts[1:-1], parts[-1]


def _fit(config, n_inputs, n_classes, source):
    """parse_architecture of config's "architecture", refused unless it maps
    the `n_inputs` inputs of `source` to its `n_classes` classes."""
    dims = parse_architecture(config["architecture"])
    if (dims[0], dims[2]) != (n_inputs, n_classes):
        raise ValueError(f"architecture {config['architecture']!r} does not fit "
                         f"{source}, which has {n_inputs} inputs and {n_classes} classes")
    return dims


def _stream_run(config):
    """(stream config, trainer config, architecture) of a checked config."""
    _check_keys(config, STREAM_KEYS)
    stream_cfg = streams.StreamConfig(**config["stream"])
    source = streams.STREAMS[stream_cfg.kind]
    return stream_cfg, _trainer_config(config), _fit(
        config, source.n_features, source.n_classes, f"the {stream_cfg.kind} stream")


def _offline_run(config, dataset, test_set):
    """(trainer config, architecture, (n_labeled, n_unlabeled, n_valid)) of
    a config checked against its data; n_labeled and n_valid default to
    1000 and n_unlabeled to every row those two leave.  The split takes
    n // classes rows of each class, so an n that is not a multiple of the
    training set's class count is refused: it would take fewer rows than
    the annealing schedule counts, and none below the count; so is an
    n_unlabeled above the rows the split leaves, as it gets fewer."""
    _check_keys(config, MNIST_KEYS)
    n_classes = len(np.unique(dataset.labels))
    sizes = {key: config.get(key, 1000) for key in ("n_labeled", "n_valid")}
    for key, n in sizes.items():
        if n % n_classes:
            raise ValueError(f"{key} must be at least the {n_classes} classes "
                             f"of the training set and a multiple of that "
                             f"count, got {n}")
    n_labeled, n_valid = sizes.values()
    left = len(dataset.labels) - n_labeled - n_valid
    n_unlabeled = config.get("n_unlabeled", left)
    if n_unlabeled > left:
        raise ValueError(f"n_unlabeled must be at most the {left} training "
                         f"rows left after n_labeled and n_valid, got "
                         f"{n_unlabeled}")
    n_labels = int(max(dataset.labels.max(), test_set.labels.max())) + 1
    return (_trainer_config(config, anneal=True, labeled_epoch_size=n_labeled),
            _fit(config, dataset.images.shape[1], n_labels, "the data"),
            (n_labeled, n_unlabeled, n_valid))


class MlpPseudoLabelModel:
    """Adapter giving the baseline MLP the trainer's update/predict surface.

    Like Trainer, it keeps its last predict pass for the next update of the
    same batch, held by a weak reference to that batch (keep_weakly).
    """

    def __init__(self, n_visible, hidden_dims, n_classes, config, rng):
        self.params = baseline.init_mlp(n_visible, hidden_dims, n_classes, rng)
        self.config = config
        self.rng = rng
        # the masks' compare operand and predict's scale
        self.keep_prob = constant(config.keep_prob)
        # keep_weakly(x, mlp_predict(params, x), mlp_first_layer(params, x))
        # of the last predict, until the next update
        self._predicted = None

    def update(self, x, labels):
        """One step on a batch; a negative label marks an unlabeled row.  The
        class probabilities and the unscaled first layer of the last
        predict() give the pseudo-labels and start the forward pass when `x`
        is the array object it was given (and not written since); they are
        dropped either way, and a batch dropped since, or one that takes no
        weak reference, gets a pass of its own."""
        predicted, self._predicted = self._predicted, None
        probs = first = None
        if predicted is not None and predicted[0]() is x:
            probs, first = predicted[1:]
        cfg = self.config
        baseline.mlp_update(self.params, x, labels, cfg.lr, cfg.beta_f,
                            self.keep_prob, self.rng, probs, first)

    def predict(self, x):
        """Eval-mode class probabilities, kept with the unscaled first layer
        for the next update() of `x`, by a weak reference to `x`."""
        self._predicted = None      # freed before the new pass, not after
        first = baseline.mlp_first_layer(self.params, x)
        probs = baseline.mlp_predict(self.params, x, self.keep_prob, first)
        self._predicted = keep_weakly(x, probs, first)
        return probs


def build_model(kind, n_visible, hidden_dims, n_classes, config, rng):
    if kind == "mlp-pl":
        return MlpPseudoLabelModel(n_visible, hidden_dims, n_classes, config, rng)
    if kind == "mlp-lab":
        return MlpPseudoLabelModel(n_visible, hidden_dims, n_classes,
                                   replace(config, beta_f=0.0), rng)
    params = HybridParams.initialize(n_visible, hidden_dims, n_classes, rng)
    return Trainer(kind, params, config, rng)


def run_stream_trial(config, trial, out_dir):
    """One seeded trial; returns {model: final prequential error}."""
    stream_cfg, trainer_cfg, (n_visible, hidden_dims, n_classes) = \
        _stream_run(config)
    trial_seed = config.get("seed", 0) + 1000 * trial
    stream_rng = make_rng(trial_seed)
    stream = streams.make_stream(stream_cfg, stream_rng)
    alpha_err = config.get("preq_alpha", 0.995)
    iterations = config["iterations"]
    curve_every = config.get("curve_every", 1000)
    label_fraction = constant(stream_cfg.label_fraction)
    models = {}
    preq = {}
    for i, kind in enumerate(config.get("models", STREAM_MODEL_KINDS)):
        models[kind] = build_model(kind, n_visible, hidden_dims, n_classes,
                                   trainer_cfg, make_rng(trial_seed + i + 1))
        preq[kind] = PrequentialState(alpha_err)
    os.makedirs(out_dir, exist_ok=True)
    curve_path = os.path.join(out_dir, f"curves_trial{trial}.csv")
    seen = 0
    with CurveWriter(curve_path) as curves:
        next_point = curve_every
        while seen < iterations:
            n = min(stream_cfg.batch_size, iterations - seen)
            batch = stream.next_batch(n)
            masked = streams.mask_labels(batch, label_fraction, stream_rng)
            for kind, model in models.items():
                pred = model.predict(batch.features).argmax(axis=1)
                preq[kind].update_many(pred != batch.labels)
                model.update(masked.features, masked.labels)
            seen += n
            if seen >= next_point or seen >= iterations:
                for kind in models:
                    curves.add(seen, kind, preq[kind].error)
                next_point += curve_every
    return {kind: preq[kind].error for kind in models}


def _echo_config(config, out_dir, trials):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_echo.json"), "w") as f:
        json.dump(dict(config, resolved_trials=trials), f, indent=2, default=str)


def run_stream_experiment(config, out_dir, jobs=1):
    """All trials, on a pool of min(jobs, trials) workers when that is more
    than one; emits per-trial curves, a summary CSV and a config echo."""
    _stream_run(config)
    check_type("jobs", jobs, int, 1)
    trials = config.get("trials", 5)
    _echo_config(config, out_dir, trials)
    finals = {}
    # a pool forks all its workers at its first submit
    workers = min(jobs, trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_worker,
                                    [(config, t, out_dir) for t in range(trials)]))
    else:
        results = [run_stream_trial(config, t, out_dir) for t in range(trials)]
    for res in results:
        for kind, err in res.items():
            finals.setdefault(kind, []).append(err)
    _write_summary(os.path.join(out_dir, "summary.csv"), "final_preq_error",
                   finals)
    return finals


def _write_summary(path, value_name, finals):
    """Per-trial values, then each model's mean and standard error."""
    with open(path, "w") as f:
        f.write(f"model,trial,{value_name}\n")
        for kind, errs in finals.items():
            for t, err in enumerate(errs):
                f.write(f"{kind},{t},{err!r}\n")
        f.write("model,mean,stderr\n")
        for kind, s in summarize_trials(finals).items():
            f.write(f"{kind},{s['mean']!r},{s['stderr']!r}\n")


def _trial_worker(args):
    return run_stream_trial(*args)


def run_mnist_trial(config, trial, dataset, test_set):
    """Offline semi-supervised run with validation-based model selection:
    each model ends with the parameters of its epoch of least validation
    error, the first such epoch on a tie."""
    trainer_cfg, (n_visible, hidden_dims, n_classes), \
        (n_labeled, n_unlabeled, n_valid) = _offline_run(config, dataset, test_set)
    trial_seed = config.get("seed", 0) + 1000 * trial
    lab_idx, unlab_idx, val_idx = split_semi_supervised(
        dataset, n_labeled, n_valid, make_rng(trial_seed))
    # the pool holds row indices into the loaded images, the one copy of
    # the training pixels kept through training and the final test
    # prediction; a batch becomes float64 only when taken
    pool = np.concatenate([lab_idx, unlab_idx[:n_unlabeled]])
    pool_y = np.concatenate([dataset.labels[lab_idx],
                             -np.ones(n_unlabeled, dtype=np.int64)])
    valid_x, valid_y = dataset.images[val_idx], dataset.labels[val_idx]
    batch_size = config.get("batch_size", 10)
    epochs = config.get("epochs", 6)
    results = {}
    for i, kind in enumerate(config.get("models", ["dhbm-mf", "mlp-lab"])):
        model = build_model(kind, n_visible, hidden_dims, n_classes,
                            trainer_cfg, make_rng(trial_seed + i + 1))
        epoch_rng = make_rng(trial_seed + 7919 + i)
        # one snapshot per model, overwritten at each improvement; the first
        # epoch always improves on inf, so it is written before it is read
        params = _param_vectors(model)
        best = [np.empty_like(v) for v in params]
        best_val = np.inf
        for _ in range(epochs):
            order = epoch_rng.permutation(len(pool))
            rows, row_labels = pool[order], pool_y[order]
            for start in range(0, len(order), batch_size):
                stop = start + batch_size
                model.update(unit_scale(dataset.images[rows[start:stop]]),
                             row_labels[start:stop])
            val_err = test_error(model.predict, valid_x, valid_y)
            if val_err < best_val:
                best_val = val_err
                for saved, v in zip(best, params):
                    saved[...] = v
        for v, saved in zip(params, best):
            v[...] = saved
        results[kind] = test_error(model.predict, test_set.images,
                                   test_set.labels)
    return results


def _param_vectors(model):
    if isinstance(model, MlpPseudoLabelModel):
        return [model.params.data]
    return [model.model.data, model.rec.data]


def run_mnist_experiment(config, out_dir):
    _check_keys(config, MNIST_KEYS)
    data_root = config.get("data_root")
    train = load_idx(*mnist_paths(data_root, "train"))
    test = load_idx(*mnist_paths(data_root, "test"))
    _offline_run(config, train, test)
    trials = config.get("trials", 1)
    _echo_config(config, out_dir, trials)
    finals = {}
    for t in range(trials):
        for kind, err in run_mnist_trial(config, t, train, test).items():
            finals.setdefault(kind, []).append(err)
    _write_summary(os.path.join(out_dir, "summary.csv"), "test_error", finals)
    return finals

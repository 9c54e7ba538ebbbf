import concurrent.futures
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from hybridstream import (baseline, dhbm, evaluation, experiments, numerics,
                          recognition)
from hybridstream.datasets import load_idx, mnist_paths, unit_scale
from hybridstream.numerics import make_rng
from hybridstream.streams import StreamConfig
from hybridstream.trainer import TrainerConfig
from test_datasets import write_idx_pair
from test_trainer import learner_state, mixed_batch


def test_parse_architecture():
    assert experiments.parse_architecture("24-24-24-24-24-10") == \
        (24, [24, 24, 24, 24], 10)
    assert experiments.parse_architecture("4-3-2") == (4, [3], 2)
    with pytest.raises(ValueError):
        experiments.parse_architecture("4-2")


@pytest.mark.parametrize("arch", ["24-0-10", "0-24-10", "24-24-0"])
def test_architecture_size_below_one_raises(arch):
    # a zero-unit layer would train every kind to a constant predictor
    with pytest.raises(ValueError, match=arch):
        experiments.parse_architecture(arch)


@pytest.mark.parametrize("arch", ["24-x-10", "24-2.5-10", "24--10"])
def test_architecture_size_not_an_integer_raises(arch):
    with pytest.raises(ValueError, match=re.escape(repr(arch))):
        experiments.parse_architecture(arch)


def no_build(*args, **kwargs):
    raise AssertionError("a model was built")


def small_config(**kw):
    config = {
        "stream": {"kind": "led", "noise_fraction": 0.1, "label_fraction": 0.5,
                   "batch_size": 20},
        "architecture": "24-8-8-10",
        "iterations": 400,
        "curve_every": 100,
        "models": ["dhbm-mf", "mlp-pl"],
        "trainer": {"keep_prob": 0.5},
        "seed": 3,
        "trials": 2,
    }
    config.update(kw)
    return config


def test_run_stream_trial_outputs(tmp_path):
    res = experiments.run_stream_trial(small_config(), 0, str(tmp_path))
    assert set(res) == {"dhbm-mf", "mlp-pl"}
    assert all(0.0 <= v <= 1.0 for v in res.values())
    with open(tmp_path / "curves_trial0.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["iteration", "model", "preq_error"]
    assert rows[-1][0] == "400"
    assert {m for _, m, _ in rows} == {"dhbm-mf", "mlp-pl"}


def test_run_stream_trial_reproducible(tmp_path):
    a = experiments.run_stream_trial(small_config(), 1, str(tmp_path / "a"))
    b = experiments.run_stream_trial(small_config(), 1, str(tmp_path / "b"))
    assert a == b
    assert (tmp_path / "a" / "curves_trial1.csv").read_bytes() == \
        (tmp_path / "b" / "curves_trial1.csv").read_bytes()


def test_run_stream_experiment_summary(tmp_path):
    finals = experiments.run_stream_experiment(small_config(), str(tmp_path))
    assert len(finals["dhbm-mf"]) == 2
    summary = (tmp_path / "summary.csv").read_text()
    assert "dhbm-mf" in summary
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    assert echo["resolved_trials"] == 2
    assert os.path.exists(tmp_path / "curves_trial1.csv")


@pytest.mark.parametrize("trials, jobs, workers", [(1, 3, None), (2, 5, 2)])
def test_trial_pool_is_sized_to_the_trials(trials, jobs, workers, tmp_path,
                                           monkeypatch):
    # a pool forks all its workers at its first submit: no more workers than
    # trials, and no pool for one
    opened = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    config = small_config(trials=trials, iterations=100)
    serial = experiments.run_stream_experiment(config, str(tmp_path / "serial"))
    assert opened == []
    pooled = experiments.run_stream_experiment(config, str(tmp_path / "pooled"),
                                               jobs=jobs)
    assert opened == ([] if workers is None else [workers])
    assert pooled == serial
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == sorted(os.listdir(tmp_path / "pooled"))
    for name in names:
        assert (tmp_path / "pooled" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes()


def test_summary_numbers_are_plain_floats(tmp_path):
    finals = experiments.run_stream_experiment(small_config(iterations=100),
                                               str(tmp_path))
    rows = [line.split(",") for line in
            (tmp_path / "summary.csv").read_text().splitlines()
            if not line.startswith("model,")]
    assert len(rows) == 2 * 2 + 2       # a row per model and trial, a mean row per model
    numbers = [float(v) for row in rows for v in row[1:]]
    assert finals["dhbm-mf"][0] in numbers


def test_all_model_kinds_build():
    from hybridstream.trainer import TrainerConfig
    from hybridstream.numerics import make_rng
    cfg = TrainerConfig()
    for kind in ("dhbm-mf", "dhbm-sap", "dhda", "mlp-pl", "mlp-lab"):
        model = experiments.build_model(kind, 6, [4, 4], 3, cfg, make_rng(0))
        probs = model.predict(np.full((2, 6), 0.5))
        assert probs.shape == (2, 3)
    with pytest.raises(ValueError):
        experiments.build_model("unknown", 6, [4], 3, cfg, make_rng(0))


def test_mlp_lab_ignores_unlabeled():
    from hybridstream.trainer import TrainerConfig
    from hybridstream.numerics import make_rng
    cfg = TrainerConfig(keep_prob=1.0)
    rng = make_rng(1)
    x = rng.random((4, 6))
    y = np.array([0, 1, 2, 0])
    u = rng.random((8, 6))
    a = experiments.build_model("mlp-lab", 6, [4], 3, cfg, make_rng(2))
    b = experiments.build_model("mlp-lab", 6, [4], 3, cfg, make_rng(2))
    a.update(*mixed_batch(x, y, u))
    b.update(x, y)
    assert np.array_equal(a.params.Ws[0], b.params.Ws[0])


@pytest.mark.parametrize("kind", ["dhbm-mf", "dhbm-sap", "dhda", "mlp-pl", "mlp-lab"])
def test_updates_after_the_first_build_no_container(kind, monkeypatch):
    # every model builds its gradient containers with the model and keeps
    # them: no update, the first included, builds a parameter container
    cfg = TrainerConfig(keep_prob=0.5, beta_f=0.3, n_particles=4)
    model = experiments.build_model(kind, 6, [5, 4], 3, cfg, make_rng(30))
    rng = make_rng(31)
    built = []
    flat_views = numerics.flat_views

    def counting(*args, **kwargs):
        built.append(args)
        return flat_views(*args, **kwargs)

    # the modules that import flat_views: numerics builds every DenseParams
    for module in (numerics, dhbm):
        monkeypatch.setattr(module, "flat_views", counting)
    for _ in range(4):
        model.update(*mixed_batch(rng.random((4, 6)), rng.integers(0, 3, 4),
                                  rng.random((3, 6))))
    assert built == []


MODEL_KINDS = ["dhbm-mf", "dhbm-sap", "dhda", "mlp-pl", "mlp-lab"]


@pytest.mark.parametrize("n_labels", [1, 5, 30])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_update_refuses_a_label_count_other_than_the_row_count(kind, n_labels):
    # the MLP would broadcast such labels over the batch and the hybrids fail
    # only after the drop-out draw: every kind refuses them, naming both
    # lengths, before anything is drawn or written
    cfg = TrainerConfig(keep_prob=0.5, beta_f=0.3, n_particles=4)
    model = experiments.build_model(kind, 6, [5, 4], 3, cfg, make_rng(32))
    rng = make_rng(33)
    x, labels = rng.random((20, 6)), rng.integers(-1, 3, n_labels)
    before = learner_state(model)
    with pytest.raises(ValueError, match=rf"\({n_labels},\).* 20 rows"):
        model.update(x, labels)
    assert learner_state(model) == before


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_empty_batch_is_a_noop(kind):
    cfg = TrainerConfig(keep_prob=0.5, beta_f=0.3, n_particles=4)
    model = experiments.build_model(kind, 6, [5, 4], 3, cfg, make_rng(34))
    before = learner_state(model)
    model.update(np.empty((0, 6)), np.empty(0, dtype=int))
    assert learner_state(model) == before


def mlp_model(kind, seed):
    cfg = TrainerConfig(keep_prob=0.5, beta_f=0.3)
    return experiments.build_model(kind, 6, [5, 4], 3, cfg, make_rng(seed))


def test_mlp_update_starts_from_the_kept_first_layer(monkeypatch):
    # predict forms layer 0's unscaled rectified activations once, and the
    # update of the same array starts its drop-out pass from them, unwritten;
    # an equal copy gets a pass of its own
    model = mlp_model("mlp-pl", 92)
    firsts = []
    forward = baseline.mlp_forward

    def recording(params, x, scales, first=None):
        kept = None if first is None else first.copy()
        firsts.append((first, kept))
        return forward(params, x, scales, first)
    monkeypatch.setattr(baseline, "mlp_forward", recording)
    rng = make_rng(93)
    x, labels = mixed_batch(rng.random((4, 6)), rng.integers(0, 3, 4),
                            rng.random((3, 6)))
    for updated, reused in ((x, True), (x.copy(), False)):
        firsts.clear()
        model.predict(x)
        model.update(updated, labels)
        (first, kept), *train = firsts
        assert np.array_equal(first, kept)
        if reused:
            assert len(train) == 1 and train[0][0] is first
            assert np.array_equal(first, kept)
        else:
            assert [f for f, _ in train] == [None, None]


def stream_model(kind, seed):
    cfg = TrainerConfig(keep_prob=0.5, beta_f=0.3, n_particles=4)
    return experiments.build_model(kind, 6, [5, 4], 3, cfg, make_rng(seed))


@pytest.mark.parametrize("kind", experiments.STREAM_MODEL_KINDS)
def test_predict_keeps_no_dropped_batch_alive(kind):
    # the kept pass holds its batch by a weak reference: a batch that its
    # caller drops after predict, as test_error drops each scored chunk, is
    # freed at once
    model = stream_model(kind, 94)
    x = make_rng(95).random((7, 6))
    batch = weakref.ref(x)
    model.predict(x)
    del x
    assert batch() is None


@pytest.mark.parametrize("kind", experiments.STREAM_MODEL_KINDS)
def test_list_batch_predicts_and_keeps_no_pass(kind, monkeypatch):
    # a list takes no weak reference: it predicts the bits of the same rows
    # as an array, and its update makes a pass of its own, where the update
    # of a predicted array takes the kept one
    model = stream_model(kind, 96)
    rng = make_rng(97)
    x, labels = mixed_batch(rng.random((4, 6)), rng.integers(0, 3, 4),
                            rng.random((3, 6)))
    rows = x.tolist()
    want = model.predict(x)
    assert np.array_equal(model.predict(rows).view(np.int64),
                          want.view(np.int64))
    # the pass each kind's predict keeps for the next update of its batch
    module, name = ((baseline, "mlp_predict") if kind == "mlp-pl"
                    else (recognition, "recognize"))
    passes = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        passes.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    model.update(rows, labels)
    assert passes == [name]
    model.predict(x)
    passes.clear()
    model.update(x, labels)
    assert passes == []


def write_tiny_mnist(root, seed=0, n_classes=4, side=6, classes=None):
    """Seeded IDX files under the MNIST names: a random template per class,
    each image flipping a tenth of its template's pixels.  The templates'
    labels are `classes`, 0 to n_classes - 1 when it is None."""
    rng = make_rng(seed)
    templates = rng.random((n_classes, side * side)) < 0.3
    names = np.arange(n_classes) if classes is None else np.asarray(classes)
    for split, n in (("train", 200), ("test", 60)):
        labels = rng.permutation(np.arange(n) % n_classes)
        on = templates[labels] ^ (rng.random((n, side * side)) < 0.1)
        images = np.where(on, 220, 20).reshape(n, side, side)
        tmp = root / split
        tmp.mkdir()
        for written, wanted in zip(write_idx_pair(tmp, images, names[labels]),
                                   mnist_paths(str(root), split)):
            os.replace(written, wanted)


# sha256 of the summary.csv below (test errors 0.3167 for dhbm-mf, 0.0167
# for mlp-lab), recorded when the hybrid's updates at beta 0 came to leave
# the unlabeled rows out, as the MLP's already did: the first epoch runs at
# beta 0 (t1 = 1), and its drop-out draws shrank to the labeled rows.
# dhbm-mf read 0.0167 before, and the mlp-lab line did not change.  Over
# seeds 0-19 of this config dhbm-mf's mean test error went from 0.341 to
# 0.302 (12 seeds better, 7 worse), so the move on seed 5 comes from the
# draws, not from worse learning.  The same under one and two BLAS threads
OFFLINE_SUMMARY_SHA256 = \
    "4da7daee5a673047a0834940ce49d6eee845001887ef2b1c81e6c3670e6c3f57"


def test_run_mnist_experiment_offline_path(tmp_path):
    write_tiny_mnist(tmp_path)
    # labeled epochs of 40 instances: beta leaves 0 after the first epoch
    # (t1 = 1) and reaches beta_f after the second (t2 = 2); one hidden
    # layer, because at this width the MLP's 0.01-std start stays at
    # chance with two
    config = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
              "n_unlabeled": 60, "epochs": 8, "batch_size": 10,
              "models": ["dhbm-mf", "mlp-lab"], "seed": 5, "trials": 1,
              "trainer": {"lr": 0.3, "keep_prob": 0.5, "anneal": True,
                          "t1": 1, "t2": 2},
              "data_root": str(tmp_path)}
    out = tmp_path / "out"
    finals = experiments.run_mnist_experiment(config, str(out))
    assert set(finals) == {"dhbm-mf", "mlp-lab"}
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()
            if not line.startswith("model,")]
    assert len(rows) == 2 + 2
    assert all(0.0 <= float(v) <= 1.0 for row in rows for v in row[1:])
    digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    assert digest == OFFLINE_SUMMARY_SHA256


# the offline sequence of perfbench/setup_probe.py, then one offline run and
# one stream trial, in a fresh interpreter; prints the numpy.ma modules loaded
FRESH_RUN = """
import json, sys
import numpy
from hybridstream import experiments
from hybridstream.numerics import make_rng
from hybridstream.trainer import TrainerConfig
root, out, mnist, stream = sys.argv[1:]
n_visible, hidden, n_classes = experiments.parse_architecture("36-16-4")
for i, kind in enumerate(["dhbm-mf", "mlp-lab"]):
    experiments.build_model(kind, n_visible, hidden, n_classes,
                            TrainerConfig(), make_rng(i + 1))
from hybridstream import datasets
train = datasets.load_idx(*datasets.mnist_paths(root, "train"))
datasets.load_idx(*datasets.mnist_paths(root, "test"))
datasets.split_semi_supervised(train, 40, 20, make_rng(0))
experiments.run_mnist_experiment(json.loads(mnist), out + "/mnist")
experiments.run_stream_trial(json.loads(stream), 0, out + "/stream")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "numpy.ma" or m.startswith("numpy.ma."))))
"""


def test_no_run_imports_numpy_ma(tmp_path):
    # numpy.ma's first import costs about 20 ms of a run's set-up, and no
    # run computes with it; this process has it from the tests' own
    # np.unique calls, so the run is made in a fresh interpreter
    write_tiny_mnist(tmp_path)
    mnist = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
             "n_unlabeled": 20, "epochs": 1, "batch_size": 10,
             "models": ["dhbm-mf", "mlp-lab"], "data_root": str(tmp_path)}
    stream = small_config(iterations=40, trials=1)
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tmp_path), str(tmp_path / "out"),
         json.dumps(mnist), json.dumps(stream)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
    assert (tmp_path / "out" / "mnist" / "summary.csv").stat().st_size > 0


def test_offline_run_counts_only_the_present_classes(tmp_path, monkeypatch):
    # labels 0, 3 and 7 with gaps between them: the split takes n // 3 rows
    # of each present class, so 40 is refused as before and 30 passes every
    # check; the architecture still has one output per label up to the
    # largest
    write_tiny_mnist(tmp_path, n_classes=3, classes=[0, 3, 7])
    monkeypatch.setattr(experiments, "build_model", no_build)
    config = {"architecture": "36-16-8", "n_labeled": 40, "n_valid": 30,
              "epochs": 1, "data_root": str(tmp_path)}
    with pytest.raises(ValueError, match="^n_labeled must be at least the 3 "
                                         "classes of the training set and a "
                                         "multiple of that count, got 40$"):
        experiments.run_mnist_experiment(config, str(tmp_path / "refused"))
    with pytest.raises(AssertionError, match="a model was built"):
        experiments.run_mnist_experiment(dict(config, n_labeled=30),
                                         str(tmp_path / "passed"))


def test_offline_batches_are_scaled_as_taken(tmp_path, monkeypatch):
    # the data stays as bytes; each batch reaching update is float64 and
    # has the bits of the whole-array conversion of its rows
    write_tiny_mnist(tmp_path)
    train = load_idx(*mnist_paths(str(tmp_path), "train"))
    test = load_idx(*mnist_paths(str(tmp_path), "test"))
    assert train.images.dtype == np.uint8
    whole = train.images.astype(np.float64) / 255.0
    converted = {row.tobytes() for row in whole}
    batches = []
    build_model = experiments.build_model

    def recording_build(*args, **kwargs):
        model = build_model(*args, **kwargs)
        update = model.update

        def record(x, labels):
            batches.append(x)
            return update(x, labels)

        model.update = record
        return model

    monkeypatch.setattr(experiments, "build_model", recording_build)
    config = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
              "n_unlabeled": 60, "epochs": 2, "batch_size": 10,
              "models": ["dhbm-mf", "mlp-lab"], "seed": 5}
    experiments.run_mnist_trial(config, 0, train, test)
    assert len(batches) == 2 * 2 * (40 + 60) // 10
    for x in batches:
        assert x.dtype == np.float64 and x.shape == (10, 36)
        assert all(row.tobytes() in converted for row in x)


def parameter_bytes(model):
    return tuple(v.tobytes() for v in model.param_vectors())


def test_offline_run_ends_at_the_best_validation_epoch(tmp_path, monkeypatch):
    # each model's validation error improves after its first epoch in at
    # least two epochs and is worse again at the last, and the test set is
    # scored with the parameters of the best epoch, to the bit: the
    # hybrid's model and recognition vectors, the MLP's one vector
    write_tiny_mnist(tmp_path)
    train = load_idx(*mnist_paths(str(tmp_path), "train"))
    test = load_idx(*mnist_paths(str(tmp_path), "test"))
    scored = {}
    score = experiments.test_error

    def recording(predict, features, labels):
        err = score(predict, features, labels)
        scored.setdefault(predict.__self__, []).append(
            (len(labels), err, parameter_bytes(predict.__self__)))
        return err

    monkeypatch.setattr(experiments, "test_error", recording)
    config = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
              "n_unlabeled": 60, "epochs": 6, "batch_size": 10,
              "models": ["dhbm-mf", "mlp-lab"], "seed": 0,
              "trainer": {"lr": 0.3, "keep_prob": 0.5, "anneal": True,
                          "t1": 1, "t2": 2}}
    experiments.run_mnist_trial(config, 0, train, test)
    assert len(scored) == 2
    for calls in scored.values():
        *epochs, (n_test, _, tested) = calls
        assert [n for n, _, _ in epochs] == [20] * 6 and n_test == 60
        errors = [err for _, err, _ in epochs]
        improved = [e < min(errors[:i]) for i, e in enumerate(errors) if i]
        best = errors.index(min(errors))
        assert sum(improved) >= 2 and errors[-1] > errors[best]
        assert tested == epochs[best][2] != epochs[-1][2]


@pytest.mark.parametrize("key", ["iteration", "label_fraction_uniform"])
def test_unknown_stream_config_key_raises(key, tmp_path):
    config = small_config(**{key: 1})
    with pytest.raises(ValueError, match=key):
        experiments.run_stream_trial(config, 0, str(tmp_path))
    with pytest.raises(ValueError, match=key):
        experiments.run_stream_experiment(config, str(tmp_path))
    assert not os.listdir(tmp_path)


def test_unknown_offline_config_key_raises(tmp_path):
    config = {"architecture": "36-16-4", "epoch": 2, "data_root": str(tmp_path)}
    with pytest.raises(ValueError, match="epoch"):
        experiments.run_mnist_experiment(config, str(tmp_path / "out"))
    # a trial called directly checks its keys too
    write_tiny_mnist(tmp_path)
    with pytest.raises(ValueError, match="epoch"):
        experiments.run_mnist_trial(
            config, 0, load_idx(*mnist_paths(str(tmp_path), "train")),
            load_idx(*mnist_paths(str(tmp_path), "test")))


@pytest.mark.parametrize("key, value, message", [
    ("iterations", 250.9, "must be an integer"),
    ("iterations", "300", "must be an integer"),
    ("iterations", 0, "must be an integer and >= 1"),
    ("seed", 1.9, "must be an integer"),
    ("curve_every", 2.5, "must be an integer"),
    ("curve_every", -100, "must be an integer and >= 1"),
    ("models", "dhbm-mf", "must be a list"),
    ("trials", 0, "must be an integer and >= 1"),
    ("preq_alpha", 0.0, "must lie in"),
    ("preq_alpha", "0.9", "must be finite")])
def test_bad_stream_run_key_is_refused_before_any_build_or_write(
        key, value, message, tmp_path, monkeypatch):
    # int() would truncate 250.9 and read "300"; a string is not a model list
    monkeypatch.setattr(experiments, "build_model", no_build)
    config = small_config(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        experiments.run_stream_trial(config, 0, str(tmp_path))
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        experiments.run_stream_experiment(config, str(tmp_path))
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("key, value, message", [
    ("n_unlabeled", -5, "must be an integer and >= 0"),
    ("n_unlabeled", 30.5, "must be an integer"),
    ("seed", 1.9, "must be an integer"),
    ("epochs", 2.5, "must be an integer"),
    ("batch_size", 0, "must be an integer and >= 1"),
    ("n_labeled", 0, "must be an integer and >= 1"),
    ("n_valid", "20", "must be an integer"),
    ("models", "mlp-lab", "must be a list")])
def test_bad_offline_run_key_is_refused_before_any_build_or_write(
        key, value, message, tmp_path, monkeypatch):
    write_tiny_mnist(tmp_path)
    monkeypatch.setattr(experiments, "build_model", no_build)
    config = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
              "epochs": 1, "data_root": str(tmp_path), key: value}
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        experiments.run_mnist_experiment(config, str(out))
    assert not out.exists()
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        experiments.run_mnist_trial(
            config, 0, load_idx(*mnist_paths(str(tmp_path), "train")),
            load_idx(*mnist_paths(str(tmp_path), "test")))


STREAM_RUN_ERRORS = [
    ({"stream": None}, r"missing config keys \['stream'\]"),
    ({"architecture": None}, r"missing config keys \['architecture'\]"),
    ({"iterations": None}, r"missing config keys \['iterations'\]"),
    ({"models": ["mlp-pl", "nope"]}, "unknown model kind 'nope'"),
    ({"stream": {"kind": "led", "batch_size": 2.5}}, "^batch_size must be"),
    ({"stream": {"kind": "led", "drift_attr_count": 30}}, "drift_attr_count"),
    ({"stream": {"kind": "led", "window": 5}}, "window"),
    ({"trainer": {"lr": -0.1}}, "^lr must be"),
    ({"trainer": {"momentum": 0.9}}, "momentum"),
    ({"architecture": "24-8-12"}, "does not fit the led stream"),
    ({"models": ["dhbm-mf", "mlp-pl", "dhbm-mf"]},
     "^model kind 'dhbm-mf' is listed 2 times"),
    ({"models": []}, r"^models must list at least one model kind, got \[\]$"),
]


@pytest.mark.parametrize("edit, message", STREAM_RUN_ERRORS, ids=[
    "no-stream", "no-architecture", "no-iterations", "bad-kind",
    "stream-batch_size", "stream-drift", "stream-unknown-field", "trainer-lr",
    "trainer-unknown-field", "misfit-architecture", "repeated-kind",
    "empty-models"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_stream_config_is_refused_before_any_build_or_write(
        edit, message, jobs, tmp_path, monkeypatch):
    # the keys, the stream and trainer fields, the model kinds and the fit
    # of the architecture are all checked before config_echo.json
    monkeypatch.setattr(experiments, "build_model", no_build)
    config = {key: value for key, value in small_config(**edit).items()
              if value is not None}
    with pytest.raises((ValueError, TypeError), match=message):
        experiments.run_stream_experiment(config, str(tmp_path), jobs=jobs)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("edit, message", [
    ({"architecture": None}, r"missing config keys \['architecture'\]"),
    ({"models": ["dhbm-mf", "nope"]}, "unknown model kind 'nope'"),
    ({"trainer": {"num_steps": 0}}, "^num_steps must be"),
    ({"trainer": {"momentum": 0.9}}, "momentum"),
    ({"architecture": "36-16-10"}, "does not fit the data"),
    ({"models": ["mlp-lab", "dhbm-mf", "mlp-lab"]},
     "^model kind 'mlp-lab' is listed 2 times"),
    ({"models": []}, r"^models must list at least one model kind, got \[\]$"),
    # the data has 4 classes: 3 labeled or validation rows are 0 of each,
    # and 42 or 22 would be split as 40 or 20
    ({"n_labeled": 3}, "^n_labeled must be at least the 4 classes"),
    ({"n_valid": 3}, "^n_valid must be at least the 4 classes"),
    ({"n_labeled": 42}, "^n_labeled must be .* a multiple of that count, got 42"),
    ({"n_valid": 22}, "^n_valid must be .* a multiple of that count, got 22"),
    # 200 training rows less 40 labeled and 20 validation rows leave 140
    ({"n_unlabeled": 141}, "^n_unlabeled must be at most the 140 training "
                           "rows .*, got 141$"),
    ({"n_unlabeled": 140}, None)],
    ids=["no-architecture", "bad-kind", "trainer-num_steps",
         "trainer-unknown-field", "misfit-architecture", "repeated-kind",
         "empty-models", "n_labeled-below-classes", "n_valid-below-classes",
         "n_labeled-not-a-multiple", "n_valid-not-a-multiple",
         "n_unlabeled-above-the-rows-left", "n_unlabeled-all-rows-left"])
def test_bad_offline_config_is_refused_before_any_build_or_write(
        edit, message, tmp_path, monkeypatch):
    # a message of None marks a config that passes every check: its run
    # writes the echo and gets as far as building a model
    write_tiny_mnist(tmp_path)
    monkeypatch.setattr(experiments, "build_model", no_build)
    config = {"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
              "epochs": 1, "data_root": str(tmp_path), **edit}
    config = {key: value for key, value in config.items() if value is not None}
    out = tmp_path / "out"
    raised, match = (((ValueError, TypeError), message) if message
                     else (AssertionError, "a model was built"))
    with pytest.raises(raised, match=match):
        experiments.run_mnist_experiment(config, str(out))
    assert out.exists() == (message is None)


@pytest.mark.parametrize("jobs", [0, -3, 1.0, True])
def test_bad_jobs_is_refused_before_any_build_or_write(jobs, tmp_path,
                                                       monkeypatch):
    # no run would start, or a float would reach the pool: refused, naming
    # jobs, before config_echo.json
    monkeypatch.setattr(experiments, "build_model", no_build)
    with pytest.raises(ValueError, match=f"^jobs must be an integer and >= 1, "
                                         f"got {jobs!r}$"):
        experiments.run_stream_experiment(small_config(), str(tmp_path),
                                          jobs=jobs)
    assert not os.listdir(tmp_path)


def test_trainer_config_value_of_another_type_raises(tmp_path):
    with pytest.raises(ValueError, match="num_steps"):
        experiments.run_stream_trial(small_config(trainer={"num_steps": 1.5}),
                                     0, str(tmp_path))


@pytest.mark.parametrize("arch", ["24-8-12", "24-8-5", "20-8-10", "40-8-10"])
def test_architecture_must_fit_the_stream(arch, tmp_path):
    # LED has 24 features and 10 classes
    with pytest.raises(ValueError, match="does not fit"):
        experiments.run_stream_trial(small_config(architecture=arch), 0,
                                     str(tmp_path))


@pytest.mark.parametrize("cls, field", [(TrainerConfig, "seed"),
                                        (TrainerConfig, "activation"),
                                        (TrainerConfig, "estimator"),
                                        (StreamConfig, "seed")],
                         ids=["trainer-seed", "trainer-activation",
                              "trainer-estimator", "stream-seed"])
def test_removed_config_fields_raise(cls, field):
    with pytest.raises(TypeError):
        cls(**{field: 0})


@pytest.mark.parametrize("arch", ["36-16-10", "36-16-3", "784-16-4"])
def test_architecture_must_fit_the_images(arch, tmp_path, monkeypatch):
    # the IDX pair holds 6x6 images with labels 0-3: input size and class
    # count are checked before any model is built
    write_tiny_mnist(tmp_path)
    train = load_idx(*mnist_paths(str(tmp_path), "train"))
    test = load_idx(*mnist_paths(str(tmp_path), "test"))

    monkeypatch.setattr(experiments, "build_model", no_build)
    config = {"architecture": arch, "n_labeled": 40, "n_valid": 20, "epochs": 1}
    with pytest.raises(ValueError, match="does not fit"):
        experiments.run_mnist_trial(config, 0, train, test)


@pytest.mark.parametrize("run", ["stream", "offline"])
def test_trainer_estimator_key_raises(run, tmp_path, monkeypatch):
    # the model kind picks the estimator: estimator is no trainer field, and
    # like any unknown field it is refused, by name, before any model is built
    monkeypatch.setattr(experiments, "build_model", no_build)
    trainer_cfg = {"estimator": "sap", "keep_prob": 0.5}
    if run == "stream":
        args = (small_config(models=["dhbm-mf"], trainer=trainer_cfg), 0,
                str(tmp_path))
        trial = experiments.run_stream_trial
    else:
        write_tiny_mnist(tmp_path)
        args = ({"architecture": "36-16-4", "n_labeled": 40, "n_valid": 20,
                 "epochs": 1, "models": ["dhbm-mf"], "trainer": trainer_cfg}, 0,
                load_idx(*mnist_paths(str(tmp_path), "train")),
                load_idx(*mnist_paths(str(tmp_path), "test")))
        trial = experiments.run_mnist_trial
    with pytest.raises(TypeError, match="'estimator'"):
        trial(*args)


# numpy functions whose Python-level wrapper the per-batch path does not
# call: it takes each through its C entry point, the array method, the ufunc
# or the C function, whose bits are the same (numerics' module docstring)
PYTHON_LEVEL_WRAPPERS = ("argmax", "argmin", "atleast_2d", "clip", "dot", "sum",
                         "max", "min", "mean", "cumsum", "full")


def refuse_python_level_wrappers(monkeypatch):
    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"np.{name} called on the per-batch path")
        return wrapper
    for name in PYTHON_LEVEL_WRAPPERS:
        monkeypatch.setattr(np, name, refuse(name))


# the ufuncs the per-batch path calls by name; none of them may get a Python
# number as an operand, which numpy turns into a new 0-d array on every call
# (numerics' scalar rule)
PATH_UFUNCS = ("add", "subtract", "multiply", "divide", "minimum", "maximum",
               "less", "less_equal", "greater_equal", "negative", "exp")


class ScalarRefusingUfunc:
    """A ufunc that raises when a Python int, float or bool is an operand,
    with its reduce and accumulate forwarded."""

    def __init__(self, name, ufunc):
        self.name, self.ufunc = name, ufunc
        self.reduce, self.accumulate = ufunc.reduce, ufunc.accumulate

    def __call__(self, *args, **kwargs):
        for a in args:
            if isinstance(a, (int, float)):
                raise AssertionError(f"np.{self.name} got the Python "
                                     f"{type(a).__name__} {a!r}")
        return self.ufunc(*args, **kwargs)


def refuse_python_scalars(monkeypatch):
    for name in PATH_UFUNCS:
        monkeypatch.setattr(np, name, ScalarRefusingUfunc(name, getattr(np, name)))


def test_scalar_refusing_ufunc_refuses_and_forwards(monkeypatch):
    refuse_python_scalars(monkeypatch)
    a = np.arange(3.0)
    with pytest.raises(AssertionError, match="np.add got the Python float 1.0"):
        np.add(a, 1.0)
    with pytest.raises(AssertionError, match="np.less_equal got the Python int"):
        np.less_equal(a, 0)
    assert np.array_equal(np.add(a, numerics.ONE), a + 1.0)
    assert np.add.reduce(a) == 3.0
    assert np.array_equal(np.add.accumulate(a), [0.0, 1.0, 3.0])


def run_every_kind_on(stream, arch, tmp_path):
    # every kind, with drift rotating the attributes and through a whole
    # cycle, the models built inside the trial
    config = small_config(
        stream={"kind": stream, "label_fraction": 0.5, "drift_attr_count": 2,
                "drift_interval": 50, "batch_size": 20},
        architecture=arch, iterations=220,
        models=list(experiments.STREAM_MODEL_KINDS),
        trainer={"keep_prob": 0.5})
    experiments.run_stream_trial(config, 0, str(tmp_path))


def update_offline(kind, refuse, monkeypatch):
    # the models anneal, as an offline run's do: the batches hold 3, 2 and
    # 6 labeled rows, and labeled epochs of 2 put the first batch before t1,
    # where it trains at beta 0 on its labeled rows alone, the second on
    # the ramp and the third at beta_f (mlp-lab's 0)
    rng = make_rng(3)
    pixels = rng.integers(0, 256, size=(30, 36)).astype(np.uint8)
    labels = np.where(rng.random(30) < 0.5, rng.integers(0, 4, size=30), -1)
    config = TrainerConfig(anneal=True, labeled_epoch_size=2, t1=1, t2=2)
    model = experiments.build_model(kind, 36, [8, 8], 4, config, make_rng(4))
    refuse(monkeypatch)
    betas = [model.update(unit_scale(pixels[start:start + 10]),
                          labels[start:start + 10])["beta"]
             for start in range(0, 30, 10)]
    assert betas == ([0.0] * 3 if kind == "mlp-lab"
                     else [0.0, pytest.approx(0.05), 0.1])
    evaluation.test_error(model.predict, pixels, np.abs(labels))


STREAM_ARCHITECTURES = pytest.mark.parametrize(
    "stream, arch", [("led", "24-8-8-10"), ("waveform", "40-8-8-3")])


@STREAM_ARCHITECTURES
def test_stream_trial_calls_no_python_level_numpy_wrapper(stream, arch,
                                                          tmp_path, monkeypatch):
    refuse_python_level_wrappers(monkeypatch)
    run_every_kind_on(stream, arch, tmp_path)


@STREAM_ARCHITECTURES
def test_stream_trial_hands_no_python_scalar_to_a_ufunc(stream, arch, tmp_path,
                                                        monkeypatch):
    refuse_python_scalars(monkeypatch)
    run_every_kind_on(stream, arch, tmp_path)


@pytest.mark.parametrize("kind", experiments.MODEL_KINDS)
def test_offline_updates_call_no_python_level_numpy_wrapper(kind, monkeypatch):
    update_offline(kind, refuse_python_level_wrappers, monkeypatch)


@pytest.mark.parametrize("kind", experiments.MODEL_KINDS)
def test_offline_updates_hand_no_python_scalar_to_a_ufunc(kind, monkeypatch):
    update_offline(kind, refuse_python_scalars, monkeypatch)

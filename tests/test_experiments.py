import json
import os

import numpy as np
import pytest

from hybridstream import experiments
from hybridstream.evaluation import read_curve


def test_parse_architecture():
    assert experiments.parse_architecture("24-24-24-24-24-10") == \
        (24, [24, 24, 24, 24], 10)
    assert experiments.parse_architecture("4-3-2") == (4, [3], 2)
    with pytest.raises(ValueError):
        experiments.parse_architecture("4-2")


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
    rows = read_curve(tmp_path / "curves_trial0.csv")
    assert rows[-1][0] == 400
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
    a.update(x, y, u)
    b.update(x, y, None)
    assert np.array_equal(a.params.Ws[0], b.params.Ws[0])

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from hybridstream import checks
from hybridstream.cli import main


def test_help_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("stream-run", "mnist-run", "oracle-check", "gradcheck"):
        assert cmd in result.output


def test_oracle_check_passes():
    result = CliRunner().invoke(main, ["oracle-check", "--models", "5"])
    assert result.exit_code == 0
    assert "worst conditional deviation" in result.output


def test_gradcheck_passes():
    result = CliRunner().invoke(main, ["gradcheck"])
    assert result.exit_code == 0
    assert "ok" in result.output
    assert "mf_cd alignment over 30 models" in result.output
    assert "FAIL" not in result.output


def test_gradcheck_fails_on_an_estimate_that_descends(monkeypatch):
    # one model whose MF-CD estimate points away from the exact gradient of
    # log p(x, y) fails the command, and the alignment line says so
    def alignment(n_models, seed):
        joint = np.full(n_models, 0.9)
        joint[3] = -0.1
        return {"joint": joint, "conditional": np.full(n_models, 0.5)}
    monkeypatch.setattr(checks, "estimator_alignment", alignment)
    result = CliRunner().invoke(main, ["gradcheck"])
    assert result.exit_code == 1
    assert re.search(r"^mf_cd alignment over 30 models: .* min -0\.100, .*"
                     r"\[FAIL\]$", result.output, re.M), result.output


def test_stream_run_small(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [
        "stream-run", "--out", str(out), "--iterations", "200",
        "--trials", "1", "--stream", "led", "--models", "mlp-pl",
        "--seed", "4"])
    assert result.exit_code == 0, result.output
    assert (out / "summary.csv").exists()
    assert (out / "curves_trial0.csv").exists()
    assert "mlp-pl" in result.output


def test_stream_run_config_file_with_overrides(tmp_path):
    cfg = {
        "stream": {"kind": "led", "label_fraction": 0.5},
        "architecture": "24-6-6-10",
        "iterations": 100,
        "models": ["mlp-pl"],
        "trials": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "stream-run", "--config", str(cfg_path), "--out", str(out),
        "--seed", "9"])
    assert result.exit_code == 0, result.output
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["seed"] == 9
    assert echo["architecture"] == "24-6-6-10"


@pytest.mark.parametrize("file_config, architecture", [
    # an explicit architecture survives --stream
    ({"stream": {"kind": "waveform"}, "architecture": "40-10-3"}, "40-10-3"),
    # the default follows the stream kind --stream sets
    ({"stream": {"kind": "led"}}, "40-40-40-3"),
], ids=["explicit-kept", "default-follows-stream"])
def test_stream_run_architecture_after_stream_override(tmp_path, file_config,
                                                       architecture):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_config))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "stream-run", "--config", str(cfg_path), "--out", str(out),
        "--stream", "waveform", "--iterations", "40", "--trials", "1",
        "--models", "mlp-pl"])
    assert result.exit_code == 0, result.output
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["architecture"] == architecture


def test_stream_run_requires_iterations(tmp_path):
    result = CliRunner().invoke(main, ["stream-run", "--out", str(tmp_path)])
    assert result.exit_code != 0
    assert "iterations" in result.output


@pytest.mark.parametrize("command, text, key", [
    ("stream-run", json.dumps({"stream": {"kind": "led"}, "iterations": 200,
                               "curve_every": 2.5}), "curve_every"),
    ("stream-run", json.dumps({"stream": {"kind": "led", "batch_size": 0},
                               "iterations": 200}), "batch_size"),
    ("stream-run", json.dumps({"stream": {"kind": "led"}, "iterations": 200,
                               "models": ["nope"]}), "nope"),
    ("stream-run", json.dumps({"stream": {"kind": "led"}, "iterations": 200,
                               "models": []}), "models"),
    ("stream-run", json.dumps({"stream": {"kind": "led"}, "iterations": 200,
                               "trainer": {"momentum": 0.9}}), "momentum"),
    ("stream-run", json.dumps({"stream": {"kind": "led"}, "iterations": 200,
                               "trainer": {"alpha": 0.5}}), "alpha"),
    ("mnist-run", json.dumps({"epochs": 0}), "epochs"),
    ("stream-run", '{"stream": {"kind": "led"}, "iterations": 200', "cfg.json"),
    ("stream-run", "[]", "cfg.json"),
    ("mnist-run", '["epochs"]', "cfg.json"),
    ("stream-run", '{"stream": "led", "iterations": 200}', "stream must"),
    ("stream-run", '{"stream": ["led"], "iterations": 200}', "stream must")],
    ids=["run-key", "stream-field", "model-kind", "empty-models",
         "trainer-field", "trainer-alpha", "offline",
         "not-json", "list-config", "offline-list-config", "stream-string",
         "stream-list"])
def test_bad_config_is_a_usage_error(tmp_path, command, text, key):
    # the config file's raw text: exit code 2 and a one-line message naming
    # the key or the file, no traceback and no output file ("stream must",
    # since the usage line names the stream-run command)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", str(cfg_path),
                                       "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert key in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, jobs):
    # exit code 2 and a message naming jobs, no traceback and no output file
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "stream-run", "--out", str(out), "--iterations", "200", "--trials", "1",
        "--models", "mlp-pl", "--jobs", jobs])
    assert result.exit_code == 2, result.output
    assert f"jobs must be an integer and >= 1, got {jobs}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_mnist_run_without_idx_files_is_a_usage_error(tmp_path):
    # a data root without the IDX files: exit code 2 and a one-line message
    # naming the first file looked for, no traceback and no output file
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["mnist-run", "--out", str(out),
                                       "--data-root", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert str(tmp_path / "train-images-idx3-ubyte") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()

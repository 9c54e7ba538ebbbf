import dataclasses
import hashlib
import json
import re
import struct

import numpy as np
import pytest

from hybridstream import dhbm, serialize, trainer
from hybridstream.numerics import make_rng
from test_trainer import mixed_batch


def random_model(seed=0):
    params = dhbm.HybridParams.initialize(4, [3, 2], 3, make_rng(seed),
                                          weight_std=0.5)
    params.b_class[...] = make_rng(seed + 1).normal(0, 1, 3)
    return params


# sha256 of a checkpoint built from fixed seeds (the version-2 byte format,
# its TrainerConfig included), and of its arrays alone: the trained state
PINNED_SHA256 = "c7499fce49d399d198ff9a9200926659e259b372b07dd91af17551152bbde8c5"
ARRAYS_SHA256 = "4e37a1b4e01ead695f0e056095a6d9515c50ba1c5bb9ad085de3f6fd7897d6b8"


def trainer_after_updates(cfg):
    tr = trainer.Trainer(random_model(7), cfg, make_rng(8))
    rng = make_rng(9)
    for _ in range(5):
        tr.update(*mixed_batch(rng.random((3, 4)), rng.integers(0, 3, 3),
                               rng.random((2, 4))))
    return tr


def sap_trainer_after_updates():
    return trainer_after_updates(
        trainer.TrainerConfig(estimator="sap", n_particles=4))


def saved_bytes(tmp_path, tr):
    path = tmp_path / "whole.hsck"
    serialize.save_checkpoint(path, tr)
    return path.read_bytes()


def kept_state(tr):
    """The raw bytes of every array a checkpoint keeps, then the generator
    state and both counters."""
    arrays = [tr.model.data, tr.rec.data]
    if tr.particles is not None:
        arrays += [tr.particles.x, *tr.particles.hs, tr.particles.y]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            tr.rng.bit_generator.state, tr.labeled_seen, tr.updates)


def test_checkpoint_bytes_pinned(tmp_path):
    tr = sap_trainer_after_updates()
    data = saved_bytes(tmp_path, tr)
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256
    start = 8 + struct.unpack_from("<I", data, 4)[0]
    assert hashlib.sha256(data[start:]).hexdigest() == ARRAYS_SHA256


def test_checkpoint_resumes_identically(tmp_path):
    for cfg in (trainer.TrainerConfig(estimator="mf-cd"),
                trainer.TrainerConfig(estimator="mf-bp"),
                trainer.TrainerConfig(estimator="sap", n_particles=4)):
        tr = trainer_after_updates(cfg)
        path = tmp_path / f"{cfg.estimator}.hsck"
        serialize.save_checkpoint(path, tr)
        resumed = serialize.load_checkpoint(path)
        assert resumed.config == cfg
        assert kept_state(resumed) == kept_state(tr), cfg.estimator
        # continuing both must keep every array, the generator and the
        # counters bit-identical
        rng = make_rng(10)
        for _ in range(3):
            batch = mixed_batch(rng.random((3, 4)), rng.integers(0, 3, 3),
                                rng.random((2, 4)))
            tr.update(*batch)
            resumed.update(*batch)
            assert kept_state(resumed) == kept_state(tr), cfg.estimator


def test_checkpoint_cut_at_any_length_is_refused(tmp_path):
    tr = sap_trainer_after_updates()
    data = saved_bytes(tmp_path, tr)
    path = tmp_path / "cut.hsck"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serialize.load_checkpoint(path)


def test_checkpoint_trailing_byte_is_refused(tmp_path):
    tr = sap_trainer_after_updates()
    path = tmp_path / "padded.hsck"
    path.write_bytes(saved_bytes(tmp_path, tr) + b"\0")
    with pytest.raises(ValueError, match="1 bytes after its last array"):
        serialize.load_checkpoint(path)


def with_header(data, change):
    """The checkpoint `data` with its header replaced by change(header)."""
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = change(json.loads(data[8:8 + hlen]))
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + hlen:]


def test_version_1_checkpoint_is_refused_naming_both_versions(tmp_path):
    tr = sap_trainer_after_updates()
    # the version-1 header: byte counts of nested containers
    v1 = {"version": 1, "model_bytes": 0, "rec_bytes": 0, "particle_bytes": 0,
          "particles": None, "labeled_seen": 0, "updates": 0,
          "rng_state": tr.rng.bit_generator.state}
    path = tmp_path / "v1.hsck"
    path.write_bytes(with_header(saved_bytes(tmp_path, tr), lambda _: v1))
    with pytest.raises(ValueError, match="version 1.*version 2"):
        serialize.load_checkpoint(path)


@pytest.mark.parametrize("change, message", [
    (lambda h: b"{not json", "unreadable checkpoint header"),
    (lambda h: b"[2]", "unreadable checkpoint header"),
    (lambda h: {k: v for k, v in h.items() if k != "n_particles"},
     "lacks \\['n_particles'\\]"),
    (lambda h: dict(h, hidden_dims=[]), "dimension"),
    (lambda h: dict(h, n_visible=-4), "dimension"),
    (lambda h: dict(h, hidden_dims=[3, 2.0]), "dimension"),
    (lambda h: dict(h, hidden_dims=[10 ** 9, 2]), "cut short"),
    (lambda h: dict(h, updates=-1), "counter"),
    (lambda h: dict(h, rng_state={"bit_generator": "MT19937"}),
     "generator state"),
    (lambda h: {k: v for k, v in h.items() if k != "config"},
     "lacks \\['config'\\]"),
    (lambda h: dict(h, config=[0.051]), "config refused"),
    (lambda h: dict(h, config=dict(h["config"], learning_rate=0.5)),
     "config refused.*learning_rate"),
    (lambda h: dict(h, config={k: v for k, v in h["config"].items()
                               if k != "lr"}), "lacks a TrainerConfig field"),
    (lambda h: dict(h, config=dict(h["config"], lr=-1.0)),
     "config refused: lr must be finite"),
    (lambda h: dict(h, config=dict(h["config"], lr="fast")), "config refused"),
    (lambda h: dict(h, config=dict(h["config"], num_steps=1.5)),
     "config refused: num_steps must be an integer"),
], ids=["not-json", "not-an-object", "missing-key", "no-hidden-layer",
        "negative-dimension", "float-dimension", "outgrows-the-file",
        "negative-counter", "other-generator", "no-config",
        "config-not-an-object", "unknown-config-key", "missing-config-field",
        "bad-config-value", "config-value-of-another-type",
        "non-integral-num-steps"])
def test_bad_header_is_refused(tmp_path, change, message):
    tr = sap_trainer_after_updates()
    path = tmp_path / "bad.hsck"
    path.write_bytes(with_header(saved_bytes(tmp_path, tr), change))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
        serialize.load_checkpoint(path)


@pytest.mark.parametrize("config", [
    trainer.TrainerConfig(estimator="mf-cd"),
    trainer.TrainerConfig(estimator="mf-bp"),
    trainer.TrainerConfig(estimator="sap", n_particles=5),
], ids=["mf-cd", "mf-bp", "sap-5-particles"])
def test_sap_checkpoint_rejects_other_config(tmp_path, config):
    # a stored config that does not fit the file's particle block
    tr = sap_trainer_after_updates()
    path = tmp_path / "ckpt.hsck"
    path.write_bytes(with_header(saved_bytes(tmp_path, tr), lambda h: dict(
        h, config=dataclasses.asdict(config))))
    with pytest.raises(ValueError, match="fantasy particles"):
        serialize.load_checkpoint(path)


def test_non_sap_checkpoint_rejects_sap_config(tmp_path):
    cfg = trainer.TrainerConfig(estimator="mf-cd")
    tr = trainer.Trainer(random_model(7), cfg, make_rng(8))
    tr.update(make_rng(9).random((3, 4)), np.array([0, 1, 2]))
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, tr)
    assert serialize.load_checkpoint(path).particles is None
    sap = dataclasses.asdict(trainer.TrainerConfig(estimator="sap"))
    path.write_bytes(with_header(path.read_bytes(),
                                 lambda h: dict(h, config=sap)))
    with pytest.raises(ValueError, match="fantasy particles"):
        serialize.load_checkpoint(path)


def test_checkpoint_resumes_under_its_own_config(tmp_path):
    # the file carries its TrainerConfig, every field off its default: a
    # resume cannot pick up other settings
    cfg = trainer.TrainerConfig(
        lr=0.2, alpha=0.5, beta_f=0.3, num_steps=2, estimator="mf-bp",
        keep_prob=0.8, corruption_p=0.3, n_particles=3, anneal=True, t1=1.0,
        t2=5.0, labeled_epoch_size=7)
    assert all(getattr(cfg, f.name) != f.default
               for f in dataclasses.fields(cfg))
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, trainer_after_updates(cfg))
    assert serialize.load_checkpoint(path).config == cfg


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.hsck"
    path.write_bytes(b"WHAT" + b"\0" * 8)
    with pytest.raises(ValueError):
        serialize.load_checkpoint(path)

import hashlib
import io
import struct

import numpy as np
import pytest

from hybridstream import dhbm, serialize, trainer
from hybridstream.numerics import make_rng
from hybridstream.recognition import init_from_model
from test_trainer import mixed_batch


def random_model(seed=0):
    params = dhbm.HybridParams.initialize(4, [3, 2], 3, make_rng(seed),
                                          weight_std=0.5)
    params.b_class[...] = make_rng(seed + 1).normal(0, 1, 3)
    return params


# sha256 of containers built from fixed seeds: the version-1 byte format,
# which must not change without a version bump.  The checkpoint's was
# re-recorded when the learning rate moved into the row weights and SAP's
# phases into one signed pass, which changes the trained parameters, not
# the format
PINNED_SHA256 = {
    "params": "f29c187250f27a284d6e462d042fc54e33c5db3599377eba6f26b1ab9cf8b3c5",
    "rec": "fe95028ca841485a6876059608c011b730daf3a0850d2620712f8f15c7af1026",
    "checkpoint": "74b31086d43c353212e8d319b249d883537a1c602e0725506024f88d46eaba82",
}


def sap_trainer_after_updates():
    cfg = trainer.TrainerConfig(estimator="sap", n_particles=4)
    tr = trainer.Trainer(random_model(7), cfg, make_rng(8))
    rng = make_rng(9)
    for _ in range(5):
        tr.update(*mixed_batch(rng.random((3, 4)), rng.integers(0, 3, 3),
                               rng.random((2, 4))))
    return cfg, tr


def test_params_bytes_pinned():
    buf = io.BytesIO()
    serialize.dump_params(random_model(), buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PINNED_SHA256["params"]


def test_rec_bytes_pinned():
    buf = io.BytesIO()
    serialize.dump_rec(init_from_model(random_model()), buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PINNED_SHA256["rec"]


def test_checkpoint_bytes_pinned(tmp_path):
    _, tr = sap_trainer_after_updates()
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, tr)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        PINNED_SHA256["checkpoint"]


def test_params_roundtrip():
    params = random_model()
    buf = io.BytesIO()
    serialize.dump_params(params, buf)
    buf.seek(0)
    loaded = serialize.load_params(buf)
    for a, b in zip(params.layers, loaded.layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.b_hidden, b.b_hidden)
        assert np.array_equal(a.b_visible, b.b_visible)
    assert np.array_equal(params.b_class, loaded.b_class)


def test_params_bad_magic():
    with pytest.raises(ValueError):
        serialize.load_params(io.BytesIO(b"XXXX" + b"\0" * 32))


def test_params_truncated():
    params = random_model()
    buf = io.BytesIO()
    serialize.dump_params(params, buf)
    data = buf.getvalue()[:-8]
    with pytest.raises(ValueError, match="truncated"):
        serialize.load_params(io.BytesIO(data))


def test_rec_roundtrip():
    rec = init_from_model(random_model(3))
    buf = io.BytesIO()
    serialize.dump_rec(rec, buf)
    buf.seek(0)
    loaded = serialize.load_rec(buf)
    for a, b in zip(rec.layers, loaded.layers):
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.b, b.b)


def test_rec_rejects_unchained_shapes():
    buf = io.BytesIO()
    buf.write(serialize.REC_MAGIC)
    buf.write(struct.pack("<II", serialize.VERSION, 2))
    buf.write(struct.pack("<IIII", 3, 4, 2, 5))   # layer 1 expects 5 inputs, not 3
    buf.write(b"\0" * 8 * (3 * 4 + 3 + 2 * 5 + 2))
    buf.seek(0)
    with pytest.raises(ValueError, match="chain"):
        serialize.load_rec(buf)


def test_checkpoint_resumes_identically(tmp_path):
    cfg, tr = sap_trainer_after_updates()
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, tr)
    resumed = serialize.load_checkpoint(path, cfg, trainer.Trainer)
    assert resumed.updates == tr.updates
    assert resumed.labeled_seen == tr.labeled_seen
    assert np.array_equal(resumed.particles.x, tr.particles.x)
    # continuing both must produce bit-identical parameters
    x = make_rng(10).random((3, 4))
    y = np.array([0, 1, 2])
    tr.update(x, y)
    resumed.update(x, y)
    assert np.array_equal(tr.model.layers[0].W, resumed.model.layers[0].W)
    assert np.array_equal(tr.particles.x, resumed.particles.x)


@pytest.mark.parametrize("config", [
    trainer.TrainerConfig(estimator="mf-cd"),
    trainer.TrainerConfig(estimator="mf-bp"),
    trainer.TrainerConfig(estimator="sap", n_particles=5),
], ids=["mf-cd", "mf-bp", "sap-5-particles"])
def test_sap_checkpoint_rejects_other_config(tmp_path, config):
    _, tr = sap_trainer_after_updates()
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, tr)
    with pytest.raises(ValueError, match="fantasy particles"):
        serialize.load_checkpoint(path, config, trainer.Trainer)


def test_non_sap_checkpoint_rejects_sap_config(tmp_path):
    cfg = trainer.TrainerConfig(estimator="mf-cd")
    tr = trainer.Trainer(random_model(7), cfg, make_rng(8))
    tr.update(make_rng(9).random((3, 4)), np.array([0, 1, 2]))
    path = tmp_path / "ckpt.hsck"
    serialize.save_checkpoint(path, tr)
    assert serialize.load_checkpoint(path, cfg, trainer.Trainer).particles is None
    with pytest.raises(ValueError, match="fantasy particles"):
        serialize.load_checkpoint(
            path, trainer.TrainerConfig(estimator="sap"), trainer.Trainer)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.hsck"
    path.write_bytes(b"WHAT" + b"\0" * 8)
    with pytest.raises(ValueError):
        serialize.load_checkpoint(path, trainer.TrainerConfig(),
                                  trainer.Trainer)

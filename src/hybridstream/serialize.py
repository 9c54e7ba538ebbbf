"""Binary parameter containers and training checkpoints.

Parameter container layout (little-endian): magic, version, layer count L,
class count C, visible dimension D, the L hidden dimensions, then the
float64 payload: the model's flat parameter vector, whose layout (per layer
W, U, b_hidden, b_visible; then the class bias, each row-major) is
HybridParams'.  Recognition containers likewise hold a header of per-layer
R shapes and the network's flat vector (per layer R, b).

A checkpoint bundles model + recognition parameters, fantasy particles,
the rng state and step counters in one file.
"""

import io
import json
import struct

import numpy as np

from .dhbm import HybridParams
from .estimators import FantasyParticles
from .recognition import RecognitionParams

PARAM_MAGIC = b"HSPM"
REC_MAGIC = b"HSRP"
CHECKPOINT_MAGIC = b"HSCK"
VERSION = 1


def _write_array(f, arr):
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(f, shape):
    count = int(np.prod(shape))
    data = f.read(count * 8)
    if len(data) != count * 8:
        raise ValueError("truncated parameter container")
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


def dump_params(params, f):
    f.write(PARAM_MAGIC)
    f.write(struct.pack("<III", VERSION, params.n_layers, params.n_classes))
    f.write(struct.pack("<I", params.n_visible))
    for h in params.hidden_dims:
        f.write(struct.pack("<I", h))
    _write_array(f, params.data)


def load_params(f):
    if f.read(4) != PARAM_MAGIC:
        raise ValueError("not a hybrid parameter container")
    version, n_layers, n_classes = struct.unpack("<III", f.read(12))
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    (n_visible,) = struct.unpack("<I", f.read(4))
    hidden = [struct.unpack("<I", f.read(4))[0] for _ in range(n_layers)]
    params = HybridParams.from_dims(n_visible, hidden, n_classes)
    params.data[...] = _read_array(f, params.data.shape)
    return params


def dump_rec(rec, f):
    f.write(REC_MAGIC)
    f.write(struct.pack("<II", VERSION, rec.n_layers))
    for layer in rec.layers:
        f.write(struct.pack("<II", *layer.R.shape))
    _write_array(f, rec.data)


def load_rec(f):
    if f.read(4) != REC_MAGIC:
        raise ValueError("not a recognition parameter container")
    version, n_layers = struct.unpack("<II", f.read(8))
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    shapes = [struct.unpack("<II", f.read(8)) for _ in range(n_layers)]
    if not shapes or any(s[1] != below[0] for below, s in zip(shapes, shapes[1:])):
        raise ValueError(f"recognition layer shapes {shapes} do not chain")
    rec = RecognitionParams.from_dims(shapes[0][1], [s[0] for s in shapes])
    rec.data[...] = _read_array(f, rec.data.shape)
    return rec


def save_checkpoint(path, trainer):
    """Model, recognition net, particles, rng state and counters in one file."""
    model_buf = io.BytesIO()
    dump_params(trainer.model, model_buf)
    rec_buf = io.BytesIO()
    dump_rec(trainer.rec, rec_buf)
    particles = trainer.particles
    part_buf = io.BytesIO()
    part_meta = None
    if particles is not None:
        _write_array(part_buf, particles.x)
        for h in particles.hs:
            _write_array(part_buf, h)
        part_buf.write(np.ascontiguousarray(particles.y, dtype="<i8").tobytes())
        part_meta = {"m": particles.n_particles,
                     "hidden": [h.shape[1] for h in particles.hs],
                     "visible": particles.x.shape[1]}
    header = json.dumps({
        "version": VERSION,
        "model_bytes": model_buf.tell(),
        "rec_bytes": rec_buf.tell(),
        "particle_bytes": part_buf.tell(),
        "particles": part_meta,
        "labeled_seen": trainer.labeled_seen,
        "updates": trainer.updates,
        "rng_state": _jsonable(trainer.rng.bit_generator.state),
    }).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(model_buf.getvalue())
        f.write(rec_buf.getvalue())
        f.write(part_buf.getvalue())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def load_checkpoint(path, config, trainer_cls):
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode())
        model = load_params(io.BytesIO(f.read(header["model_bytes"])))
        rec = load_rec(io.BytesIO(f.read(header["rec_bytes"])))
        part_buf = io.BytesIO(f.read(header["particle_bytes"]))
    meta = header["particles"]
    # the particle block is the one trace of the estimator in the file: only
    # SAP keeps particles, as many as its config asks for
    held = 0 if meta is None else meta["m"]
    needed = config.n_particles if config.estimator == "sap" else 0
    if held != needed:
        raise ValueError(f"{path}: checkpoint holds {held} fantasy particles, "
                         f"a {config.estimator} config needs {needed}")
    rng = np.random.Generator(np.random.PCG64())
    trainer = trainer_cls(model, config, rng)
    # reset after construction: building a SAP trainer draws from the rng
    rng.bit_generator.state = header["rng_state"]
    trainer.rec = rec
    trainer.labeled_seen = header["labeled_seen"]
    trainer.updates = header["updates"]
    if meta is not None:
        m = meta["m"]
        x = _read_array(part_buf, (m, meta["visible"]))
        hs = [_read_array(part_buf, (m, h)) for h in meta["hidden"]]
        y = np.frombuffer(part_buf.read(m * 8), dtype="<i8").copy()
        trainer.particles = FantasyParticles(x, hs, y)
    return trainer

"""Training checkpoints: a Trainer's state in one file, format version 2.

Layout: the magic ``HSCK``, the header length as a little-endian uint32,
and a JSON header holding the version, the trainer's ``TrainerConfig``
(``config``), the model's dimensions (``n_visible``, ``hidden_dims``,
``n_classes``), the fantasy-particle count (0 unless SAP), the counters
``labeled_seen`` and ``updates`` and the generator state.  The raw
little-endian arrays follow in a fixed order: the model's flat vector
(``HybridParams.data``), the recognition net's (``DenseParams.data``) and,
for SAP, the particles' x, each h^l and y (``<i8``); the others are
``<f8``.  Every array's size follows from the dimensions, so the header
holds no byte counts, and a file with fewer or more bytes than they give is
refused.
"""

import dataclasses
import json
import struct

import numpy as np

from .dhbm import HybridParams
from .numerics import split_views
from .trainer import Trainer, TrainerConfig

CHECKPOINT_MAGIC = b"HSCK"
VERSION = 2
_HEADER_INTS = ("n_visible", "n_classes", "n_particles", "labeled_seen",
                "updates")


def _is_int(value, least):
    return type(value) is int and value >= least


def _float_arrays(trainer):
    """The checkpoint's float64 arrays, in file order."""
    arrays = [trainer.model.data, trainer.rec.data]
    if trainer.particles is not None:
        arrays += [trainer.particles.x, *trainer.particles.hs]
    return arrays


def save_checkpoint(path, trainer):
    """Model, recognition net, particles, rng state and counters in one file."""
    model, particles = trainer.model, trainer.particles
    header = json.dumps({
        "version": VERSION,
        "config": dataclasses.asdict(trainer.config),
        "n_visible": model.n_visible,
        "hidden_dims": model.hidden_dims,
        "n_classes": model.n_classes,
        "n_particles": 0 if particles is None else particles.n_particles,
        "labeled_seen": trainer.labeled_seen,
        "updates": trainer.updates,
        "rng_state": trainer.rng.bit_generator.state,
    }, default=int).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
        for arr in _float_arrays(trainer):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if particles is not None:
            f.write(np.ascontiguousarray(particles.y, dtype="<i8").tobytes())


def load_checkpoint(path):
    """The Trainer that save_checkpoint wrote, under the config it carries.

    Raises ValueError naming `path` when the file is not a whole version-2
    checkpoint (a bad magic or header, another version, a config with a
    missing, unknown or bad field, an array cut short or a byte after the
    last one) and when its particle count does not fit its config: only a
    SAP config takes particles, as many as its n_particles.
    """
    with open(path, "rb") as f:
        blob = f.read()

    def refused(reason):
        return ValueError(f"{path}: {reason}")

    if blob[:4] != CHECKPOINT_MAGIC:
        raise refused("not a checkpoint")
    if len(blob) < 8:
        raise refused("cut inside the header length")
    start = 8 + struct.unpack_from("<I", blob, 4)[0]
    try:
        header = json.loads(blob[8:start])
        version = header.get("version")
    except (ValueError, AttributeError) as e:
        raise refused("unreadable checkpoint header") from e
    if version != VERSION:
        raise refused(f"checkpoint format version {version!r}; this reader "
                      f"takes version {VERSION}")
    missing = [k for k in ("config", *_HEADER_INTS, "hidden_dims", "rng_state")
               if k not in header]
    if missing:
        raise refused(f"checkpoint header lacks {missing}")
    try:
        config = TrainerConfig(**header["config"])
    except (TypeError, ValueError) as e:
        raise refused(f"checkpoint config refused: {e}") from e
    if dataclasses.asdict(config) != header["config"]:
        raise refused("checkpoint config lacks a TrainerConfig field")
    hidden = header["hidden_dims"]
    n_visible, n_classes, held, labeled_seen, updates = (
        header[k] for k in _HEADER_INTS)
    if not (isinstance(hidden, list) and hidden
            and all(_is_int(v, 1) for v in [n_visible, n_classes, *hidden])
            and all(_is_int(v, 0) for v in (held, labeled_seen, updates))):
        raise refused("checkpoint header dimensions must be positive integers "
                      "and its counters non-negative integers")
    # the particle block is the one trace of the estimator in the file: only
    # SAP keeps particles, as many as its config asks for
    needed = config.n_particles if config.estimator == "sap" else 0
    if held != needed:
        raise refused(f"checkpoint holds {held} fantasy particles, "
                      f"a {config.estimator} config needs {needed}")
    # the weights alone bound the arrays' size from below: a header whose
    # dimensions outgrow the file is refused before anything is allocated
    below = [n_visible, *hidden[:-1]]
    if 8 * sum(h * (b + n_classes) for h, b in zip(hidden, below)) > len(blob):
        raise refused("cut short: its dimensions need more bytes than it holds")
    rng = np.random.Generator(np.random.PCG64())
    trainer = Trainer(HybridParams.from_dims(n_visible, hidden, n_classes),
                      config, rng)
    arrays = _float_arrays(trainer)
    n_floats = sum(arr.size for arr in arrays)
    extra = len(blob) - start - 8 * (n_floats + held)
    if extra < 0:
        raise refused(f"cut {-extra} bytes short of its last array")
    if extra > 0:
        raise refused(f"{extra} bytes after its last array")
    floats = np.frombuffer(blob, dtype="<f8", count=n_floats, offset=start)
    for arr, saved in zip(arrays, split_views(floats, [a.shape for a in arrays])):
        arr[...] = saved
    if held:
        trainer.particles.y[...] = np.frombuffer(
            blob, dtype="<i8", count=held, offset=start + 8 * n_floats)
    try:
        # set after construction: building a SAP trainer draws from the rng
        rng.bit_generator.state = header["rng_state"]
    except (ValueError, KeyError, TypeError) as e:
        raise refused("unreadable generator state") from e
    trainer.labeled_seen = labeled_seen
    trainer.updates = updates
    return trainer

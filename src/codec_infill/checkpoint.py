"""Versioned binary checkpoint container.

Layout: magic ``CILM``, u32 format version, u64 header length, a
canonical JSON header (sorted keys, no whitespace) describing the model
config, training step, rng state and tensor table, then the raw tensor
bytes concatenated in the documented parameter order.  Writing the same
state twice produces identical bytes.  A save writes a temporary file
beside the target and renames it over the target, so a save whose
process fails or is stopped partway leaves the previous checkpoint
whole (the file is not synced to disk, so a power loss may not).
Loading checks the length of every read, rejects bytes after the last
tensor and checks every tensor's name, shape and dtype against the
config before reading its bytes, so
a truncated, corrupt or mis-shaped file raises :class:`InvalidInputError`,
as does a header whose step is not an integer >= 0 or whose rng state is
neither null nor a state ``np.random.PCG64`` takes.
Files written while the model still had an attention key bias carry ``layer<i>.attn.bk``
tensors; loading drops them, since the softmax cancels a key bias.
Every head is a two-layer FFN block; headers written while the head
depth was a setting carry ``"head_mlp_layers": 2``, which loads, and any
other depth raises :class:`InvalidInputError`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .jsonio import config_from_json, config_to_json
from .model import ModelConfig, ModelState, parameter_shapes

MAGIC = b"CILM"
FORMAT_VERSION = 1


def save_checkpoint(path, state: ModelState, rng_state: dict | None = None) -> None:
    tensors = []
    blobs = []
    for name in parameter_shapes(state.config):
        arr = np.ascontiguousarray(state.params[name])
        tensors.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "config": config_to_json(state.config),
        "step": state.step,
        "rng_state": rng_state,
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")  # never matches the ``ckpt_*.bin`` of a run
    try:
        with open(partial, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(head)))
            fh.write(head)
            for blob in blobs:
                fh.write(blob)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ModelState, dict | None]:
    """Read a checkpoint; a truncated, malformed, overlong or mis-shaped file raises InvalidInputError."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    offset = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if not 0 <= size <= len(data) - offset:
            raise InvalidInputError(f"checkpoint {path} is truncated in its {what}")
        offset += size
        return data[offset - size:offset]

    if take(len(MAGIC), "magic") != MAGIC:
        raise InvalidInputError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "format version"))
    if version != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {version}")
    (head_len,) = struct.unpack("<Q", take(8, "header length"))
    head = take(head_len, "header")
    try:
        header = json.loads(bytes(head).decode("utf-8"))
        config = header["config"]
        depth = config.pop("head_mlp_layers", 2) if isinstance(config, dict) else 2
        if depth != 2:
            raise InvalidInputError(f"checkpoint {path} has heads of {depth!r} layers; every head has 2")
        cfg = config_from_json(ModelConfig, config, "config")
        step = header["step"]
        if type(step) is not int or step < 0:
            raise InvalidInputError(f"checkpoint {path} has step {step!r}; a step is an integer >= 0")
        rng_state = header.get("rng_state")
        if rng_state is not None:
            try:  # the generator training resumes takes the state, or rejects it
                np.random.PCG64().state = rng_state
            except (KeyError, TypeError, ValueError) as err:
                raise InvalidInputError(f"checkpoint {path} has an rng_state PCG64 rejects: {err!r}") from err
        specs = [
            (spec["name"], np.dtype(spec["dtype"]), tuple(int(n) for n in spec["shape"]))
            for spec in header["tensors"]
        ]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise InvalidInputError(f"checkpoint {path} has a malformed header: {err!r}") from err
    legacy = lambda name: name.endswith(".attn.bk")  # a key bias the model no longer has
    wanted = [(name, cfg.np_dtype, shape) for name, shape in parameter_shapes(cfg).items()]
    for got, want in itertools.zip_longest((spec for spec in specs if not legacy(spec[0])), wanted):
        if got != want:
            raise InvalidInputError(
                f"checkpoint {path} tensor table does not match the config: it has {got}, the config needs {want}"
            )
    params = {}
    for name, dtype, shape in specs:
        raw = take(math.prod(shape) * dtype.itemsize, f"tensor {name}")
        if not legacy(name):
            params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(data):
        raise InvalidInputError(f"checkpoint {path} has {len(data) - offset} bytes after its last tensor")
    return ModelState(params, cfg, step=step), rng_state

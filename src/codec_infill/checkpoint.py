"""Versioned binary checkpoint container.

Layout: magic ``CILM``, u32 format version, u64 header length, a
canonical JSON header (sorted keys, no whitespace) describing the model
config, training step, rng state and tensor table, then the raw tensor
bytes concatenated in the documented parameter order.  Writing the same
state twice produces identical bytes.  Loading checks the length of every
read, rejects bytes after the last tensor and checks every tensor's
name, shape and dtype against the config, so a truncated, corrupt or
mis-shaped file raises :class:`InvalidInputError`.  Files written while
the model still had an attention key bias carry ``layer<i>.attn.bk``
tensors; loading drops them, since the softmax cancels a key bias.
Every head is a two-layer FFN block; headers written while the head
depth was a setting carry ``"head_mlp_layers": 2``, which loads, and any
other depth raises :class:`InvalidInputError`.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ConfigError, InvalidInputError
from .jsonio import config_from_json, config_to_json
from .model import ModelConfig, ModelState, parameter_names, parameter_shapes

MAGIC = b"CILM"
FORMAT_VERSION = 1


def save_checkpoint(path, state: ModelState, rng_state: dict | None = None) -> None:
    names = parameter_names(state.config)
    tensors = []
    blobs = []
    for name in names:
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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


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
        step = int(header["step"])
        specs = [
            (spec["name"], np.dtype(spec["dtype"]), tuple(int(n) for n in spec["shape"]))
            for spec in header["tensors"]
        ]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise InvalidInputError(f"checkpoint {path} has a malformed header: {err!r}") from err
    params = {}
    for name, dtype, shape in specs:
        raw = take(math.prod(shape) * dtype.itemsize, f"tensor {name}")
        if not name.endswith(".attn.bk"):  # a key bias the model no longer has
            params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(data):
        raise InvalidInputError(f"checkpoint {path} has {len(data) - offset} bytes after its last tensor")
    shapes = parameter_shapes(cfg)
    if list(params) != list(shapes):
        raise InvalidInputError("checkpoint tensor table does not match the config")
    for name, tensor in params.items():
        if tensor.shape != shapes[name] or tensor.dtype != cfg.np_dtype:
            raise InvalidInputError(
                f"checkpoint tensor {name} is {tensor.dtype} {tensor.shape}; "
                f"the config needs {cfg.np_dtype} {shapes[name]}"
            )
    return ModelState(params, cfg, step=step), header.get("rng_state")

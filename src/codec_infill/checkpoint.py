"""Versioned binary checkpoint container.

Layout (format 2, the only one that loads): magic ``CILM``, u32 format
version, u64 header length, u32 CRC-32 (``zlib.crc32``) of the header,
the header, then the raw tensor bytes in the order of its tensor table.
The header is canonical JSON (sorted keys, no whitespace) holding the model
config, the training step, the data ``cursor`` and the tensor table, one
``{name, dtype, shape, crc32}`` entry per tensor.  A model-only file
has a null cursor and holds the parameters, in the documented parameter
order.  A training checkpoint also holds the rest of a run's state
(:class:`TrainingState`): its cursor, then after the parameters AdamW's
first moments ``adamw.m.<name>`` and second moments ``adamw.v.<name>``,
each in parameter order.  Writing the same state twice produces
identical bytes.  A save writes a temporary file beside the target and
renames it over the target, so a save whose process fails or is stopped
partway leaves the previous checkpoint whole (the file is not synced to
disk, so a power loss may not).

Loading checks the header's CRC before parsing it, the length of every
read, every tensor's name, shape and dtype against the config before
reading its bytes, and each tensor's CRC before using it, and rejects
bytes after the last tensor, so a truncated, corrupt or mis-shaped file
raises :class:`InvalidInputError` naming the header or the tensor, as
does a file of another format version, a header whose config has a
field :class:`ModelConfig` lacks, and a header whose step is not an
integer >= 0 or whose cursor is neither null nor two integers >= 0.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .jsonio import config_from_json, config_to_json
from .model import ModelConfig, ModelState, parameter_shapes

MAGIC = b"CILM"
FORMAT_VERSION = 2


@dataclass
class TrainingState:
    """What a run needs beyond its parameters and step to go on as if unbroken.

    ``cursor`` is the (epoch, offset) at which the next batch starts
    (:func:`codec_infill.train.batch_stream`); ``m`` and ``v`` map each
    parameter name to its AdamW first and second moment.
    """

    cursor: tuple[int, int]
    m: dict
    v: dict


def _tensor_table(cfg: ModelConfig, training: bool) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of a file's tensors in file order: the parameters, then the moments of a training state."""
    params = list(parameter_shapes(cfg).items())
    return params + [(f"adamw.{kind}.{name}", shape) for kind in "mv" for name, shape in params] if training else params


def save_checkpoint(path, state: ModelState, training: TrainingState | None = None) -> None:
    arrays = dict(state.params)
    if training is not None:
        arrays.update((f"adamw.m.{name}", m) for name, m in training.m.items())
        arrays.update((f"adamw.v.{name}", v) for name, v in training.v.items())
    tensors, blobs = [], []
    for name, _ in _tensor_table(state.config, training is not None):
        arr = np.ascontiguousarray(arrays[name])
        tensors.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape), "crc32": zlib.crc32(arr)})
        blobs.append(arr)
    header = {
        "config": config_to_json(state.config),
        "step": state.step,
        "cursor": None if training is None else list(training.cursor),
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")  # never matches the ``ckpt_*.bin`` of a run
    try:
        with open(partial, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQI", FORMAT_VERSION, len(head), zlib.crc32(head)))
            fh.write(head)
            for blob in blobs:
                fh.write(blob)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ModelState, TrainingState | None]:
    """Read a checkpoint; a truncated, corrupt, malformed, overlong, mis-shaped or other-version file raises InvalidInputError.

    The training state is None for a model-only file.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    offset = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if not 0 <= size <= len(data) - offset:
            raise InvalidInputError(f"checkpoint {path} is truncated in its {what}")
        offset += size
        return data[offset - size:offset]

    def check_crc(raw: memoryview, crc, what: str) -> None:
        if zlib.crc32(raw) != crc:
            raise InvalidInputError(f"checkpoint {path} is corrupt: its {what} fails its CRC-32 check")

    if take(len(MAGIC), "magic") != MAGIC:
        raise InvalidInputError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "format version"))
    if version != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {version}")
    (head_len,) = struct.unpack("<Q", take(8, "header length"))
    (head_crc,) = struct.unpack("<I", take(4, "header CRC"))
    head = take(head_len, "header")
    check_crc(head, head_crc, "header")
    try:
        header = json.loads(bytes(head).decode("utf-8"))
        cfg = config_from_json(ModelConfig, header["config"], "config")
        step = header["step"]
        if type(step) is not int or step < 0:
            raise InvalidInputError(f"checkpoint {path} has step {step!r}; a step is an integer >= 0")
        cursor = header["cursor"]
        well_formed = type(cursor) is list and [type(n) for n in cursor] == [int, int] and min(cursor) >= 0
        if cursor is not None and not well_formed:
            raise InvalidInputError(f"checkpoint {path} has cursor {cursor!r}; a cursor is two integers >= 0")
        specs = [
            (spec["name"], np.dtype(spec["dtype"]), tuple(int(n) for n in spec["shape"]))
            for spec in header["tensors"]
        ]
        crcs = [spec["crc32"] for spec in header["tensors"]]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise InvalidInputError(f"checkpoint {path} has a malformed header: {err!r}") from err
    wanted = [(name, cfg.np_dtype, shape) for name, shape in _tensor_table(cfg, cursor is not None)]
    for got, want in itertools.zip_longest(specs, wanted):
        if got != want:
            raise InvalidInputError(
                f"checkpoint {path} tensor table does not match the config: it has {got}, the config needs {want}"
            )
    tensors = {}
    for (name, dtype, shape), crc in zip(specs, crcs):
        raw = take(math.prod(shape) * dtype.itemsize, f"tensor {name}")
        check_crc(raw, crc, f"tensor {name}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(data):
        raise InvalidInputError(f"checkpoint {path} has {len(data) - offset} bytes after its last tensor")
    params = {name: tensors[name] for name in parameter_shapes(cfg)}
    moments = lambda kind: {name: tensors[f"adamw.{kind}.{name}"] for name in params}
    training = None if cursor is None else TrainingState(tuple(cursor), moments("m"), moments("v"))
    return ModelState(params, cfg, step=step), training

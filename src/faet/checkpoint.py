"""Versioned binary checkpoints: config, vocab, and parameter blobs.

Layout: magic "FAET", little-endian u32 format version, length-prefixed
config JSON, length-prefixed vocab JSON, then a u32 parameter count
followed by name/shape/float64 blobs in sorted-name order.  Round-trips
are bitwise exact.  Saves write version 2; version 1 files, whose TextCNN
filters carry their summary columns at every shift, still load (see
`load_checkpoint`).  A save writes a temporary file beside the target and
renames it into place, so a failed save leaves the previous file intact.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import sys

import numpy as np

from .corpus import Vocab
from .model import Model, TrainConfig

MAGIC = b"FAET"
VERSION = 2
# config keys that checkpoints of earlier releases carry and loading drops
RETIRED_CONFIG_FIELDS = ("encoder_mode",)


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def save_checkpoint(model: Model, path: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            _write(fh, model)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write(fh, model: Model) -> None:
    params = model.parameters()
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    for blob in (
        json.dumps(model.config.to_json_dict(), sort_keys=True).encode(),
        json.dumps(model.vocab.to_json_dict(), sort_keys=True,
                   ensure_ascii=False).encode(),
    ):
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
    names = sorted(params)
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        data = params[name].data
        encoded = name.encode()
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", data.ndim))
        for dim in data.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(np.ascontiguousarray(data, dtype="<f8"))


def _read(fh, n: int, what: str) -> bytes:
    # a large size the file claims is checked against what is left of the
    # file before anything is allocated for it
    past_end = (n > io.DEFAULT_BUFFER_SIZE
                and n > os.fstat(fh.fileno()).st_size - fh.tell())
    chunk = b"" if past_end else fh.read(n)
    if len(chunk) != n:
        raise CheckpointError(
            f"{fh.name}: truncated checkpoint while reading {what}")
    return chunk


def _read_header(fh, path: str) -> tuple[int, TrainConfig, Vocab]:
    if _read(fh, 4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a FAET checkpoint")
    (version,) = struct.unpack("<I", _read(fh, 4, "version"))
    if version not in (1, VERSION):
        raise CheckpointError(
            f"{path}: format version {version} unsupported "
            f"(expected 1 or {VERSION})")
    try:
        (n,) = struct.unpack("<Q", _read(fh, 8, "config length"))
        config = TrainConfig.from_json_dict(
            {k: v for k, v in json.loads(_read(fh, n, "config")).items()
             if k not in RETIRED_CONFIG_FIELDS})
        (n,) = struct.unpack("<Q", _read(fh, 8, "vocab length"))
        vocab = Vocab.from_json_dict(json.loads(_read(fh, n, "vocab")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad embedded metadata: {exc}") from exc
    return version, config, vocab


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from file.

    The model is built from the embedded config without drawing a random
    number, and each blob is read straight into its parameter's array.
    Version 1 stored each filter at full width, summary columns at every
    shift, and no `cnn.summary`: its filters are read into arrays of
    their own and set with `TextCnnParams.set_full_width`, which sums the
    copies in shift order as the version 1 forward did.  A
    blob's size is checked against what is left of the file before its
    name and shape are checked against the model; every parameter must
    appear exactly once.
    """
    with open(path, "rb") as fh:
        version, config, vocab = _read_header(fh, path)
        try:
            model = Model.blank(config, vocab)
        except (MemoryError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        params = {name: p.data for name, p in model.parameters().items()}
        cnn = model.cnn
        if version == 1:
            del params["cnn.summary"]
            for w, p in cnn.filters.items():
                params[f"cnn.filters_w{w}"] = np.empty(
                    (cnn.n_filters, p.shape[1] + w * cnn.summary.shape[1]))
        size = os.fstat(fh.fileno()).st_size
        seen = set()
        (count,) = struct.unpack("<I", _read(fh, 4, "parameter count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "name length"))
            try:
                name = _read(fh, name_len, "name").decode()
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"{path}: parameter name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", _read(fh, 1, "ndim"))
            shape = tuple(
                struct.unpack("<Q", _read(fh, 8, "dim"))[0] for _ in range(ndim))
            truncated = (f"{path}: truncated checkpoint while reading data "
                         f"of {name!r}")
            if math.prod(shape) * 8 > size - fh.tell():
                raise CheckpointError(truncated)
            if name not in params:
                raise CheckpointError(f"{path}: unknown parameter {name!r}")
            if name in seen:
                raise CheckpointError(
                    f"{path}: parameter {name!r} appears twice")
            data = params[name]
            if shape != data.shape:
                raise CheckpointError(
                    f"{path}: checkpoint shape {shape} != model shape "
                    f"{data.shape} for {name!r}")
            if fh.readinto(data) != data.nbytes:
                raise CheckpointError(truncated)
            if sys.byteorder == "big":
                data.byteswap(inplace=True)
            seen.add(name)
        if len(seen) != len(params):
            raise CheckpointError(
                f"{path}: missing parameters {sorted(params.keys() - seen)}")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after parameters")
    if version == 1:
        for w in cnn.filters:
            cnn.set_full_width(w, params[f"cnn.filters_w{w}"])
    return model

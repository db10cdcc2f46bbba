"""Binary checkpoints: a JSON header plus raw float64 payloads.

Layout: 8-byte magic, little-endian u32 header length, UTF-8 JSON header,
then the concatenation of all tensors as little-endian float64. The header
carries a ``kind`` tag, arbitrary JSON metadata, and one entry per tensor
(key, shape, offset in floats, count). Writing and reading the same model
is bit-exact because the payload is the raw IEEE-754 bytes.

Every run artifact, checkpoints and text files alike, is written through
:func:`atomic_open`, so an interrupted write never leaves a partial file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, ParseError
from .federation import GlobalModel, Strategy, global_shapes
from .network import ModelSpec
from .numerics import Tensor

MAGIC = b"FBNCKPT1"
FORMAT_VERSION = 2


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a temporary sibling of ``path`` that replaces it on a clean exit.

    Readers see the old file or the whole new one, never a partial write.
    If the block raises, the temporary file is removed and ``path`` is left
    as it was. The temporary name starts with a dot, so it never matches an
    artifact name such as ``report_*.json``. This guards against an
    interrupted process, not against power loss: nothing is fsynced.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_archive(path, kind: str, meta: dict, tensors: dict[str, Tensor]) -> None:
    """Write a tensor map; iteration order of ``tensors`` fixes the layout."""
    entries = []
    blobs = []
    offset = 0
    for key, value in tensors.items():
        arr = np.ascontiguousarray(value, dtype="<f8")
        entries.append(
            {"key": key, "shape": list(arr.shape), "offset": offset, "count": int(arr.size)}
        )
        blobs.append(arr.tobytes())
        offset += arr.size
    header = {"format_version": FORMAT_VERSION, "kind": kind, "meta": meta, "entries": entries}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def read_archive(path) -> tuple[str, dict, dict[str, Tensor]]:
    """Inverse of write_archive; malformed files raise ParseError.

    Entries must be contiguous in header order: each starts where the
    previous one ends, and the last ends at the end of the payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4:
        raise ParseError(f"{path}: truncated checkpoint")
    if data[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: bad magic, not a checkpoint file")
    (header_len,) = struct.unpack("<I", data[len(MAGIC) : len(MAGIC) + 4])
    body_start = len(MAGIC) + 4
    if len(data) < body_start + header_len:
        raise ParseError(f"{path}: truncated header")
    try:
        header = json.loads(data[body_start : body_start + header_len])
    except ValueError as exc:
        raise ParseError(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {header.get('format_version')}")
    kind, meta, entries = header.get("kind"), header.get("meta"), header.get("entries")
    if not (isinstance(kind, str) and isinstance(meta, dict) and isinstance(entries, list)):
        raise ParseError(f"{path}: header needs a string kind, object meta, list entries")
    if (len(data) - body_start - header_len) % 8:
        raise ParseError(f"{path}: payload is not a whole number of float64s")
    payload = np.frombuffer(data[body_start + header_len :], dtype="<f8")
    tensors: dict[str, Tensor] = {}
    end = 0
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        key, shape, offset, count = (fields.get(f) for f in ("key", "shape", "offset", "count"))
        if not (
            isinstance(key, str)
            and isinstance(shape, list)
            and all(map(_is_count, [*shape, offset, count]))
        ):
            raise ParseError(f"{path}: malformed entry {entry!r}")
        if key in tensors:
            raise ParseError(f"{path}: duplicate entry '{key}'")
        if offset != end:
            raise ParseError(f"{path}: entry '{key}' starts at {offset}, not at {end}")
        if math.prod(shape) != count:
            raise ParseError(f"{path}: entry '{key}' shape/count mismatch")
        end = offset + count
        if end > payload.size:
            raise ParseError(f"{path}: entry '{key}' runs past the payload")
        tensors[key] = payload[offset:end].astype(np.float64).reshape(shape)
    if payload.size != end:
        raise ParseError(f"{path}: payload holds {payload.size} floats, header expects {end}")
    return kind, meta, tensors


def spec_from_meta(meta: dict) -> ModelSpec:
    try:
        return ModelSpec(
            input_dim=int(meta["input_dim"]),
            hidden_dims=tuple(int(h) for h in meta["hidden_dims"]),
            label_names=tuple(meta["label_names"]),
            bn_momentum=float(meta["bn_momentum"]),
            bn_eps=float(meta["bn_eps"]),
        )
    except (ConfigError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid model spec metadata: {exc}") from None


def save_global(gm: GlobalModel, path) -> None:
    """Checkpoint a global model (kind "global"), bit-exact round-trip."""
    meta = {
        "spec": asdict(gm.spec),
        "strategy": gm.strategy.value,
        "round_index": gm.round_index,
        "node_labels": {str(i): list(v) for i, v in gm.node_labels.items()},
        "bn_nodes": gm.bn_nodes,
    }
    write_archive(path, "global", meta, gm.params)


def load_global(path) -> GlobalModel:
    """Inverse of save_global; the key set and every shape must match the spec."""
    kind, meta, tensors = read_archive(path)
    if kind != "global":
        raise ParseError(f"{path}: expected a global checkpoint, got kind '{kind}'")
    spec = spec_from_meta(meta.get("spec"))
    try:
        strategy = Strategy(meta.get("strategy"))
    except ValueError:
        raise ParseError(f"{path}: unknown strategy {meta.get('strategy')!r}") from None
    round_index = meta.get("round_index")
    if not _is_count(round_index):
        raise ParseError(f"{path}: meta.round_index must be an int >= 0")
    node_labels = meta.get("node_labels")
    if not isinstance(node_labels, dict) or not all(
        i.isdecimal() and isinstance(v, list) and all(isinstance(l, str) for l in v)
        for i, v in node_labels.items()
    ):
        raise ParseError(f"{path}: meta.node_labels must map node ids to label lists")
    gm = GlobalModel(
        spec=spec,
        params={},
        node_labels={int(i): tuple(v) for i, v in node_labels.items()},
        strategy=strategy,
        round_index=round_index,
    )
    if meta.get("bn_nodes") != gm.bn_nodes:
        raise ParseError(f"{path}: meta.bn_nodes does not fit strategy {strategy.value}")

    shapes = global_shapes(spec, gm.bn_nodes)
    missing = [k for k in shapes if k not in tensors]
    unexpected = sorted(k for k in tensors if k not in shapes)
    if missing or unexpected:
        raise ParseError(f"{path}: missing tensors {missing}, unexpected tensors {unexpected}")
    for key, shape in shapes.items():
        if tensors[key].shape != shape:
            raise ParseError(
                f"{path}: tensor '{key}' has shape {tensors[key].shape}, the spec needs {shape}"
            )
    gm.params = {key: tensors[key] for key in shapes}
    return gm

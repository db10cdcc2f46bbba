"""Checkpoint container format and bit-exact global-model round-trips."""

import json
import math
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fedfbn import checkpoint
from fedfbn.checkpoint import (
    MAGIC,
    load_global,
    read_archive,
    save_global,
    write_archive,
)
from fedfbn.errors import ParseError
from fedfbn.federation import Strategy, aggregate, extract_bundle
from fedfbn.network import BnPolicy, ModelSpec, backward, init_model
from fedfbn.numerics import RngStream


def trained_model(seed=1):
    spec = ModelSpec(3, (4, 3), ("a", "b"))
    model = init_model(spec, RngStream(seed))
    rng = RngStream(seed + 1)
    x = rng.standard_normal((8, 3))
    y = (rng.random((8, 2)) < 0.5).astype(np.float64)
    backward(model, x, y, np.ones((8, 2)), BnPolicy.NORMAL)
    return model


def saved_global(tmp_path, strategy=Strategy.FEDBN, name="g.ckpt"):
    """A two-node global checkpoint; returns its path and raw bytes."""
    bundles = [extract_bundle(trained_model(s), s, 0, 8) for s in (0, 1)]
    gm = aggregate(bundles, strategy, ModelSpec(3, (4, 3), ()))
    path = tmp_path / name
    save_global(gm, path)
    return path, path.read_bytes()


def split_archive(raw):
    header_len = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])[0]
    header = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
    return header, raw[len(MAGIC) + 4 + header_len :]


def join_archive(header, payload):
    hb = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(hb)) + hb + payload


def test_archive_round_trip(tmp_path):
    path = tmp_path / "t.ckpt"
    tensors = {
        "x": RngStream(2).standard_normal((3, 5)),
        "y": np.array([1.0, -0.5]),
    }
    write_archive(path, "blob", {"note": 7}, tensors)
    kind, meta, back = read_archive(path)
    assert kind == "blob"
    assert meta == {"note": 7}
    assert back.keys() == tensors.keys()
    assert all(np.array_equal(back[k], tensors[k]) for k in tensors)


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.ckpt"
    write_archive(path, "blob", {}, {"x": np.ones(3)})
    before = path.read_bytes()

    def disk_full(*args):
        raise OSError("disk full")

    # the header length is packed after the magic bytes are already written
    monkeypatch.setattr(checkpoint, "struct", SimpleNamespace(pack=disk_full))
    with pytest.raises(OSError, match="disk full"):
        write_archive(path, "blob", {}, {"x": np.zeros(3)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.ckpt"]


def test_model_round_trip_is_bit_exact(tmp_path):
    # a one-node FEDAVG global is the model itself, so it must survive
    # save_global / load_global / materialize bit for bit
    model = trained_model()
    gm = aggregate([extract_bundle(model, 0, 0, 8)], Strategy.FEDAVG, model.spec)
    path = tmp_path / "m.ckpt"
    save_global(gm, path)
    back = load_global(path).materialize(model.spec.label_names)
    assert back.spec == model.spec
    assert list(back.params) == list(model.params)
    for key in model.params:
        assert back.params[key].tobytes() == model.params[key].tobytes(), key


def test_global_keeps_on_disk_key_layout(tmp_path):
    path, _ = saved_global(tmp_path)
    _, meta, tensors = read_archive(path)
    assert meta["bn_nodes"] == [0, 1]
    assert list(tensors) == [
        "dense0/weight", "dense0/bias", "dense1/weight", "dense1/bias",
        "heads/weight", "heads/bias",
        *[f"node_bn/{n}/bn{i}/{t}" for n in (0, 1) for i in (0, 1)
          for t in ("gamma", "beta", "running_mean", "running_var")],
    ]
    assert tensors["heads/weight"].shape == (2, 3)
    assert tensors["heads/bias"].shape == (2,)
    # the file stores the global map as it is, and loading keeps its order
    for strategy in (Strategy.FEDBN, Strategy.FEDFBN):
        bundles = [extract_bundle(init_model(ModelSpec(3, (4, 3), ("a", "b")), RngStream(1)),
                                  node_id, 0, 8) for node_id in (0, 1)]
        gm = aggregate(bundles, strategy, ModelSpec(3, (4, 3), ()))
        path = tmp_path / f"{strategy.value}.ckpt"
        save_global(gm, path)
        _, _, tensors = read_archive(path)
        assert list(tensors) == list(gm.params), strategy
        assert list(load_global(path).params) == list(gm.params), strategy


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "w.ckpt"
    write_archive(path, "model", {}, {"x": np.zeros(2)})
    with pytest.raises(ParseError, match="kind"):
        load_global(path)


def test_corrupt_files_rejected(tmp_path):
    _, raw = saved_global(tmp_path)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ParseError):
        load_global(truncated)

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[len(MAGIC) :])
    with pytest.raises(ParseError, match="magic"):
        load_global(bad_magic)

    bad_json = tmp_path / "json.ckpt"
    body = bytearray(raw)
    body[len(MAGIC) + 4] = ord("!")
    bad_json.write_bytes(bytes(body))
    with pytest.raises(ParseError):
        load_global(bad_json)

    extra_payload = tmp_path / "extra.ckpt"
    extra_payload.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ParseError, match="payload"):
        load_global(extra_payload)


def _drop(mapping, key):
    del mapping[key]


def _set_entry(index, **fields):
    return lambda header: header["entries"][index].update(fields)


HEADER_DAMAGE = {
    "no_entries": lambda h: _drop(h, "entries"),
    "entries_not_a_list": lambda h: h.update(entries={"k": 1}),
    "negative_offset": _set_entry(0, offset=-3),
    "overlap_at_zero": _set_entry(1, offset=0),
    "gap_between_entries": _set_entry(1, offset=1000),
    "offset_not_an_int": _set_entry(0, offset="0"),
    "bool_count": _set_entry(0, count=True),
    "shape_not_a_list": _set_entry(0, shape=12),
    "duplicate_key": lambda h: h["entries"][1].update(key=h["entries"][0]["key"]),
    "meta_not_an_object": lambda h: h.update(meta=[1]),
    "kind_not_a_string": lambda h: h.update(kind=None),
    "bogus_strategy": lambda h: h["meta"].update(strategy="bogus"),
    "no_round_index": lambda h: _drop(h["meta"], "round_index"),
    "round_index_a_string": lambda h: h["meta"].update(round_index="3"),
    "no_node_labels": lambda h: _drop(h["meta"], "node_labels"),
    "bn_nodes_without_fedbn": lambda h: h["meta"].update(strategy="fedavg"),
    "bn_nodes_missing_a_node": lambda h: h["meta"].update(bn_nodes=[0]),
    "negative_hidden_dim": lambda h: h["meta"]["spec"].update(hidden_dims=[-4, 3]),
    "infinite_input_dim": lambda h: h["meta"]["spec"].update(input_dim=math.inf),
    "float_overflow_bn_momentum": lambda h: h["meta"]["spec"].update(bn_momentum=10**400),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_malformed_header_is_a_parse_error(tmp_path, damage):
    _, raw = saved_global(tmp_path)
    header, payload = split_archive(raw)
    HEADER_DAMAGE[damage](header)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(join_archive(header, payload))
    with pytest.raises(ParseError):
        load_global(path)


@pytest.mark.parametrize("version", [1, 99])
def test_version_and_leftover_tensor_rejected(tmp_path, version):
    path, raw = saved_global(tmp_path)
    header, payload = split_archive(raw)

    other = tmp_path / f"v{version}.ckpt"
    other.write_bytes(join_archive(dict(header, format_version=version), payload))
    with pytest.raises(ParseError, match=f"format_version {version}$"):
        read_archive(other)

    kind, meta, tensors = read_archive(path)
    tensors["unrelated/thing"] = np.zeros(1)
    stray = tmp_path / "stray.ckpt"
    write_archive(stray, kind, meta, tensors)
    with pytest.raises(ParseError, match="unexpected"):
        load_global(stray)


def test_per_label_head_keys_are_unexpected(tmp_path):
    # format version 1 stored each head as head/<label>/weight|bias
    path, _ = saved_global(tmp_path)
    kind, meta, tensors = read_archive(path)
    weight, bias = tensors.pop("heads/weight"), tensors.pop("heads/bias")
    for j, label in enumerate(("a", "b")):
        tensors[f"head/{label}/weight"] = weight[j, :, None]
        tensors[f"head/{label}/bias"] = bias[j : j + 1]
    write_archive(path, kind, meta, tensors)
    with pytest.raises(ParseError, match=r"unexpected tensors \['head/a/bias'") as err:
        load_global(path)
    assert "missing tensors ['heads/weight', 'heads/bias']" in str(err.value)


def test_missing_tensor_named(tmp_path):
    path, _ = saved_global(tmp_path)
    kind, meta, tensors = read_archive(path)
    tensors.pop("node_bn/1/bn1/running_var")
    write_archive(path, kind, meta, tensors)
    with pytest.raises(ParseError, match="node_bn/1/bn1/running_var"):
        load_global(path)


def test_shape_validation(tmp_path):
    path, _ = saved_global(tmp_path, Strategy.FEDAVG)
    kind, meta, tensors = read_archive(path)
    tensors["heads/weight"] = np.zeros((5, 1))
    write_archive(path, kind, meta, tensors)
    with pytest.raises(ParseError, match="heads/weight"):
        load_global(path)

    # same element count, transposed shape
    kind, meta, tensors = read_archive(saved_global(tmp_path, Strategy.FEDAVG)[0])
    tensors["dense0/weight"] = tensors["dense0/weight"].T.copy()
    write_archive(path, kind, meta, tensors)
    with pytest.raises(ParseError, match="dense0/weight"):
        load_global(path)

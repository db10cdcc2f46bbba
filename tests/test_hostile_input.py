"""Damaged checkpoint headers and report envelopes fail only with ParseError.

Each case takes a valid file, damages its JSON at one place (deletes the
value there or replaces it), and loads it the way ``fedfbn run``/``report``
would: the load either succeeds or raises :class:`ParseError`, never
another exception. One sweep tries every place with a fixed list of edge
values; hypothesis tries arbitrary JSON at arbitrary places.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedfbn.checkpoint import MAGIC, load_global
from fedfbn.errors import ParseError
from fedfbn.experiments import _envelope, _envelope_name, rerender_reports
from fedfbn.metrics import bootstrap_ci
from fedfbn.numerics import RngStream
from test_checkpoint import join_archive, saved_global, split_archive

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

DELETE = object()
# values at the edge of what a loader must range-check, plus deletion
EDGE_VALUES = [DELETE, None, True, -1, 0, 10**400, math.inf, -math.inf, math.nan,
               "", "../x", [], {}]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def places(doc, prefix=()):
    """Every path into a JSON tree; of a list, only its first and last item."""
    if isinstance(doc, dict):
        keys = sorted(doc)
    else:
        keys = sorted({0, len(doc) - 1}) if doc else []
    for key in keys:
        yield prefix + (key,)
        if isinstance(doc[key], (dict, list)):
            yield from places(doc[key], prefix + (key,))


def damaged(doc, place, value):
    """A deep copy of ``doc`` with the value at ``place`` replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in place[:-1]:
        node = node[key]
    if value is DELETE:
        del node[place[-1]]
    else:
        node[place[-1]] = value
    return doc


def draw_damage(doc, data):
    place = data.draw(st.sampled_from(list(places(doc))))
    return damaged(doc, place, data.draw(st.sampled_from(EDGE_VALUES) | json_values))


def loads_or_parse_error(load, path):
    try:
        load(path)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    _, raw = saved_global(tmp_path_factory.mktemp("ckpt"))
    return split_archive(raw)


def test_every_header_place_with_edge_values(tmp_path, checkpoint_parts):
    header, payload = checkpoint_parts
    path = tmp_path / "g.ckpt"
    for place in places(header):
        for value in EDGE_VALUES:
            path.write_bytes(join_archive(damaged(header, place, value), payload))
            loads_or_parse_error(load_global, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_header(tmp_path, checkpoint_parts, data):
    header, payload = checkpoint_parts
    path = tmp_path / "g.ckpt"
    path.write_bytes(join_archive(draw_damage(header, data), payload))
    loads_or_parse_error(load_global, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_bytes(tmp_path, checkpoint_parts, data):
    header, payload = checkpoint_parts
    raw = bytearray(join_archive(header, payload))
    # damage the magic, the length word or the header text
    end = len(MAGIC) + 4 + len(json.dumps(header, sort_keys=True))
    at = data.draw(st.integers(0, end - 1))
    raw[at : at + 1] = data.draw(st.binary(max_size=3))
    path = tmp_path / "g.ckpt"
    path.write_bytes(bytes(raw))
    loads_or_parse_error(load_global, path)


@pytest.fixture(scope="module")
def envelopes():
    """Two arms evaluated on one test set and view, as a run writes them."""
    rng = RngStream(5)
    labels = (rng.random((40, 3)) < 0.4).astype(np.float64)
    mask = np.ones_like(labels)
    names = ["a", "b", "c"]
    arms = ("fedfbn", "fedavg")
    scores = [rng.child(arm).random((40, 3)) for arm in arms]
    reports = bootstrap_ci(scores, labels, mask, names, RngStream(9), 100)
    return [
        _envelope(arm, "", "internal", "all", names, report)
        for arm, report in zip(arms, reports)
    ]


def manifest_of(envelopes):
    return {"schema_version": 1, "files": sorted(map(_envelope_name, envelopes))}


def write_run_dir(run_dir, envelopes, victim, bad, manifest=None):
    """The envelopes, ``bad`` in place of the victim's, and a manifest listing them."""
    for path in run_dir.iterdir():
        path.unlink()
    for i, env in enumerate(envelopes):
        text = json.dumps(bad if i == victim else env)
        (run_dir / _envelope_name(env)).write_text(text, encoding="utf-8")
    if manifest is None:
        manifest = manifest_of(envelopes)
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_every_envelope_place_with_edge_values(tmp_path, envelopes):
    for victim, env in enumerate(envelopes):
        for place in places(env):
            for value in EDGE_VALUES:
                write_run_dir(tmp_path, envelopes, victim, damaged(env, place, value))
                loads_or_parse_error(rerender_reports, tmp_path)


@FUZZ
@given(data=st.data())
def test_fuzzed_report_envelope(tmp_path, envelopes, data):
    victim = data.draw(st.integers(0, len(envelopes) - 1))
    write_run_dir(tmp_path, envelopes, victim, draw_damage(envelopes[victim], data))
    loads_or_parse_error(rerender_reports, tmp_path)


def test_envelopes_that_disagree_on_n_bootstrap(tmp_path, envelopes):
    # each envelope is consistent on its own, but the t-test pairs them
    short = damaged(envelopes[1], ("report", "n_bootstrap"), 99)
    short["report"]["per_replicate_means"].pop()
    write_run_dir(tmp_path, envelopes, 1, short)
    with pytest.raises(ParseError, match="disagree on n_bootstrap"):
        rerender_reports(tmp_path)


def test_every_manifest_place_with_edge_values(tmp_path, envelopes):
    manifest = manifest_of(envelopes)
    for place in places(manifest):
        for value in EDGE_VALUES:
            write_run_dir(tmp_path, envelopes, None, None, damaged(manifest, place, value))
            loads_or_parse_error(rerender_reports, tmp_path)
    # a listed name that is not a bare file name
    name = manifest["files"][0]
    for bad in ("../" + name, "sub/" + name, name.replace("_", "_\0", 1)):
        write_run_dir(tmp_path, envelopes, None, None, {"files": [bad]})
        with pytest.raises(ParseError, match="bare file names"):
            rerender_reports(tmp_path)
    # a manifest that is not an object, or none at all
    for value in EDGE_VALUES[1:]:
        (tmp_path / "manifest.json").write_text(json.dumps(value), encoding="utf-8")
        with pytest.raises(ParseError, match="manifest.json"):
            rerender_reports(tmp_path)
    # a listed envelope that is a directory
    (tmp_path / "manifest.json").write_text('{"files": ["report_dir.json"]}')
    (tmp_path / "report_dir.json").mkdir()
    with pytest.raises(ParseError, match="report_dir.json"):
        rerender_reports(tmp_path)
    (tmp_path / "manifest.json").unlink()
    with pytest.raises(ParseError, match="manifest.json"):
        rerender_reports(tmp_path)


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest(tmp_path, envelopes, data):
    write_run_dir(tmp_path, envelopes, None, None, draw_damage(manifest_of(envelopes), data))
    loads_or_parse_error(rerender_reports, tmp_path)

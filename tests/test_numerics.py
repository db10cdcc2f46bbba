"""Tensor arithmetic and RNG stream behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfbn.errors import DataError
from fedfbn.numerics import RngStream, check_finite


def test_check_finite_rejects_nan_and_inf():
    check_finite(np.ones(3), "ok")
    with pytest.raises(DataError):
        check_finite(np.array([1.0, np.nan]), "nan case")
    with pytest.raises(DataError):
        check_finite(np.array([np.inf]), "inf case")


def test_rng_replay_from_seed():
    a = RngStream(123).standard_normal(10)
    b = RngStream(123).standard_normal(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RngStream(122).standard_normal(10))


def test_child_streams_deterministic_and_distinct():
    s = RngStream(5)
    a = s.child("node:0").standard_normal(4)
    b = s.child("node:0").standard_normal(4)
    c = s.child("node:1").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert s.child("node:0").seed != s.child("node:1").seed


def test_child_derivation_leaves_parent_alone():
    s1 = RngStream(21)
    s2 = RngStream(21)
    for i in range(6):
        s1.child(f"side:{i}")
    assert np.array_equal(s1.standard_normal(8), s2.standard_normal(8))


def test_draw_helpers_in_range():
    s = RngStream(8)
    u = s.uniform(-2.0, 3.0, 100)
    assert ((u >= -2.0) & (u < 3.0)).all()
    ints = s.integers(0, 10, size=200)
    assert ((ints >= 0) & (ints < 10)).all()
    perm = s.permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    high=st.integers(1, 500),
    size=st.integers(0, 500),
    labels=st.lists(st.text(max_size=8), min_size=1, max_size=12),
)
@example(seed=0, high=1, size=0, labels=["boot:0"])
@example(seed=2**64 - 1, high=500, size=500, labels=["boot:0", "boot:1", "boot:0"])
@example(seed=0, high=7, size=3, labels=[f"boot:{r}" for r in range(40)])
def test_child_integers_match_each_child(seed, high, size, labels):
    # one call draws for many labels, so state one label leaves in the
    # generator (a half-used buffer, a spare 32-bit word) would show in the next
    s = RngStream(seed)
    got = s.child_integers(labels, high, size)
    assert got.dtype == np.int64 and got.shape == (len(labels), size)
    for row, label in zip(got, labels):
        want = s.child(label).integers(0, high, size=size)
        assert row.tobytes() == want.tobytes(), label

"""Tensor arithmetic and RNG stream behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfbn.errors import DataError
from fedfbn.numerics import RngStream, batch_stats, check_finite


def test_batch_stats_hand_cases():
    mean, var = batch_stats(np.array([[1.0], [3.0]]))
    assert np.array_equal(mean, [2.0])
    assert np.array_equal(var, [1.0])
    mean, var = batch_stats(np.array([[5.0, 7.0]]))
    assert np.array_equal(mean, [5.0, 7.0])
    assert np.array_equal(var, [0.0, 0.0])


def test_batch_stats_matches_two_pass_oracle():
    x = RngStream(11).standard_normal((64, 8))
    mean, var = batch_stats(x)
    want_mean = x.sum(axis=0) / 64.0
    want_var = ((x - want_mean) ** 2).sum(axis=0) / 64.0
    assert np.max(np.abs(mean - want_mean)) < 1e-12
    assert np.max(np.abs(var - want_var)) < 1e-12
    assert (var >= 0.0).all()
    assert np.max(np.abs((x - mean).mean(axis=0))) < 1e-12


def test_batch_stats_matches_np_mean_bit_for_bit():
    rng = RngStream(12)
    for trial in range(300):
        shape = (int(rng.integers(1, 200)), int(rng.integers(1, 70)))
        x = (10.0 ** float(rng.integers(-3, 4))) * rng.standard_normal(shape)
        mean, var = batch_stats(x)
        want_mean = np.mean(x, axis=0)
        want_var = np.mean((x - want_mean) ** 2, axis=0)
        assert mean.tobytes() == want_mean.tobytes(), trial
        assert var.tobytes() == want_var.tobytes(), trial


def test_batch_stats_empty_batch():
    with pytest.raises(DataError):
        batch_stats(np.zeros((0, 3)))


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

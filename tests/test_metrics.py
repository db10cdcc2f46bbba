"""AUROC, bootstrap CI, and paired t-test behavior."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfbn.errors import ConfigError, MetricError
from fedfbn.metrics import (
    EvalReport,
    auroc,
    bootstrap_ci,
    mean_auroc,
    paired_ttest,
    per_label_auroc,
    undefined_labels,
)
from fedfbn.numerics import RngStream
from fedfbn.special import student_t_two_tailed

mpmath.mp.dps = 50


def pair_count_auroc(scores, labels):
    """O(n^2) oracle: credit over all (positive, negative) pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (pos.size * neg.size)


def test_auroc_hand_cases():
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.5, 0.5], [1, 0]) == 0.5
    assert auroc([0.1, 0.9], [1, 0]) == 0.0


def test_auroc_single_class_is_undefined():
    assert auroc([0.2, 0.6], [1, 1]) is None
    assert auroc([0.2, 0.6], [0, 0]) is None


def test_auroc_matches_pair_oracle_with_ties():
    rng = RngStream(101)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = (rng.random(n) < 0.4).astype(np.float64)
        if labels.sum() in (0, n):
            labels[0] = 1.0
            labels[-1] = 0.0
        # quantized scores force plenty of exact ties
        scores = np.round(rng.random(n), 1)
        assert auroc(scores, labels) == pair_count_auroc(scores, labels)


def test_auroc_monotone_transform_invariance():
    rng = RngStream(55)
    scores = rng.random(80)
    labels = (rng.random(80) < 0.3).astype(np.float64)
    labels[0], labels[1] = 1.0, 0.0
    base = auroc(scores, labels)
    assert auroc(np.exp(3.0 * scores) + 7.0, labels) == base


def test_auroc_flip_symmetry():
    rng = RngStream(56)
    scores = rng.standard_normal(60)  # continuous, ties improbable
    labels = (rng.random(60) < 0.5).astype(np.float64)
    labels[0], labels[1] = 1.0, 0.0
    assert abs(auroc(scores, labels) + auroc(-scores, labels) - 1.0) < 1e-12


def test_mean_auroc_rules():
    assert mean_auroc({"a": 0.8, "b": 0.6}) == pytest.approx(0.7)
    assert mean_auroc({"a": 0.8, "b": None}) == 0.8
    assert mean_auroc({"a": 0.9}) == 0.9
    with pytest.raises(MetricError):
        mean_auroc({"a": None, "b": None})


def test_per_label_auroc_respects_mask():
    scores = np.array([[0.9, 0.2], [0.1, 0.8], [0.7, 0.5]])
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mask = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    out = per_label_auroc(scores, labels, mask, ["a", "b"])
    # column a sees only rows 0 and 1 -> perfect ranking
    assert out["a"] == 1.0
    assert out["b"] == pair_count_auroc([0.2, 0.8, 0.5], [0, 1, 1])


def bootstrap_one(scores, *args):
    """``bootstrap_ci`` on one model's ``(rows, labels)`` score matrix."""
    (report,) = bootstrap_ci(np.asarray(scores)[None], *args)
    return report


def _toy_eval(n, seed, flip=0.1):
    rng = RngStream(seed)
    labels = (rng.random((n, 3)) < 0.3).astype(np.float64)
    noise = rng.random((n, 3))
    scores = np.where(noise < flip, 1.0 - labels, labels) * 0.8 + 0.1
    scores = scores + 0.01 * rng.standard_normal((n, 3))
    mask = np.ones((n, 3))
    return scores, labels, mask


def test_bootstrap_deterministic_replay():
    scores, labels, mask = _toy_eval(120, 1)
    a = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(9), 200)
    b = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(9), 200)
    assert a.ci95 == b.ci95
    assert a.per_replicate_means == b.per_replicate_means


def test_bootstrap_point_estimate_ignores_replicate_count():
    scores, labels, mask = _toy_eval(100, 2)
    a = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(3), 100)
    b = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(3), 300)
    assert a.mean_auroc == b.mean_auroc
    assert len(a.per_replicate_means) == 100
    assert len(b.per_replicate_means) == 300


def test_bootstrap_perfect_separation_degenerates():
    labels = np.array([[1.0], [1.0], [0.0], [0.0]] * 10)
    scores = labels * 0.8 + 0.1
    mask = np.ones_like(labels)
    rep = bootstrap_one(scores, labels, mask, ["only"], RngStream(4), 150)
    assert rep.ci95 == (1.0, 1.0)
    assert rep.mean_auroc == 1.0


def test_bootstrap_ci_bounds_inside_replicate_range():
    scores, labels, mask = _toy_eval(60, 5, flip=0.3)
    rep = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(6), 250)
    lo, hi = rep.ci95
    assert min(rep.per_replicate_means) <= lo <= hi <= max(rep.per_replicate_means)


def test_bootstrap_shares_indices_across_models():
    # two models evaluated with equal-seed streams resample identically,
    # so constant-score models produce bitwise-equal replicate means
    scores, labels, mask = _toy_eval(80, 7)
    a = bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(12), 120)
    b = bootstrap_one(scores + 0.0, labels, mask, ["x", "y", "z"], RngStream(12), 120)
    assert a.per_replicate_means == b.per_replicate_means


def test_bootstrap_minimum_replicates():
    scores, labels, mask = _toy_eval(40, 8)
    with pytest.raises(ConfigError):
        bootstrap_one(scores, labels, mask, ["x", "y", "z"], RngStream(1), 99)


def test_bootstrap_rare_label_dropped_from_some_replicates():
    rng = RngStream(13)
    n = 50
    labels = np.zeros((n, 2))
    labels[:, 0] = (rng.random(n) < 0.5).astype(np.float64)
    labels[0, 0] = 1.0
    labels[1, 0] = 0.0
    labels[3, 1] = 1.0  # single positive: many replicates miss it
    scores = rng.random((n, 2))
    rep = bootstrap_one(scores, labels, np.ones((n, 2)), ["c", "r"], RngStream(14), 150)
    assert math.isfinite(rep.mean_auroc)
    assert len(rep.per_replicate_means) == 150


def test_bootstrap_all_labels_undefined_raises():
    labels = np.zeros((20, 1))
    scores = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    with pytest.raises(MetricError):
        bootstrap_one(scores, labels, np.ones((20, 1)), ["dead"], RngStream(2), 100)


def test_bootstrap_width_shrinks_with_test_size():
    widths = {200: [], 2000: []}
    for seed in range(20):
        for n in (200, 2000):
            scores, labels, mask = _toy_eval(n, 1000 + seed, flip=0.25)
            rep = bootstrap_one(
                scores, labels, mask, ["x", "y", "z"], RngStream(seed), 100
            )
            widths[n].append(rep.ci95[1] - rep.ci95[0])
    assert float(np.median(widths[2000])) < float(np.median(widths[200]))


def reference_bootstrap_ci(scores, labels, mask, label_names, rng, n_bootstrap):
    """Oracle: rank every resample anew with ``per_label_auroc``."""
    scores, labels, mask = np.asarray(scores), np.asarray(labels), np.asarray(mask)
    n = scores.shape[0]
    point = per_label_auroc(scores, labels, mask, label_names)
    point_mean = mean_auroc(point)
    replicate_means = []
    for r in range(n_bootstrap):
        idx = rng.child(f"boot:{r}").integers(0, n, size=n)
        rep = per_label_auroc(scores[idx], labels[idx], mask[idx], label_names)
        defined = [v for v in rep.values() if v is not None]
        if not defined:
            raise MetricError(f"bootstrap replicate {r}: no label has a defined AUROC")
        replicate_means.append(float(sum(defined) / len(defined)))
    ordered = sorted(replicate_means)
    lo = ordered[min(max(math.ceil(0.025 * n_bootstrap), 1), n_bootstrap) - 1]
    hi = ordered[min(max(math.ceil(0.975 * n_bootstrap), 1), n_bootstrap) - 1]
    return EvalReport(
        per_label_auroc=point,
        mean_auroc=point_mean,
        ci95=(lo, hi),
        n_bootstrap=n_bootstrap,
        per_replicate_means=replicate_means,
        seed=rng.seed,
        undefined=undefined_labels(point),
    )


def score_matrices(draw, n, n_labels, n_models):
    """Score matrices whose columns are constant, coarse (tie-heavy) or fine."""
    matrices = []
    for _ in range(n_models):
        columns = []
        for _ in range(n_labels):
            kind = draw(st.sampled_from(["constant", "coarse", "fine"]))
            if kind == "constant":
                values = st.just(0.5)
            elif kind == "coarse":
                values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
            else:
                values = st.floats(-1e3, 1e3, allow_nan=False)
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
        matrices.append(np.array(columns).T)
    return np.stack(matrices)


@st.composite
def eval_cases(draw, max_models=1):
    """Small test sets full of ties, masked rows and non-binary labels.

    With ``max_models`` above 1 the scores stack 1 to ``max_models``
    matrices of the same test set; otherwise they are one matrix.
    """
    n = draw(st.integers(1, 24))
    n_labels = draw(st.integers(1, 4))
    scores = score_matrices(draw, n, n_labels, draw(st.integers(1, max_models)))

    def grid(values):
        cells = draw(st.lists(values, min_size=n * n_labels, max_size=n * n_labels))
        return np.array(cells).reshape(n, n_labels)

    return (
        scores if max_models > 1 else scores[0],
        grid(st.sampled_from([-1.0, 0.0, 0.0, 1.0, 1.0])),
        grid(st.sampled_from([0.0, 1.0, 1.0, 1.0])),
        draw(st.integers(100, 170)),  # mostly not a multiple of the block size
        draw(st.integers(0, 2**64 - 1)),
    )


def _outcome(fn, scores, labels, mask, n_bootstrap, seed):
    names = [f"l{j}" for j in range(labels.shape[1])]
    try:
        return fn(scores, labels, mask, names, RngStream(seed), n_bootstrap)
    except MetricError as exc:
        return f"MetricError: {exc}"


@settings(max_examples=60, deadline=None)
@given(case=eval_cases())
# two rows, one per class: some replicate draws one row twice and leaves no
# label defined
@example(case=(np.array([[0.1], [0.9]]), np.array([[0.0], [1.0]]), np.ones((2, 1)), 100, 0))
def test_bootstrap_matches_per_replicate_ranking(case):
    got = _outcome(bootstrap_one, *case)
    want = _outcome(reference_bootstrap_ci, *case)
    if isinstance(want, str):
        assert got == want
        return
    assert got.per_replicate_means == want.per_replicate_means
    assert got.ci95 == want.ci95
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@settings(max_examples=60, deadline=None)
@given(case=eval_cases(max_models=4))
# both classes in two rows under two models: some replicate draws one row
# twice and leaves no label defined
@example(case=(np.array([[[0.1], [0.9]], [[0.7], [0.7]]]), np.array([[0.0], [1.0]]),
               np.ones((2, 1)), 100, 0))
def test_stacked_bootstrap_matches_one_model_at_a_time(case):
    scores, *rest = case
    got = _outcome(bootstrap_ci, scores, *rest)
    if isinstance(got, str):
        assert all(_outcome(bootstrap_one, s, *rest) == got for s in scores)
        return
    assert len(got) == len(scores)
    for report, matrix in zip(got, scores):
        want = _outcome(bootstrap_one, matrix, *rest)
        assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())


def test_paired_ttest_identical_samples():
    r = paired_ttest([0.1, 0.7, 0.3], [0.1, 0.7, 0.3])
    assert r.p_value == 1.0
    assert not r.significant


def test_paired_ttest_constant_nonzero_difference():
    r = paired_ttest([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0])
    assert r.p_value == 0.0
    assert r.significant
    # an infinite t statistic of either sign
    rev = paired_ttest([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert rev.p_value == 0.0 and rev.significant


def test_paired_ttest_antisymmetry():
    rng = RngStream(30)
    a = rng.random(15)
    b = rng.random(15)
    fwd = paired_ttest(a, b)
    rev = paired_ttest(b, a)
    assert fwd.significant == rev.significant
    assert fwd.p_value == rev.p_value


def test_paired_ttest_input_errors():
    with pytest.raises(MetricError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(MetricError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


def test_paired_ttest_matches_bigfloat_reference():
    rng = RngStream(33)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        a = rng.random(n)
        b = a + 0.05 * rng.standard_normal(n)
        got = paired_ttest(a, b)
        d = [mpmath.mpf(float(x)) - mpmath.mpf(float(y)) for x, y in zip(a, b)]
        mean = mpmath.fsum(d) / n
        var = mpmath.fsum((v - mean) ** 2 for v in d) / (n - 1)
        t = mean / mpmath.sqrt(var / n)
        x = mpmath.mpf(n - 1) / ((n - 1) + t**2)
        p = mpmath.betainc(mpmath.mpf(n - 1) / 2, mpmath.mpf("0.5"), 0, x,
                           regularized=True)
        # the p-value of the reference statistic, through the same tail
        assert abs(got.p_value - student_t_two_tailed(float(t), n - 1)) < 1e-9
        assert abs(got.p_value - float(p)) < 1e-9

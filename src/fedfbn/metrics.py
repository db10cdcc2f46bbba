"""Per-label AUROC, bootstrap confidence intervals, and the paired t-test.

AUROC is the Mann-Whitney statistic with ties worth half a pair, and one
kernel computes it: :func:`per_label_auroc` scores a draw from how often it
takes each test row. Per call, each label's observed negatives are sorted
once per model, and ``searchsorted`` places every observed positive among
them. A draw's Mann-Whitney count is then integer arithmetic on its row
counts: a running count of drawn negatives in score order, read at each
positive's two ``searchsorted`` bounds. U is an exact multiple of 0.5 well
inside the float64 integer range, so the result is bit-identical to
exhaustive pair enumeration, ties included.

The point estimate is the draw that takes every row once. Bootstrap
replicates resample test rows with replacement; replicate ``r`` draws its
indices from a stream derived by the label ``boot:r``. One call scores every
model evaluated on a test set and label view against the same draws, so
their per-replicate means pair up for the t-test and each resample is drawn
once, not once per model. The tests keep the tie-averaged rank form, ranking
every resample anew, as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError
from .numerics import RngStream, check_finite
from .special import student_t_two_tailed

SIGNIFICANCE_LEVEL = 0.05
_REPORT_SCHEMA_VERSION = 1
# Bootstrap replicates scored together; bounds the (replicates, rows) count
# arrays so memory does not grow with n_bootstrap.
_BOOTSTRAP_BLOCK = 128


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    rank = math.ceil(q * sorted_values.size)
    rank = min(max(rank, 1), sorted_values.size)
    return float(sorted_values[rank - 1])


@dataclass
class EvalReport:
    """Evaluation summary for one model on one test set and label view."""

    per_label_auroc: dict[str, float | None]
    mean_auroc: float
    ci95: tuple[float, float]
    n_bootstrap: int
    per_replicate_means: list[float]
    seed: int

    def to_dict(self) -> dict:
        """The report in plain JSON types, as a report envelope stores it."""
        return {
            "schema_version": _REPORT_SCHEMA_VERSION,
            "per_label_auroc": {
                k: None if v is None else float(v) for k, v in self.per_label_auroc.items()
            },
            "mean_auroc": float(self.mean_auroc),
            "ci95": [float(v) for v in self.ci95],
            "n_bootstrap": int(self.n_bootstrap),
            "seed": int(self.seed),
            "undefined_labels": [k for k, v in self.per_label_auroc.items() if v is None],
            "per_replicate_means": list(map(float, self.per_replicate_means)),
        }


def _negatives_below(scores, labels, mask):
    """Where one label's observed positives fall among its observed negatives.

    ``scores`` is ``(models, rows)``. Returns ``(prow, nord, lo, hi)``, or
    ``None`` when the label has no observed positive or no observed
    negative: the positive rows; per model, the negative rows in ascending
    score order; and per model and positive, how many of those negatives
    score below it (``lo``) and at most as high (``hi``). Any label value
    other than 1 under the mask counts as negative.
    """
    rows = np.flatnonzero(mask == 1)
    pos = labels[rows] == 1
    prow, nrow = rows[pos], rows[~pos]
    if prow.size == 0 or nrow.size == 0:
        return None
    nord = nrow[np.argsort(scores[:, nrow], axis=1)]
    neg = np.take_along_axis(scores, nord, axis=1)
    lo = [np.searchsorted(n, s[prow], "left") for n, s in zip(neg, scores)]
    hi = [np.searchsorted(n, s[prow], "right") for n, s in zip(neg, scores)]
    return prow, nord, lo, hi


def per_label_auroc(counts, columns, n_models) -> np.ndarray:
    """AUROC per label, model and draw, from how often each draw takes each row.

    ``counts`` is ``(draws, rows)`` and ``columns`` holds each label's
    :func:`_negatives_below`. Returns ``(labels, models, draws)``, NaN where
    the draw leaves the label without a positive or a negative.
    """
    out = np.full((len(columns), n_models, len(counts)), np.nan)
    for j, column in enumerate(columns):
        if column is None:
            continue
        prow, nord, lo, hi = column
        drawn_pos = counts[:, prow]
        n_neg = counts[:, nord[0]].sum(axis=1)  # each model's order holds every negative
        pairs = drawn_pos.sum(axis=1) * n_neg
        # below[d, k]: drawn negatives among the model's k lowest-scored
        below = np.zeros((len(counts), nord.shape[1] + 1), dtype=np.int64)
        for m in range(n_models):
            np.cumsum(counts[:, nord[m]], axis=1, out=below[:, 1:])
            # a positive scores one per negative below it and one half per
            # tied negative: 2U = sum(p * (lo + hi)), exact in integers
            two_u = (drawn_pos * (below[:, lo[m]] + below[:, hi[m]])).sum(axis=1)
            # U = 2U / 2 is exact, so the AUROC is U / (n_pos * n_neg) rounded once
            out[j, m] = (two_u / 2.0) / np.maximum(pairs, 1)
        out[j][:, pairs == 0] = np.nan
    return out


def _label_means(aucs, draw_names) -> np.ndarray:
    """Per model and draw, the mean of ``aucs`` ``(labels, models, draws)``
    over the defined labels, added in label order. Raises naming the first
    draw, by ``draw_names``, that leaves no label defined."""
    defined = ~np.isnan(aucs)
    total = np.zeros(aucs.shape[1:])
    for auc, ok in zip(aucs, defined):
        np.add(total, auc, out=total, where=ok)
    n_defined = defined[:, 0].sum(axis=0)  # the same for every model
    if not n_defined.all():
        raise MetricError(f"{draw_names[int(np.argmin(n_defined))]}: no label has a defined AUROC")
    return total / n_defined


def auroc(scores, labels) -> float | None:
    """Area under the ROC curve of one label; ``None`` when only one class is present.

    Tied scores credit half a pair, matching the convention of counting
    concordant pairs with ties worth 0.5.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise MetricError("auroc expects matching 1-d scores and labels")
    check_finite(scores, "auroc scores")
    column = _negatives_below(scores[None], labels, np.ones(labels.shape))
    (value,) = per_label_auroc(np.ones((1, scores.size), dtype=np.int64), [column], 1).flat
    return None if np.isnan(value) else value


def bootstrap_ci(
    scores,
    labels,
    mask,
    label_names,
    rng: RngStream,
    n_bootstrap: int = 1000,
) -> list[EvalReport]:
    """Bootstrap the mean AUROC of each model over ``n_bootstrap`` row resamples.

    ``scores`` stacks one ``(rows, labels)`` score matrix per model; every
    model is scored on the same resamples, and one report is returned per
    model. The reported ``mean_auroc`` is the point estimate on the full
    test set; the CI is the nearest-rank 2.5/97.5 percentile of replicate
    means. A label that degenerates to a single class inside a replicate is
    dropped from that replicate's mean. Each model's reports equal, bit for
    bit, those of ranking its matrix and every resample of it alone.
    """
    if n_bootstrap < 100:
        raise ConfigError(f"n_bootstrap must be >= 100, got {n_bootstrap}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask)
    if scores.ndim != 3 or not scores.shape[0] or scores.shape[1:] != labels.shape \
            or labels.shape != mask.shape:
        raise MetricError(
            "scores must stack one or more (rows, labels) matrices shaped like labels and mask"
        )
    if labels.shape[1] != len(label_names):
        raise MetricError("label_names length must match score columns")
    check_finite(scores, "bootstrap_ci scores")
    n_models, n = scores.shape[:2]

    columns = [
        _negatives_below(scores[:, :, j], labels[:, j], mask[:, j]) for j in range(labels.shape[1])
    ]
    # the point estimate is the draw that takes every row once
    points = per_label_auroc(np.ones((1, n), dtype=np.int64), columns, n_models)
    point_means = _label_means(points, ["mean_auroc"])[:, 0]

    replicate_means = np.empty((n_models, n_bootstrap))
    for first in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        block = range(first, min(first + _BOOTSTRAP_BLOCK, n_bootstrap))
        # counts[b, i]: how often replicate first + b drew row i, from one
        # bincount with each replicate's draws shifted into its own row
        draws = rng.child_integers([f"boot:{r}" for r in block], n, n)
        draws += np.arange(0, len(block) * n, n)[:, None]
        counts = np.bincount(draws.ravel(), minlength=len(block) * n).reshape(len(block), n)
        replicate_means[:, block.start:block.stop] = _label_means(
            per_label_auroc(counts, columns, n_models), [f"bootstrap replicate {r}" for r in block]
        )

    reports = []
    for point, point_mean, means in zip(points[:, :, 0].T, point_means, replicate_means):
        ordered = np.sort(means)
        reports.append(EvalReport(
            per_label_auroc={
                name: None if np.isnan(v) else v for name, v in zip(label_names, point)
            },
            mean_auroc=float(point_mean),
            ci95=(_nearest_rank(ordered, 0.025), _nearest_rank(ordered, 0.975)),
            n_bootstrap=n_bootstrap,
            per_replicate_means=means.tolist(),
            seed=rng.seed,
        ))
    return reports


@dataclass(frozen=True)
class ComparisonResult:
    """Paired two-tailed t-test outcome."""

    p_value: float
    significant: bool


def paired_ttest(a, b) -> ComparisonResult:
    """Two-tailed paired t-test on index-aligned samples.

    Conventions: identical samples give t=0, p=1; a constant nonzero
    difference has zero variance and is treated as t=+/-inf, p=0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise MetricError("paired_ttest expects equal-length 1-d samples")
    n = a.size
    if n < 2:
        raise MetricError(f"paired_ttest needs n >= 2, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        p = 1.0 if mean == 0.0 else 0.0
    else:
        p = student_t_two_tailed(mean / (sd / math.sqrt(n)), n - 1)
    return ComparisonResult(p_value=p, significant=p < SIGNIFICANCE_LEVEL)

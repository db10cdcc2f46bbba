"""Per-label AUROC, bootstrap confidence intervals, and the paired t-test.

AUROC uses the rank form of the Mann-Whitney statistic with average ranks
for ties. Rank sums are exact multiples of 0.5 well inside the float64
integer range, so the result is bit-identical to exhaustive pair
enumeration, ties included.

Bootstrap replicates resample test rows with replacement; replicate ``r``
draws its indices from a stream derived by the label ``boot:r``. One call
scores every model evaluated on a test set and label view against the same
draws, so their per-replicate means pair up for the t-test and each
resample is drawn once, not once per model. A replicate's AUROC depends
only on how often each row was drawn: per call, each label's observed
negatives are sorted once per model, and ``searchsorted`` places every
observed positive among them. A replicate's Mann-Whitney count is then
integer arithmetic on its draw counts: a running count of drawn negatives
in score order, read at each positive's two ``searchsorted`` bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MetricError
from .numerics import RngStream
from .special import student_t_two_tailed

SIGNIFICANCE_LEVEL = 0.05
_REPORT_SCHEMA_VERSION = 1
# Bootstrap replicates scored together; bounds the (replicates, rows) count
# arrays so memory does not grow with n_bootstrap.
_BOOTSTRAP_BLOCK = 32


def auroc(scores, labels) -> float | None:
    """Area under the ROC curve; ``None`` when only one class is present.

    Tied scores credit half a pair, matching the convention of counting
    concordant pairs with ties worth 0.5.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise MetricError("auroc expects matching 1-d scores and labels")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    boundary = np.empty(s.size + 1, dtype=bool)
    boundary[0] = True
    boundary[-1] = True
    boundary[1:-1] = s[1:] != s[:-1]
    edges = np.flatnonzero(boundary)
    starts, ends = edges[:-1], edges[1:]
    # 1-based ranks within a tie group [start, end) average to (start+1+end)/2.
    group_rank = (starts + 1 + ends) / 2.0
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    rank_sum_pos = ranks[pos].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def per_label_auroc(scores, labels, mask, label_names) -> dict[str, float | None]:
    """AUROC per label column, restricted to rows observed for that label."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask)
    out: dict[str, float | None] = {}
    for j, name in enumerate(label_names):
        rows = mask[:, j] == 1
        if not rows.any():
            out[name] = None
            continue
        out[name] = auroc(scores[rows, j], labels[rows, j])
    return out


def mean_auroc(per_label: dict[str, float | None]) -> float:
    """Arithmetic mean over defined labels; undefined labels are excluded."""
    defined = [v for v in per_label.values() if v is not None]
    if not defined:
        raise MetricError("mean_auroc: no label has a defined AUROC")
    return float(sum(defined) / len(defined))


def undefined_labels(per_label: dict[str, float | None]) -> list[str]:
    return [name for name, v in per_label.items() if v is None]


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
    undefined: list[str] = field(default_factory=list)

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
            "undefined_labels": list(self.undefined),
            "per_replicate_means": list(map(float, self.per_replicate_means)),
        }


def _negatives_below(scores, labels, mask):
    """Where one label's observed positives fall among its observed negatives.

    ``scores`` is ``(models, rows)``. Returns ``(prow, nord, lo, hi)``, or
    ``None`` when the label has no observed positive or no observed
    negative: the positive rows; per model, the negative rows in ascending
    score order; and per model and positive, how many of those negatives
    score below it (``lo``) and at most as high (``hi``). Any label value
    other than 1 under the mask counts as negative, as in :func:`auroc`.
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
    dropped from that replicate's mean. For finite scores each model's
    replicate means equal, bit for bit, those of ranking every resample of
    its matrix alone with :func:`auroc`.
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
    n_models, n = scores.shape[:2]

    points = [per_label_auroc(s, labels, mask, label_names) for s in scores]
    point_means = [mean_auroc(point) for point in points]

    columns = [
        _negatives_below(scores[:, :, j], labels[:, j], mask[:, j]) for j in range(labels.shape[1])
    ]
    replicate_means = np.empty((n_models, n_bootstrap))
    for first in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        block = range(first, min(first + _BOOTSTRAP_BLOCK, n_bootstrap))
        # counts[b, i]: how often replicate first + b drew row i
        counts = np.stack(
            [np.bincount(rng.child(f"boot:{r}").integers(0, n, size=n), minlength=n)
             for r in block]
        )
        total = np.zeros((n_models, len(block)))
        n_defined = np.zeros(len(block), dtype=np.int64)
        # label by label, so each replicate sums its AUROCs in label order
        for column in columns:
            if column is None:
                continue
            prow, nord, lo, hi = column
            drawn_pos = counts[:, prow]
            n_neg = counts[:, nord[0]].sum(axis=1)  # each model's order holds every negative
            pairs = drawn_pos.sum(axis=1) * n_neg
            defined = pairs > 0
            pairs = np.maximum(pairs, 1)
            # below[b, k]: drawn negatives among the model's k lowest-scored
            below = np.zeros((len(block), nord.shape[1] + 1), dtype=np.int64)
            for m in range(n_models):
                np.cumsum(counts[:, nord[m]], axis=1, out=below[:, 1:])
                # a positive scores one per negative below it and one half per
                # tied negative: 2U = sum(p * (lo + hi)), exact in integers
                two_u = (drawn_pos * (below[:, lo[m]] + below[:, hi[m]])).sum(axis=1)
                # U = 2U / 2 is exact, so this is auroc's u / (n_pos * n_neg) bit for bit
                auc = (two_u / 2.0) / pairs
                np.add(total[m], auc, out=total[m], where=defined)
            n_defined += defined
        if not n_defined.all():
            r = block[int(np.argmin(n_defined))]
            raise MetricError(f"bootstrap replicate {r}: no label has a defined AUROC")
        replicate_means[:, block.start:block.stop] = total / n_defined

    reports = []
    for point, point_mean, means in zip(points, point_means, replicate_means):
        ordered = np.sort(means)
        reports.append(EvalReport(
            per_label_auroc=point,
            mean_auroc=point_mean,
            ci95=(_nearest_rank(ordered, 0.025), _nearest_rank(ordered, 0.975)),
            n_bootstrap=n_bootstrap,
            per_replicate_means=means.tolist(),
            seed=rng.seed,
            undefined=undefined_labels(point),
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

"""Per-label AUROC, bootstrap confidence intervals, and the paired t-test.

AUROC uses the rank form of the Mann-Whitney statistic with average ranks
for ties. Rank sums are exact multiples of 0.5 well inside the float64
integer range, so the result is bit-identical to exhaustive pair
enumeration, ties included.

Bootstrap replicates resample test rows with replacement; replicate ``r``
draws its indices from a stream derived by the label ``boot:r``, so two
models evaluated with equal-seed streams share resample indices and their
per-replicate means pair up for the t-test. A replicate's AUROC depends only
on how often each row was drawn, so each label is sorted once per call and a
replicate's Mann-Whitney count is integer arithmetic on its draw counts.
"""

from __future__ import annotations

import json
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


def _ranked_column(scores, labels, mask):
    """One label's observed rows sorted by score, with tie-group starts.

    Returns ``(order, starts, pos)``, or ``None`` when no row is observed:
    rows under the mask in ascending score order, the offset in ``order``
    where each run of equal scores begins, and which sorted rows are
    positive (any other label value under the mask counts as negative, as
    in :func:`auroc`).
    """
    rows = np.flatnonzero(mask == 1)
    if rows.size == 0:
        return None
    order = rows[np.argsort(scores[rows], kind="stable")]
    s = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    return order, starts, labels[order] == 1


def _count_auroc(counts, order, starts, pos):
    """AUROC of one label in each resample given by a row of ``counts``.

    ``counts[b, i]`` is how often row ``i`` was drawn. Per tie group,
    ``p``/``q`` count drawn positives/negatives; a positive scores one for
    each negative below its group and one half for each negative inside it,
    so ``2U = sum(p * (2 * negatives_below + q))``, exact in integers.
    Returns the AUROC per resample and whether both classes were drawn.
    """
    c = counts[:, order]
    p = np.add.reduceat(c * pos, starts, axis=1)
    q = np.add.reduceat(c, starts, axis=1) - p
    neg_through = np.cumsum(q, axis=1)  # negatives below the group, plus q
    two_u = (p * (2 * neg_through - q)).sum(axis=1)
    pairs = p.sum(axis=1) * neg_through[:, -1]
    defined = pairs > 0
    # U = 2U / 2 is exact, so this is auroc's u / (n_pos * n_neg) bit for bit
    return (two_u / 2.0) / np.maximum(pairs, 1), defined


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

    def to_json(self) -> str:
        doc = {
            "schema_version": _REPORT_SCHEMA_VERSION,
            "per_label_auroc": self.per_label_auroc,
            "mean_auroc": self.mean_auroc,
            "ci95": list(self.ci95),
            "n_bootstrap": self.n_bootstrap,
            "seed": self.seed,
            "undefined_labels": self.undefined,
            "per_replicate_means": self.per_replicate_means,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def bootstrap_ci(
    scores,
    labels,
    mask,
    label_names,
    rng: RngStream,
    n_bootstrap: int = 1000,
) -> EvalReport:
    """Bootstrap the mean AUROC over ``n_bootstrap`` row resamples.

    The reported ``mean_auroc`` is the point estimate on the full test set;
    the CI is the nearest-rank 2.5/97.5 percentile of replicate means. A
    label that degenerates to a single class inside a replicate is dropped
    from that replicate's mean. For finite scores the replicate means equal,
    bit for bit, those of ranking every resample with :func:`auroc`.
    """
    if n_bootstrap < 100:
        raise ConfigError(f"n_bootstrap must be >= 100, got {n_bootstrap}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask)
    if scores.shape != labels.shape or scores.shape != mask.shape:
        raise MetricError("scores, labels, and mask must share a shape")
    if scores.shape[1] != len(label_names):
        raise MetricError("label_names length must match score columns")
    n = scores.shape[0]

    point = per_label_auroc(scores, labels, mask, label_names)
    point_mean = mean_auroc(point)

    columns = [
        _ranked_column(scores[:, j], labels[:, j], mask[:, j]) for j in range(scores.shape[1])
    ]
    replicate_means: list[float] = []
    for first in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        block = range(first, min(first + _BOOTSTRAP_BLOCK, n_bootstrap))
        # counts[b, i]: how often replicate first + b drew row i
        counts = np.stack(
            [np.bincount(rng.child(f"boot:{r}").integers(0, n, size=n), minlength=n)
             for r in block]
        )
        total = np.zeros(len(block))
        n_defined = np.zeros(len(block), dtype=np.int64)
        # label by label, so each replicate sums its AUROCs in label order
        for column in columns:
            if column is None:
                continue
            auc, defined = _count_auroc(counts, *column)
            np.add(total, auc, out=total, where=defined)
            n_defined += defined
        if not n_defined.all():
            r = block[int(np.argmin(n_defined))]
            raise MetricError(f"bootstrap replicate {r}: no label has a defined AUROC")
        replicate_means.extend((total / n_defined).tolist())

    ordered = np.sort(np.asarray(replicate_means))
    ci = (_nearest_rank(ordered, 0.025), _nearest_rank(ordered, 0.975))
    return EvalReport(
        per_label_auroc=point,
        mean_auroc=point_mean,
        ci95=ci,
        n_bootstrap=n_bootstrap,
        per_replicate_means=replicate_means,
        seed=rng.seed,
        undefined=undefined_labels(point),
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Paired two-tailed t-test outcome."""

    t_statistic: float
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
        if mean == 0.0:
            t, p = 0.0, 1.0
        else:
            t, p = math.copysign(math.inf, mean), 0.0
    else:
        t = mean / (sd / math.sqrt(n))
        p = student_t_two_tailed(t, n - 1)
    return ComparisonResult(t_statistic=t, p_value=p, significant=p < SIGNIFICANCE_LEVEL)

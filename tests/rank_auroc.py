"""The tie-averaged rank form of AUROC, kept only as a test oracle.

The package computes AUROC with one count kernel, ``metrics.per_label_auroc``.
This module keeps the independent form it replaced: rank each label's
observed scores with average ranks for ties and read the Mann-Whitney U off
the positives' rank sum. Rank sums are exact multiples of 0.5 well inside
the float64 integer range, so the result is bit-identical to exhaustive
pair enumeration, ties included.
"""

import numpy as np

from fedfbn.errors import MetricError


def auroc(scores, labels) -> float | None:
    """Area under the ROC curve; ``None`` when only one class is present.

    Any label other than 1 counts as negative.
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

"""Synthetic multi-label datasets with controllable covariate shift.

Patients carry a latent vector that alone determines their labels; each of
their images is an affine, per-domain view of that latent plus noise. Two
domains built over the same label model therefore share the labeling
mechanism exactly while their feature distributions differ, which isolates
the covariate shift that batch-norm statistics absorb.

Labels live in {0, 1, -1} where -1 marks an uncertain positive; masks mark
which (row, label) entries are observed at all. Splits always move whole
patients so no patient straddles two splits.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, LabelError, ShapeError
from .numerics import RngStream, Tensor


def gaussian_cdf(x):
    """Standard normal CDF, elementwise."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x, dtype=np.float64) / math.sqrt(2.0)))


def gaussian_quantile(q: float) -> float:
    """Inverse standard normal CDF by bisection (deterministic, ~1e-13)."""
    if not (0.0 < q < 1.0):
        raise DataError(f"quantile argument must lie in (0, 1), got {q}")
    lo, hi = -9.0, 9.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:  # gaussian_cdf, scalar
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DomainSpec:
    """Feature-space view of the shared latent population.

    ``shift`` realizes per-domain covariate shift:
    features = M z + shift + noise, with M keyed by ``mix_seed``.
    Domains meant to be affinely related must share ``mix_seed``.
    """

    latent_dim: int = 16
    feature_dim: int = 32
    mix_seed: int = 0
    shift: tuple[float, ...] | None = None
    noise_std: float = 0.0
    images_per_patient: tuple[int, int] = (1, 3)

    def __post_init__(self):
        if self.latent_dim < 1 or self.feature_dim < 1:
            raise ConfigError("latent_dim and feature_dim must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be nonnegative")
        lo, hi = self.images_per_patient
        if not (1 <= lo <= hi):
            raise ConfigError(f"invalid images_per_patient range: {lo}..{hi}")
        if self.shift is not None and len(self.shift) != self.feature_dim:
            raise ConfigError("shift length must equal feature_dim")

    def shift_vector(self) -> Tensor:
        if self.shift is None:
            return np.zeros(self.feature_dim)
        return np.asarray(self.shift, dtype=np.float64)

    def mix_matrix(self) -> Tensor:
        """Latent-to-feature map, a pure function of (mix_seed, dims)."""
        stream = RngStream(self.mix_seed)
        m = stream.standard_normal((self.feature_dim, self.latent_dim))
        return m / math.sqrt(self.latent_dim)


@dataclass(frozen=True)
class LabelModel:
    """Per-label hyperplanes in latent space; shared across domains."""

    weights: tuple[tuple[float, ...], ...]
    thresholds: tuple[float, ...]
    label_names: tuple[str, ...]
    uncertain_rate: float = 0.0

    def __post_init__(self):
        if len(self.weights) != len(self.thresholds) or len(self.weights) != len(self.label_names):
            raise ConfigError("weights, thresholds, and label_names must align")
        if len(set(self.label_names)) != len(self.label_names) or not self.label_names:
            raise ConfigError("label names must be unique and non-empty")
        if not (0.0 <= self.uncertain_rate < 1.0):
            raise ConfigError("uncertain_rate must lie in [0, 1)")

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def weight_matrix(self) -> Tensor:
        return np.asarray(self.weights, dtype=np.float64)

    def threshold_vector(self) -> Tensor:
        return np.asarray(self.thresholds, dtype=np.float64)

    @classmethod
    def sample(
        cls,
        n_labels: int,
        latent_dim: int,
        rng: RngStream,
        uncertain_rate: float = 0.0,
        prevalence_bounds: tuple[float, float] = (0.05, 0.6),
        target_band: tuple[float, float] = (0.05, 0.25),
        label_names: tuple[str, ...] | None = None,
        max_tries: int = 1000,
    ) -> "LabelModel":
        """Rejection-sample hyperplanes whose prevalence stays in bounds.

        Proposals aim a prevalence drawn uniformly from ``target_band``
        (low, disease-style rates keep the all-negative patient stratum
        populated); each proposal is still checked against
        ``prevalence_bounds`` and rejected if degenerate.
        """
        if label_names is None:
            label_names = tuple(f"label{i:02d}" for i in range(n_labels))
        if len(label_names) != n_labels:
            raise ConfigError("label_names length must equal n_labels")
        lo, hi = prevalence_bounds
        weights, thresholds = [], []
        for _ in range(n_labels):
            for attempt in range(max_tries + 1):
                if attempt == max_tries:
                    raise DataError(
                        f"label model rejection failed after {max_tries} tries"
                    )
                w = rng.standard_normal(latent_dim)
                target = target_band[0] + (target_band[1] - target_band[0]) * float(
                    rng.random()
                )
                c = gaussian_quantile(1.0 - target) * float(np.sqrt((w**2).sum()))
                prev = float(gaussian_cdf(-c / float(np.sqrt((w**2).sum()))))
                if lo < prev < hi:
                    weights.append(tuple(float(v) for v in w))
                    thresholds.append(c)
                    break
        return cls(
            weights=tuple(weights),
            thresholds=tuple(thresholds),
            label_names=tuple(label_names),
            uncertain_rate=uncertain_rate,
        )


@dataclass
class Dataset:
    """Images (rows) with multi-label targets, masks, and patient grouping."""

    features: Tensor
    labels: Tensor
    mask: Tensor
    patient_ids: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n, len(self.label_names)):
            raise ShapeError("labels shape must be (rows, n_labels)")
        if self.mask.shape != self.labels.shape:
            raise ShapeError("mask shape must match labels")
        if self.patient_ids.shape != (n,):
            raise ShapeError("patient_ids must have one entry per row")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def rows(self, idx) -> "Dataset":
        """Row-subset copy (keeps all label columns)."""
        return Dataset(
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            mask=self.mask[idx].copy(),
            patient_ids=self.patient_ids[idx].copy(),
            label_names=self.label_names,
        )

    def label_indices(self, names) -> list[int]:
        try:
            return [self.label_names.index(n) for n in names]
        except ValueError as exc:
            raise LabelError(f"unknown label in {names!r}: {exc}") from exc

    def project_labels(self, names) -> "Dataset":
        """Column-subset copy restricted to ``names`` (in the given order)."""
        idx = self.label_indices(names)
        return Dataset(
            features=self.features.copy(),
            labels=self.labels[:, idx].copy(),
            mask=self.mask[:, idx].copy(),
            patient_ids=self.patient_ids.copy(),
            label_names=tuple(names),
        )

    def content_hash(self) -> str:
        """SHA-256 over names, shapes, and raw little-endian payloads."""
        h = hashlib.sha256()
        h.update(",".join(self.label_names).encode("utf-8"))
        for arr in (self.features, self.labels, self.mask):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(self.patient_ids, dtype="<i8").tobytes())
        return h.hexdigest()


def generate(
    domain: DomainSpec,
    label_model: LabelModel,
    n_patients: int,
    rng: RngStream,
    patient_id_start: int = 0,
) -> Dataset:
    """Draw a dataset: latent per patient, affine features per image.

    Labels are thresholded latent projections, so they are independent of
    the domain's shift and noise. With probability ``uncertain_rate``
    each positive label is recoded to -1 (uncertain) for all of the
    patient's images. All masks start at 1.
    """
    if n_patients < 1:
        raise DataError("n_patients must be >= 1")
    z_stream = rng.child("latent")
    img_stream = rng.child("images")
    noise_stream = rng.child("noise")
    unc_stream = rng.child("uncertain")

    z = z_stream.standard_normal((n_patients, domain.latent_dim))
    margins = z @ label_model.weight_matrix().T
    y = (margins > label_model.threshold_vector()).astype(np.float64)
    if label_model.uncertain_rate > 0.0:
        flips = unc_stream.random(y.shape) < label_model.uncertain_rate
        y = np.where((y == 1.0) & flips, -1.0, y)

    lo, hi = domain.images_per_patient
    counts = img_stream.integers(lo, hi + 1, size=n_patients)
    patient_row = np.repeat(np.arange(n_patients), counts)

    base = z @ domain.mix_matrix().T
    features = base[patient_row] + domain.shift_vector()
    if domain.noise_std > 0.0:
        features = features + domain.noise_std * noise_stream.standard_normal(
            features.shape
        )

    return Dataset(
        features=np.ascontiguousarray(features),
        labels=y[patient_row].copy(),
        mask=np.ones((patient_row.size, label_model.n_labels)),
        patient_ids=np.asarray(patient_id_start + patient_row, dtype=np.int64),
        label_names=label_model.label_names,
    )


def apply_u_zeros(ds: Dataset) -> Dataset:
    """Recode uncertain labels (-1) as negatives; masks are untouched."""
    return Dataset(
        features=ds.features.copy(),
        labels=np.where(ds.labels == -1.0, 0.0, ds.labels),
        mask=ds.mask.copy(),
        patient_ids=ds.patient_ids.copy(),
        label_names=ds.label_names,
    )


def _patient_row_split(ds: Dataset, patient_groups) -> list[Dataset]:
    out = []
    for group in patient_groups:
        members = np.isin(ds.patient_ids, group)
        if not members.any():
            raise DataError("split produced an empty part")
        out.append(ds.rows(np.flatnonzero(members)))
    return out


def split_by_patient(ds: Dataset, fractions, rng: RngStream) -> list[Dataset]:
    """Partition whole patients by the given positive fractions (sum 1)."""
    fractions = [float(f) for f in fractions]
    if len(fractions) < 2 or any(f <= 0 for f in fractions):
        raise ConfigError("fractions must be >= 2 positive values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    patients = np.unique(ds.patient_ids)
    perm = patients[rng.permutation(patients.size)]
    bounds = [0]
    cum = 0.0
    for f in fractions:
        cum += f
        bounds.append(round(cum * patients.size))
    bounds[-1] = patients.size
    groups = [perm[bounds[i] : bounds[i + 1]] for i in range(len(fractions))]
    if any(g.size == 0 for g in groups):
        raise DataError("split fractions leave an empty patient group")
    return _patient_row_split(ds, groups)


def _patient_has_positive(ds: Dataset) -> dict[int, bool]:
    observed_pos = (ds.labels == 1.0) & (ds.mask == 1.0)
    any_pos_row = observed_pos.any(axis=1)
    flags: dict[int, bool] = {}
    for pid, pos in zip(ds.patient_ids.tolist(), any_pos_row.tolist()):
        flags[pid] = flags.get(pid, False) or pos
    return flags


def make_iid_halves(ds: Dataset, rng: RngStream) -> tuple[Dataset, Dataset]:
    """Stratified 50/50 patient split on the any-positive/all-negative strata."""
    flags = _patient_has_positive(ds)
    patients = np.unique(ds.patient_ids)
    positive = np.array([p for p in patients if flags[int(p)]], dtype=np.int64)
    negative = np.array([p for p in patients if not flags[int(p)]], dtype=np.int64)
    if positive.size < 2 or negative.size < 2:
        raise DataError(
            "both the any-positive and all-negative strata need >= 2 patients"
        )
    first: list[np.ndarray] = []
    second: list[np.ndarray] = []
    for stratum in (positive, negative):
        shuffled = stratum[rng.permutation(stratum.size)]
        cut = (stratum.size + 1) // 2
        first.append(shuffled[:cut])
        second.append(shuffled[cut:])
    half_a, half_b = _patient_row_split(
        ds, [np.concatenate(first), np.concatenate(second)]
    )
    return half_a, half_b


def concat_naive(a: Dataset, b: Dataset) -> Dataset:
    """Stack rows; the label space becomes the union by name.

    Entries a source never observed get mask 0; no label harmonization.
    """
    if a.feature_dim != b.feature_dim:
        raise ShapeError(
            f"feature_dim mismatch: {a.feature_dim} vs {b.feature_dim}"
        )
    union = list(a.label_names) + [n for n in b.label_names if n not in a.label_names]
    n_out = a.n + b.n
    labels = np.zeros((n_out, len(union)))
    mask = np.zeros((n_out, len(union)))
    for src, row0 in ((a, 0), (b, a.n)):
        cols = [union.index(n) for n in src.label_names]
        labels[row0 : row0 + src.n, cols] = src.labels
        mask[row0 : row0 + src.n, cols] = src.mask
    return Dataset(
        features=np.vstack([a.features, b.features]),
        labels=labels,
        mask=mask,
        patient_ids=np.concatenate([a.patient_ids, b.patient_ids]),
        label_names=tuple(union),
    )


def save_tabular(ds: Dataset, fh) -> None:
    """Write ``ds`` as comma-separated text to an open text handle.

    Columns: ``patient_id``, ``f0..f<D-1>``, then one per label. Features
    use 17 significant digits, so float64 values survive the round-trip
    exactly; a blank label cell means unobserved (mask 0).
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["patient_id", *(f"f{i}" for i in range(ds.feature_dim)), *ds.label_names]
    )
    for i in range(ds.n):
        row = [str(int(ds.patient_ids[i]))]
        row.extend(f"{v:.17g}" for v in ds.features[i])
        for j in range(len(ds.label_names)):
            if ds.mask[i, j] == 0:
                row.append("")
            else:
                row.append(str(int(ds.labels[i, j])))
        writer.writerow(row)


def shifted_domain(
    base: DomainSpec, rng: RngStream, shift_magnitude: float
) -> DomainSpec:
    """Derive a covariate-shifted sibling of ``base`` (same mix matrix).

    Per-feature offsets are drawn N(0, shift_magnitude^2); noise is
    inherited.
    """
    offsets = shift_magnitude * rng.standard_normal(base.feature_dim)
    return replace(base, shift=tuple(float(v) for v in offsets))

"""Synthetic multi-label datasets with controllable covariate shift.

Patients carry a latent vector that alone determines their labels; each of
their images is an affine, per-domain view of that latent plus noise. Two
domains built over the same label model therefore share the labeling
mechanism exactly while their feature distributions differ, which isolates
the covariate shift that batch-norm statistics absorb.

Labels live in {0, 1}: an uncertain positive is drawn as 0 (the u-zeros
policy), and masks mark which (row, label) entries are observed at all.
Splits always move whole patients so no patient straddles two splits.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, LabelError, ShapeError
from .numerics import RngStream, Tensor


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_quantile(q: float) -> float:
    """Inverse standard normal CDF by bisection (deterministic, ~1e-13)."""
    lo, hi = -9.0, 9.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if gaussian_cdf(mid) < q:
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
    """Per-label hyperplanes in latent space; shared across domains.

    ``uncertain_rate`` is the chance that a positive is uncertain, which
    :func:`generate` records as 0.
    """

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

    @classmethod
    def sample(
        cls,
        n_labels: int,
        latent_dim: int,
        rng: RngStream,
        uncertain_rate: float = 0.0,
        label_names: tuple[str, ...] | None = None,
    ) -> "LabelModel":
        """Draw each label's hyperplane ``w`` and its prevalence.

        The target prevalence is uniform on 5-25% (low, disease-style rates
        keep the all-negative patient stratum populated). Under the standard normal latent, ``w . z > c`` holds
        with probability Phi(-c / |w|), so ``c = Phi^-1(1 - target) |w|``
        gives exactly the target.
        """
        if label_names is None:
            label_names = tuple(f"label{i:02d}" for i in range(n_labels))
        weights, thresholds = [], []
        for _ in range(n_labels):
            w = rng.standard_normal(latent_dim)
            target = 0.05 + (0.25 - 0.05) * float(rng.random())
            weights.append(tuple(float(v) for v in w))
            thresholds.append(gaussian_quantile(1.0 - target) * float(np.sqrt((w**2).sum())))
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
    each positive label is uncertain and, under u-zeros, drawn as 0 for
    all of the patient's images. All masks start at 1.
    """
    z = rng.child("latent").standard_normal((n_patients, domain.latent_dim))
    positive = z @ np.asarray(label_model.weights).T > np.asarray(label_model.thresholds)
    if label_model.uncertain_rate > 0.0:
        positive &= rng.child("uncertain").random(positive.shape) >= label_model.uncertain_rate

    lo, hi = domain.images_per_patient
    counts = rng.child("images").integers(lo, hi + 1, size=n_patients)
    patient_row = np.repeat(np.arange(n_patients), counts)

    base = z @ domain.mix_matrix().T
    features = base[patient_row] + domain.shift_vector()
    if domain.noise_std > 0.0:
        features += domain.noise_std * rng.child("noise").standard_normal(features.shape)

    return Dataset(
        features=np.ascontiguousarray(features),
        labels=positive[patient_row].astype(np.float64),
        mask=np.ones((patient_row.size, positive.shape[1])),
        patient_ids=np.asarray(patient_id_start + patient_row, dtype=np.int64),
        label_names=label_model.label_names,
    )


def _patient_row_split(ds: Dataset, patient_groups) -> list[Dataset]:
    """Each group's rows; every group holds patients of ``ds``, so no part is empty."""
    return [ds.rows(np.flatnonzero(np.isin(ds.patient_ids, group))) for group in patient_groups]


def split_bounds(n: int, fractions) -> list[int]:
    """Where ``split_by_patient`` cuts ``n`` shuffled patients into parts."""
    return [0, *(round(cum * n) for cum in itertools.accumulate(fractions[:-1])), n]


def split_by_patient(ds: Dataset, fractions, rng: RngStream) -> list[Dataset]:
    """Partition whole patients by the given positive fractions (sum 1)."""
    fractions = [float(f) for f in fractions]
    patients = np.unique(ds.patient_ids)
    perm = patients[rng.permutation(patients.size)]
    bounds = split_bounds(patients.size, fractions)
    groups = [perm[start:stop] for start, stop in zip(bounds, bounds[1:])]
    empty = [part for part, g in enumerate(groups, 1) if g.size == 0]
    if empty:
        raise DataError(f"split of {patients.size} patients by fractions {fractions} leaves part "
                        f"{empty[0]} of {len(groups)} empty; raise n_patients_per_node")
    return _patient_row_split(ds, groups)


def make_iid_halves(ds: Dataset, rng: RngStream) -> tuple[Dataset, Dataset]:
    """Stratified 50/50 patient split on the any-positive/all-negative strata."""
    has_positive = ((ds.labels == 1.0) & (ds.mask == 1.0)).any(axis=1)
    positive = np.unique(ds.patient_ids[has_positive])
    negative = np.setdiff1d(ds.patient_ids, positive)
    if positive.size < 2 or negative.size < 2:
        raise DataError(
            f"iid halves need >= 2 patients per stratum, got {positive.size} any-positive and "
            f"{negative.size} all-negative; lower n_labels or raise n_patients_per_node"
        )
    first: list[np.ndarray] = []
    second: list[np.ndarray] = []
    for stratum in (positive, negative):
        shuffled = stratum[rng.permutation(stratum.size)]
        cut = (stratum.size + 1) // 2
        first.append(shuffled[:cut])
        second.append(shuffled[cut:])
    half_a, half_b = _patient_row_split(ds, [np.concatenate(first), np.concatenate(second)])
    return half_a, half_b


def concat_naive(a: Dataset, b: Dataset) -> Dataset:
    """Stack rows; the label space becomes the union by name.

    Entries a source never observed get mask 0; no label harmonization.
    """
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

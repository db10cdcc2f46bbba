"""Synthetic data generation, splits, label plumbing, and tabular output."""

import csv
import io
import math

import numpy as np
import pytest

from fedfbn.datagen import (
    DomainSpec,
    LabelModel,
    concat_naive,
    gaussian_cdf,
    gaussian_quantile,
    generate,
    make_iid_halves,
    save_tabular,
    shifted_domain,
    split_by_patient,
)
from fedfbn.errors import DataError
from fedfbn.numerics import RngStream


def small_label_model(seed=1, n_labels=4, latent_dim=6, u=0.0):
    return LabelModel.sample(n_labels, latent_dim, RngStream(seed), uncertain_rate=u)


def analytic_prevalence(lm):
    """P(label = 1) under the standard normal latent: the Gaussian tail."""
    return np.array([
        0.5 * math.erfc(c / (math.sqrt(2.0) * float(np.linalg.norm(w))))
        for w, c in zip(lm.weights, lm.thresholds)
    ])


def small_dataset(seed=2, n_patients=60, u=0.0, noise=0.1):
    domain = DomainSpec(latent_dim=6, feature_dim=9, mix_seed=3, noise_std=noise)
    lm = small_label_model(u=u)
    return generate(domain, lm, n_patients, RngStream(seed))


def test_gaussian_quantile_inverts_cdf():
    for q in (0.01, 0.1, 0.5, 0.75, 0.95, 0.999):
        assert abs(gaussian_cdf(gaussian_quantile(q)) - q) < 1e-9


def test_gaussian_quantile_matches_the_bisection_over_the_array_cdf():
    def oracle(q):  # the same bisection, with each step through gaussian_cdf
        lo, hi = -9.0, 9.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if float(gaussian_cdf(mid)) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    qs = [i / 293 for i in range(1, 293)] + [1e-15, 1e-9, 0.05, 0.5, 0.95, 1 - 1e-9, 1 - 2**-52]
    for q in qs:
        assert gaussian_quantile(q) == oracle(q), q


def test_label_model_prevalence_in_bounds():
    lm = LabelModel.sample(14, 16, RngStream(5))
    prev = analytic_prevalence(lm)
    assert ((prev > 0.05) & (prev < 0.6)).all()


def test_label_model_prevalence_lies_in_the_target_band():
    # each threshold sits at the drawn target's Gaussian quantile
    for seed in range(300):
        prev = analytic_prevalence(LabelModel.sample(14, 16, RngStream(seed)))
        assert ((prev > 0.05 - 1e-12) & (prev < 0.25 + 1e-12)).all(), seed


def test_generate_labels_come_from_latent_only():
    # same latent stream, different affine maps: labels agree, features differ
    lm = small_label_model()
    d0 = DomainSpec(latent_dim=6, feature_dim=9, mix_seed=3, noise_std=0.0)
    d1 = shifted_domain(d0, RngStream(40), 2.0)
    a = generate(d0, lm, 50, RngStream(41))
    b = generate(d1, lm, 50, RngStream(41))
    assert np.array_equal(a.labels, b.labels)
    assert not np.allclose(a.features, b.features)
    # and with zero noise the features are related by the affine map
    want = a.features - d0.shift_vector() + d1.shift_vector()
    assert np.max(np.abs(b.features - want)) < 1e-9


def test_generate_prevalence_matches_gaussian_tail():
    lm = small_label_model(seed=9)
    domain = DomainSpec(latent_dim=6, feature_dim=9, mix_seed=3)
    ds = generate(domain, lm, 10_000, RngStream(10))
    pids, first_rows = np.unique(ds.patient_ids, return_index=True)
    per_patient = ds.labels[first_rows]
    empirical = (per_patient == 1.0).mean(axis=0)
    assert np.max(np.abs(empirical - analytic_prevalence(lm))) < 0.05


def test_generate_uncertain_recoding():
    # one seed at two rates: the uncertain draw only turns positives into 0
    clean = small_dataset(seed=12, n_patients=400, u=0.0)
    noisy = small_dataset(seed=12, n_patients=400, u=0.4)
    assert np.array_equal(clean.features, noisy.features)
    assert np.array_equal(clean.patient_ids, noisy.patient_ids)
    changed = clean.labels != noisy.labels
    assert changed.any()
    assert (clean.labels[changed] == 1.0).all() and (noisy.labels[changed] == 0.0).all()
    assert set(np.unique(noisy.labels)) <= {0.0, 1.0}


def test_split_by_patient_is_disjoint_partition():
    ds = small_dataset(seed=16, n_patients=200)
    train, val, test = split_by_patient(ds, (0.7, 0.1, 0.2), RngStream(17))
    sets = [set(p.patient_ids.tolist()) for p in (train, val, test)]
    assert sets[0] & sets[1] == set()
    assert sets[0] & sets[2] == set()
    assert sets[1] & sets[2] == set()
    assert train.n + val.n + test.n == ds.n


def test_split_by_patient_sizes():
    domain = DomainSpec(latent_dim=6, feature_dim=9, mix_seed=3,
                        images_per_patient=(1, 1))
    ds = generate(domain, small_label_model(), 1000, RngStream(18))
    train, val, test = split_by_patient(ds, (0.7, 0.1, 0.2), RngStream(19))
    assert abs(train.n - 700) <= 1
    assert abs(val.n - 100) <= 1
    assert abs(test.n - 200) <= 1


def test_split_by_patient_rejects_empty_parts():
    ds = small_dataset(seed=20, n_patients=3)
    with pytest.raises(DataError, match="3 patients .* leaves part 2 of 3 empty"):
        split_by_patient(ds, (0.98, 0.01, 0.01), RngStream(21))


def test_make_iid_halves_partition_and_balance():
    ds = small_dataset(seed=22, n_patients=400)
    a, b = make_iid_halves(ds, RngStream(23))
    pa, pb = set(a.patient_ids.tolist()), set(b.patient_ids.tolist())
    assert pa & pb == set()
    assert pa | pb == set(ds.patient_ids.tolist())
    pos = {p for p, flag in _patient_positive_map(ds).items() if flag}
    assert abs(len(pos & pa) - len(pos & pb)) <= 1


def _patient_positive_map(ds):
    observed = (ds.labels == 1.0) & (ds.mask == 1.0)
    flags = {}
    for pid, has in zip(ds.patient_ids.tolist(), observed.any(axis=1).tolist()):
        flags[pid] = flags.get(pid, False) or has
    return flags


def test_make_iid_halves_prevalence_close():
    ds = small_dataset(seed=24, n_patients=2000)
    a, b = make_iid_halves(ds, RngStream(25))
    prev_a = (a.labels == 1.0).mean(axis=0)
    prev_b = (b.labels == 1.0).mean(axis=0)
    assert np.max(np.abs(prev_a - prev_b)) <= 0.05


def test_make_iid_halves_needs_both_strata():
    ds = small_dataset(seed=26, n_patients=40)
    ds.labels[:, :] = 1.0  # no all-negative patients left
    with pytest.raises(DataError, match="got 40 any-positive and 0 all-negative; lower n_labels"):
        make_iid_halves(ds, RngStream(27))


def test_concat_naive_union_and_masks():
    ds = small_dataset(seed=31, n_patients=30)
    names = ds.label_names
    a = ds.project_labels(names[:3])
    b = ds.project_labels(names[1:])
    out = concat_naive(a, b)
    assert out.n == a.n + b.n
    assert set(out.label_names) == set(names)
    only_b = [n for n in names if n not in names[:3]]
    cols = [out.label_names.index(n) for n in only_b]
    assert (out.mask[: a.n, cols] == 0.0).all()
    assert (out.mask[a.n :, out.label_names.index(names[0])] == 0.0).all()


def test_concat_naive_empty_identity():
    ds = small_dataset(seed=32, n_patients=20)
    empty = ds.rows(np.array([], dtype=np.int64))
    out = concat_naive(ds, empty)
    assert out.n == ds.n
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.mask, ds.mask)


def test_save_tabular_writes_every_value_exactly():
    ds = small_dataset(seed=34, n_patients=25, u=0.2)
    ds.mask[3, 1] = 0.0
    buf = io.StringIO()
    save_tabular(ds, buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    d = ds.feature_dim
    assert header == ["patient_id", *(f"f{i}" for i in range(d)), *ds.label_names]
    assert len(rows) == ds.n
    for i, row in enumerate(rows):
        assert int(row[0]) == ds.patient_ids[i]
        # 17 significant digits give back the same float64, bit for bit
        features = np.array([float(cell) for cell in row[1 : 1 + d]])
        assert features.tobytes() == ds.features[i].tobytes()
        for j, cell in enumerate(row[1 + d :]):
            want = "" if ds.mask[i, j] == 0.0 else str(int(ds.labels[i, j]))
            assert cell == want, (i, j)
    assert rows[3][1 + d + 1] == ""


def test_shifted_domain_changes_only_offsets():
    base = DomainSpec(latent_dim=6, feature_dim=9, mix_seed=3)
    moved = shifted_domain(base, RngStream(35), 1.5)
    assert not np.array_equal(moved.shift_vector(), base.shift_vector())
    assert np.array_equal(moved.mix_matrix(), base.mix_matrix())
    unmoved = shifted_domain(base, RngStream(35), 0.0)
    assert np.array_equal(unmoved.shift_vector(), base.shift_vector())


def test_dataset_content_hash_tracks_content():
    a = small_dataset(seed=36)
    b = small_dataset(seed=36)
    assert a.content_hash() == b.content_hash()
    b.features[0, 0] += 1.0
    assert a.content_hash() != b.content_hash()

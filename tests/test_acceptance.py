"""Acceptance criteria, one test per numbered claim.

Each test checks a single criterion end to end and prints one verdict
line; `pytest -v` therefore shows one pass/fail row per criterion. The
two directional experiment criteria (06, 07) run the full desk-scale
protocol over ten master seeds each and dominate the suite's runtime.
"""

import copy
import json
import math
import os
import time

import numpy as np
import pytest

from fedfbn.cli import main as cli_main
from fedfbn.config import parse_config
from fedfbn.datagen import (
    DomainSpec,
    LabelModel,
    generate,
    make_iid_halves,
    split_by_patient,
)
from fedfbn.experiments import run_experiment
from fedfbn.federation import (
    Node,
    Strategy,
    aggregate,
    evaluate_global,
    extract_bundle,
    merge_heads,
    run_federation,
)
from fedfbn.metrics import auroc, bootstrap_ci, paired_ttest
from fedfbn.network import (
    BnPolicy,
    ModelSpec,
    backward,
    evaluate_loss,
    init_model,
    per_label_params,
    pretrain_backbone,
    warmup_heads,
    with_heads,
)
from fedfbn.numerics import RngStream
from fedfbn.special import student_t_two_tailed

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 50


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} "
          f"{'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


# ------------------------------------------------- criterion 1: gradients


def _fd_loss(model, key, index, delta, x, y, mask, policy):
    probe = copy.deepcopy(model)
    probe.params[key].flat[index] += delta
    loss, _ = backward(probe, x, y, mask, policy)
    return loss


def test_c01_gradients_match_finite_differences():
    started = time.monotonic()
    rng = RngStream(101)
    h = 1e-5
    worst = 0.0
    for case in range(20):
        input_dim = int(rng.integers(2, 7))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(2, 6)) for _ in range(depth))
        labels = tuple(f"l{i}" for i in range(int(rng.integers(1, 4))))
        spec = ModelSpec(input_dim, hidden, labels)
        model = init_model(spec, rng.child(f"init:{case}"))
        policy = BnPolicy.NORMAL if case % 2 == 0 else BnPolicy.FROZEN
        if depth > 0:
            # settle running statistics away from the init so FROZEN
            # normalizes with something non-trivial
            warm = rng.child(f"warm:{case}").standard_normal((6, input_dim))
            backward(model, warm, np.zeros((6, len(labels))),
                     np.ones((6, len(labels))), BnPolicy.NORMAL)
        batch = int(rng.integers(2, 6))
        x = rng.child(f"x:{case}").standard_normal((batch, input_dim))
        y = (rng.child(f"y:{case}").random((batch, len(labels))) < 0.5)
        y = y.astype(np.float64)
        mask = np.ones_like(y)
        mask.flat[int(rng.integers(0, mask.size))] = 0.0
        if not mask.sum():
            mask[:] = 1.0
        _, grads = backward(copy.deepcopy(model), x, y, mask, policy)
        for key, g in grads.items():
            for i in range(g.size):
                up = _fd_loss(model, key, i, +h, x, y, mask, policy)
                dn = _fd_loss(model, key, i, -h, x, y, mask, policy)
                fd = (up - dn) / (2.0 * h)
                a = g.flat[i]
                if abs(a) < 1e-6 and abs(fd) < 1e-6:
                    assert abs(a - fd) < 1e-8, (case, key, i)
                    continue
                rel = abs(a - fd) / max(abs(a), abs(fd))
                worst = max(worst, rel)
                assert rel < 1e-4, (case, key, i, a, fd)
    elapsed = time.monotonic() - started
    _verdict(1, elapsed < 30.0,
             f"20 gradient instances, worst rel err {worst:.2e}, "
             f"{elapsed:.1f}s (< 30s)")


# ----------------------------------------------- criterion 2: aggregation

AGG_SPEC = ModelSpec(4, (5, 3), ())


def _bundle(labels, node_id, seed, train_shift=None):
    from fedfbn.network import train_epochs

    model = init_model(ModelSpec(4, (5, 3), tuple(labels)), RngStream(seed))
    if train_shift is not None:
        rng = RngStream(seed + 1)
        x = rng.standard_normal((16, 4)) + train_shift
        y = (rng.random((16, len(labels))) < 0.5).astype(np.float64)
        train_epochs(model, x, y, np.ones_like(y), epochs=1,
                     lr_by_block={"representation": 0.05, "heads": 0.05},
                     policy=BnPolicy.NORMAL, batch_size=8,
                     rng=RngStream(seed + 2))
    return extract_bundle(model, node_id, 0, 16)


def test_c02_aggregation_matches_independent_oracles():
    b0 = _bundle(("a", "b"), 0, 11, train_shift=0.5)
    b1 = _bundle(("b", "c"), 1, 12, train_shift=-0.5)

    avg = aggregate([b0, b1], Strategy.FEDAVG, AGG_SPEC)
    for key, got in avg.params.items():
        if key.startswith("heads/"):
            continue
        want = 0.5 * b0.entries[key]
        want = want + 0.5 * b1.entries[key]
        assert np.array_equal(got, want), ("fedavg", key)

    bn = aggregate([b0, b1], Strategy.FEDBN, AGG_SPEC)
    for node_id, bundle in ((0, b0), (1, b1)):
        for key, value in bundle.entries.items():
            if key.startswith("bn"):
                stored = bn.per_node_bn[node_id][key]
                assert stored.tobytes() == value.tobytes(), key
    for key, got in bn.params.items():
        if key.startswith("heads/"):
            continue
        want = 0.5 * b0.entries[key]
        want = want + 0.5 * b1.entries[key]
        assert np.array_equal(got, want), ("fedbn", key)

    rng = RngStream(202)
    pool = tuple(f"l{i}" for i in range(6))
    for case in range(100):
        k = int(rng.integers(2, 5))
        bundles = []
        for node in range(k):
            count = int(rng.integers(1, 7))
            picks = sorted(rng.permutation(6).tolist()[:count])
            bundles.append(
                _bundle(tuple(pool[i] for i in picks), node,
                        int(rng.integers(0, 10**6)))
            )
        weights = {b.node_id: 1.0 / k for b in bundles}
        heads, union = merge_heads(bundles, weights)
        views = {b.node_id: per_label_params(b.entries, b.head_labels) for b in bundles}
        merged = per_label_params(heads, union)
        seen = []
        for b in bundles:
            seen.extend(l for l in b.head_labels if l not in seen)
        assert union == tuple(seen), case
        for label in seen:
            owners = [b for b in bundles if label in b.head_labels]
            total = sum(weights[b.node_id] for b in owners)
            for name in ("weight", "bias"):
                key = f"head:{label}/{name}"
                if len(owners) == 1:
                    want = views[owners[0].node_id][key]
                else:
                    want = (weights[owners[0].node_id] / total) * views[owners[0].node_id][key]
                    for b in owners[1:]:
                        want = want + (weights[b.node_id] / total) * views[b.node_id][key]
                assert np.array_equal(merged[key], want), (case, label)
    _verdict(2, True, "FedAvg/FedBN mean oracles exact; "
                      "head merge matches on 100 random topologies")


# -------------------------------------------- criterion 3: frozen BN


def test_c03_fedfbn_keeps_bn_at_pretrained_values_every_round():
    master = RngStream(303)
    spec = ModelSpec(12, (8, 4), ())
    pre_rng = master.child("pretrain-data")
    pre_x = pre_rng.standard_normal((200, 12))
    pre_y = (pre_rng.random((200, 4)) < 0.3).astype(np.float64)
    trunk = pretrain_backbone(
        spec, pre_x, pre_y, np.ones_like(pre_y),
        source_labels=("s0", "s1", "s2", "s3"),
        epochs=2, rng=master.child("pretrain"), lr=1e-2, batch_size=16,
    )
    frozen = {
        key: value.tobytes()
        for key, value in extract_bundle(trunk, 0, 0, 1).entries.items()
        if key.startswith("bn")
    }

    def node(node_id, labels, shift):
        rng = master.child(f"data:{node_id}")
        x = rng.standard_normal((160, 12)) + shift
        y = (rng.random((160, len(labels))) < 0.4).astype(np.float64)
        vx = rng.standard_normal((40, 12)) + shift
        vy = (rng.random((40, len(labels))) < 0.4).astype(np.float64)

        class Part:
            pass

        train, val = Part(), Part()
        train.features, train.labels, train.mask = x, y, np.ones_like(y)
        val.features, val.labels, val.mask = vx, vy, np.ones_like(vy)
        model = with_heads(trunk, labels, master.child("heads"))
        warmup_heads(model, x, y, train.mask, epochs=1,
                     rng=master.child(f"warmup:{node_id}"), lr=1e-2,
                     batch_size=16)
        return Node(node_id=node_id, train=train, val=val, model=model,
                    rng=master.child(f"batches:{node_id}"), lr=0.05,
                    batch_size=16)

    nodes = [node(0, ("a", "b", "c"), 1.0), node(1, ("b", "c", "d"), -1.0)]
    rounds_checked = []

    def check(report):
        for n in nodes:
            got = extract_bundle(n.model, n.node_id, 0, 1).entries
            for key, value in got.items():
                if key.startswith("bn"):
                    assert value.tobytes() == frozen[key], (
                        report.round_index, n.node_id, key)
        rounds_checked.append(report.round_index)

    fed = run_federation(nodes, Strategy.FEDFBN, rounds=30, on_round=check)
    assert rounds_checked == list(range(30))
    # each node's model is the last global model, materialized for that node
    for params in [fed.best.params] + [n.model.params for n in nodes]:
        for key, blob in frozen.items():
            assert params[key].tobytes() == blob
    _verdict(3, True, "30 rounds x 2 nodes: every BN tensor bit-equal "
                      "to its pretrained value at every round")


# ----------------------------------------------- criterion 4: AUROC


def _pair_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def test_c04_auroc_equals_exhaustive_pair_enumeration():
    rng = RngStream(404)
    for case in range(100):
        n = int(rng.integers(2, 201))
        labels = (rng.child(f"y:{case}").random(n) < 0.4).astype(np.int64)
        raw = rng.child(f"s:{case}").random(n)
        # quantize most cases so tied scores actually occur
        if case % 3 != 0:
            raw = np.round(raw * int(rng.integers(2, 12))) / 10.0
        got = auroc(raw, labels)
        want = _pair_oracle(raw.tolist(), labels.tolist())
        assert got == want, (case, n, got, want)
    _verdict(4, True, "rank AUROC == O(n^2) pair enumeration on "
                      "100 random instances, ties included")


# ------------------------------------------- criterion 5: statistics


def _mp_t_and_p(a, b):
    d = [mpmath.mpf(float(x)) - mpmath.mpf(float(y)) for x, y in zip(a, b)]
    n = len(d)
    mean = mpmath.fsum(d) / n
    var = mpmath.fsum((x - mean) ** 2 for x in d) / (n - 1)
    t = mean / mpmath.sqrt(var / n)
    df = mpmath.mpf(n - 1)
    p = mpmath.betainc(df / 2, mpmath.mpf(1) / 2,
                       x2=df / (df + t * t), regularized=True)
    return float(t), float(p)


def test_c05_statistics_sanity():
    same = [0.7, 0.8, 0.75, 0.9]
    res = paired_ttest(same, same)
    assert res.p_value == 1.0 and not res.significant

    rng = RngStream(505)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(3, 40))
        a = rng.child(f"a:{case}").random(n)
        b = a + 0.05 * rng.child(f"b:{case}").standard_normal(n)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.significant == rev.significant
        assert fwd.p_value == rev.p_value
        t_ref, p_ref = _mp_t_and_p(a, b)
        # the p-value of the reference statistic, through the same tail
        p_of_t_ref = student_t_two_tailed(t_ref, n - 1)
        worst = max(worst, abs(fwd.p_value - p_of_t_ref),
                    abs(fwd.p_value - p_ref))
        assert abs(fwd.p_value - p_of_t_ref) < 1e-9, case
        assert abs(fwd.p_value - p_ref) < 1e-9, case

    data_rng = RngStream(506)
    scores = data_rng.random((120, 2))
    labels = (data_rng.random((120, 2)) < 0.4).astype(np.float64)
    mask = np.ones_like(labels)
    names = ["u", "v"]
    (rep1,) = bootstrap_ci(scores[None], labels, mask, names, RngStream(9), 200)
    (rep2,) = bootstrap_ci(scores[None], labels, mask, names, RngStream(9), 200)
    assert json.dumps(rep1.to_dict()) == json.dumps(rep2.to_dict())

    # perfectly separated scores: every replicate's mean AUROC is 1.0
    sep_labels = (np.arange(60) < 24).astype(np.float64).reshape(-1, 1)
    sep_scores = sep_labels * 0.9 + 0.05
    (point,) = bootstrap_ci(sep_scores[None], sep_labels, np.ones_like(sep_labels),
                            ["w"], RngStream(10), 200)
    assert point.ci95 == (1.0, 1.0)
    _verdict(5, True, f"t-test identity/antisymmetry, high-precision match "
                      f"(worst {worst:.1e}), deterministic bootstrap, "
                      f"point CI on constant replicates")


# -------------------------------- criteria 6 and 7: directional claims

NON_IID_PARTIAL = """
[experiment]
scenario = non_iid_partial
seed = {seed}
rounds = 30
n_bootstrap = 100
arms = fedfbn,fedavg,fedbn
[data]
n_patients_per_node = 2000
[training]
node_lrs = 0.05, 0.25
warmup_epochs = 2
warmup_lr = 5e-2
pretrain_epochs = 2
"""

IID_COMPLETE = """
[experiment]
scenario = iid_complete
seed = {seed}
rounds = 30
n_bootstrap = 100
arms = fedfbn,centralized
[data]
n_patients_per_node = 2000
[training]
lr = 5e-2
warmup_epochs = 2
warmup_lr = 5e-2
pretrain_epochs = 2
"""


def test_c06_fedfbn_beats_fedavg_and_fedbn_on_non_iid_partial():
    started = time.monotonic()
    beats_avg = beats_bn = 0
    seeds = range(10)
    for seed in seeds:
        result = run_experiment(parse_config(NON_IID_PARTIAL.format(seed=seed)))
        for arm, arm_result in result.arms.items():
            assert arm_result.error is None, (seed, arm, arm_result.error)
        fbn = result.arms["fedfbn"].reports[("external", "all", "")].mean_auroc
        avg = result.arms["fedavg"].reports[("external", "all", "")].mean_auroc
        bn0 = result.arms["fedbn"].reports[("external", "all", "node0")].mean_auroc
        bn1 = result.arms["fedbn"].reports[("external", "all", "node1")].mean_auroc
        beats_avg += fbn > avg
        beats_bn += fbn > bn0 and fbn > bn1
        print(f"  seed {seed}: fedfbn={fbn:.4f} fedavg={avg:.4f} "
              f"fedbn=({bn0:.4f}, {bn1:.4f})")
    elapsed = time.monotonic() - started
    _verdict(6, beats_avg >= 8 and beats_bn >= 9 and elapsed < 900.0,
             f"external mean AUROC: beats fedavg {beats_avg}/10 (need 8), "
             f"beats both fedbn models {beats_bn}/10 (need 9), "
             f"{elapsed:.0f}s (< 900s)")


def test_c07_fedfbn_tracks_centralized_on_iid_complete():
    within = 0
    gaps = []
    for seed in range(10):
        result = run_experiment(parse_config(IID_COMPLETE.format(seed=seed)))
        for arm, arm_result in result.arms.items():
            assert arm_result.error is None, (seed, arm, arm_result.error)
        fbn = result.arms["fedfbn"].reports[("internal", "all", "")].mean_auroc
        cen = result.arms["centralized"].reports[("internal", "all", "")].mean_auroc
        gap = abs(fbn - cen)
        gaps.append(gap)
        within += gap <= 0.03
        print(f"  seed {seed}: fedfbn={fbn:.4f} centralized={cen:.4f} "
              f"gap={gap:.4f}")
    _verdict(7, within >= 8,
             f"|fedfbn - centralized| <= 0.03 in {within}/10 seeds "
             f"(need 8), max gap {max(gaps):.4f}")


# --------------------------------------- criterion 8: best-model choice


def test_c08_returned_global_has_minimal_mean_validation_bce():
    for seed in range(5):
        rng = RngStream(800 + seed)

        def part(n, shift):
            class Part:
                pass

            p = Part()
            p.features = rng.standard_normal((n, 6)) + shift
            p.labels = (rng.random((n, 2)) < 0.4).astype(np.float64)
            p.mask = np.ones_like(p.labels)
            return p

        nodes = [
            Node(node_id=i, train=part(64, 0.3 * i), val=part(24, 0.3 * i),
                 model=init_model(ModelSpec(6, (5,), ("a", "b")),
                                  RngStream(30 + seed)),
                 rng=rng.child(f"batches:{i}"), lr=0.15, batch_size=8)
            for i in (0, 1)
        ]
        fed = run_federation(nodes, Strategy.FEDAVG, rounds=8)
        losses = [r.mean_val_loss for r in fed.reports]
        floor = min(losses)
        assert fed.best_round == losses.index(floor), seed
        recomputed = []
        for node in nodes:
            model = fed.best.materialize(node.label_names)
            recomputed.append(evaluate_loss(
                model, node.val.features, node.val.labels, node.val.mask))
        assert float(np.mean(recomputed)) == floor, seed
    _verdict(8, True, "5 seeded runs: snapshot's recomputed mean val BCE "
                      "== round-log minimum at the earliest such round")


# ----------------------------------------------- criterion 9: replay

REPLAY_INI = """
[experiment]
scenario = iid_complete
rounds = 2
arms = fedfbn, fedavg
n_bootstrap = 100

[data]
n_patients_per_node = 80
latent_dim = 8
feature_dim = 12
n_labels = 6
images_per_patient = 1, 1

[model]
hidden_dims = 8, 4

[training]
lr = 1e-2
warmup_epochs = 1
warmup_lr = 1e-2
pretrain_epochs = 1
pretrain_lr = 1e-2
"""


def test_c09_cli_replay_is_byte_identical(tmp_path):
    config = tmp_path / "replay.ini"
    config.write_text(REPLAY_INI, encoding="utf-8")
    for sub in ("a", "b"):
        code = cli_main([
            "run", "--config", str(config), "--seed", "123",
            "--out", str(tmp_path / sub),
        ])
        assert code == 0
    csvs = sorted(n for n in os.listdir(tmp_path / "a") if n.endswith(".csv"))
    assert csvs, "run produced no CSV output"
    assert csvs == sorted(
        n for n in os.listdir(tmp_path / "b") if n.endswith(".csv"))
    for name in csvs:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    _verdict(9, True, f"two seeded CLI runs: {len(csvs)} CSV files "
                      f"byte-identical")


# ----------------------------------------------- criterion 10: datagen


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_c10_prevalence_matches_gaussian_tail_and_splits_are_disjoint():
    lm = LabelModel.sample(8, 6, RngStream(1000), uncertain_rate=0.0)
    domain = DomainSpec(latent_dim=6, feature_dim=12, mix_seed=3,
                        noise_std=0.25, images_per_patient=(1, 1))
    ds = generate(domain, lm, 10_000, RngStream(1001))
    weights = np.asarray(lm.weights)
    cuts = np.asarray(lm.thresholds)
    worst = 0.0
    for j in range(8):
        analytic = _phi(-cuts[j] / float(np.linalg.norm(weights[j])))
        empirical = float(ds.labels[:, j].mean())
        worst = max(worst, abs(empirical - analytic))
        assert abs(empirical - analytic) <= 0.05, (j, empirical, analytic)

    rng = RngStream(1002)
    for case in range(100):
        n_labels = int(rng.integers(2, 4))
        lm_case = LabelModel.sample(
            n_labels, 4, rng.child(f"lm:{case}"), uncertain_rate=0.0)
        dom = DomainSpec(latent_dim=4, feature_dim=6,
                         mix_seed=int(rng.integers(0, 1000)),
                         noise_std=0.25,
                         images_per_patient=(1, int(rng.integers(1, 4))))
        n_patients = int(rng.integers(40, 121))
        data = generate(dom, lm_case, n_patients, rng.child(f"data:{case}"))
        k = int(rng.integers(2, 5))
        raw = rng.child(f"frac:{case}").random(k) + 0.2
        fractions = tuple(float(f) for f in raw / raw.sum())
        parts = split_by_patient(data, fractions, rng.child(f"split:{case}"))
        seen: set[int] = set()
        for part in parts:
            ids = set(np.unique(part.patient_ids).tolist())
            assert not ids & seen, case
            seen |= ids
        assert seen == set(np.unique(data.patient_ids).tolist()), case
        if case % 3 == 0:
            half_a, half_b = make_iid_halves(data, rng.child(f"half:{case}"))
            ids_a = set(np.unique(half_a.patient_ids).tolist())
            ids_b = set(np.unique(half_b.patient_ids).tolist())
            assert not ids_a & ids_b, case
            assert ids_a | ids_b == set(np.unique(data.patient_ids).tolist())
    _verdict(10, True, f"prevalence within 0.05 of the Gaussian tail "
                       f"(worst {worst:.3f}) at 10k patients; splits "
                       f"patient-disjoint on 100 random configurations")

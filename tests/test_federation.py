"""Aggregation strategies, head merging, the round loop, and evaluation."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedfbn.federation as federation
from fedfbn.checkpoint import load_global, save_global
from fedfbn.datagen import DomainSpec, LabelModel, generate
from fedfbn.errors import (
    ConfigError,
    DataError,
    FrozenStatsError,
    LabelError,
    NodeFailure,
    ProtocolError,
)
from fedfbn.federation import (
    Node,
    Strategy,
    Weighting,
    aggregate,
    evaluate_global,
    extract_bundle,
    merge_heads,
    run_federation,
    score_global,
)
from fedfbn.network import (
    BnPolicy,
    ModelSpec,
    init_model,
    train_epochs,
    warmup_heads,
)
from fedfbn.numerics import RngStream
from per_label import per_label_params

SPEC = ModelSpec(4, (5, 3), ())


def make_model(labels, seed=1):
    return init_model(
        ModelSpec(4, (5, 3), tuple(labels)), RngStream(seed)
    )


def node_data(labels, seed, n=48, shift=0.0):
    rng = RngStream(seed)
    x = rng.standard_normal((n, 4)) + shift
    y = (rng.random((n, len(labels))) < 0.4).astype(np.float64)
    mask = np.ones_like(y)

    class Part:
        pass

    part = Part()
    part.features, part.labels, part.mask = x, y, mask
    return part


def make_node(node_id, labels, seed, lr=0.05, shift=0.0, n=48):
    return Node(
        node_id=node_id,
        train=node_data(labels, seed, n=n, shift=shift),
        val=node_data(labels, seed + 100, n=max(8, n // 4), shift=shift),
        model=make_model(labels, seed=7),
        rng=RngStream(seed + 200),
        lr=lr,
        batch_size=8,
    )


def bundles_pair(labels0=("a", "b"), labels1=("b", "c"), train=True):
    m0 = make_model(labels0, seed=11)
    m1 = make_model(labels1, seed=12)
    if train:
        for seed, m in ((13, m0), (14, m1)):
            rng = RngStream(seed)
            x = rng.standard_normal((16, 4)) + float(seed % 3)
            y = (rng.random((16, len(m.spec.label_names))) < 0.5).astype(np.float64)
            train_epochs(
                m, x, y, np.ones_like(y), epochs=1,
                lr_by_block={"representation": 0.05, "heads": 0.05},
                policy=BnPolicy.NORMAL, batch_size=8, rng=RngStream(seed + 1),
            )
    return (
        extract_bundle(m0, 0, 0, 16),
        extract_bundle(m1, 1, 0, 16),
    )


def test_extract_bundle_is_a_snapshot():
    model = make_model(("a",), seed=2)
    b1 = extract_bundle(model, 0, 0, 10)
    b2 = extract_bundle(model, 0, 0, 10)
    model.params["dense0/weight"][0, 0] += 5.0
    assert b1.entries["dense0/weight"][0, 0] == b2.entries["dense0/weight"][0, 0]
    assert model.params["dense0/weight"][0, 0] != b1.entries["dense0/weight"][0, 0]


def test_fedavg_matches_elementwise_mean_oracle():
    b0, b1 = bundles_pair()
    gm = aggregate([b0, b1], Strategy.FEDAVG, SPEC)
    for key, value in gm.params.items():
        if not key.startswith("heads/"):
            oracle = 0.5 * b0.entries[key] + 0.5 * b1.entries[key]
            assert np.array_equal(value, oracle), key


def test_fedavg_averages_bn_statistics_too():
    b0, b1 = bundles_pair()
    assert not np.array_equal(
        b0.entries["bn0/running_mean"], b1.entries["bn0/running_mean"]
    )
    gm = aggregate([b0, b1], Strategy.FEDAVG, SPEC)
    want = 0.5 * (
        b0.entries["bn0/running_mean"] + b1.entries["bn0/running_mean"]
    )
    assert np.array_equal(gm.params["bn0/running_mean"], want)


def test_by_samples_weighting():
    b0, b1 = bundles_pair()
    b0 = copy.deepcopy(b0)
    b1 = copy.deepcopy(b1)
    b0.entries["dense0/weight"][:] = 0.0
    b1.entries["dense0/weight"][:] = 4.0
    b0 = type(b0)(node_id=0, round_index=0, sample_count=1,
                  entries=b0.entries, head_labels=b0.head_labels)
    b1 = type(b1)(node_id=1, round_index=0, sample_count=3,
                  entries=b1.entries, head_labels=b1.head_labels)
    gm = aggregate([b0, b1], Strategy.FEDAVG, SPEC, Weighting.BY_SAMPLES)
    assert np.all(gm.params["dense0/weight"] == 3.0)


def test_fedbn_keeps_bn_per_node():
    b0, b1 = bundles_pair()
    gm = aggregate([b0, b1], Strategy.FEDBN, SPEC)
    assert gm.bn_nodes == [0, 1]
    bn_keys = [k for k in b0.entries if k.startswith("bn")]
    # after the shared keys, grouped by node: all of node 0's, then node 1's
    node_keys = [f"node_bn/{node_id}/{key}" for node_id in (0, 1) for key in bn_keys]
    assert list(gm.params)[-len(node_keys):] == node_keys
    for node_id, bundle in ((0, b0), (1, b1)):
        assert [k for k in bundle.entries if k.startswith("bn")] == bn_keys
        for key in bn_keys:
            assert np.array_equal(gm.params[f"node_bn/{node_id}/{key}"], bundle.entries[key])
    # non-BN layers still use the mean oracle
    want = 0.5 * (b0.entries["dense1/weight"] + b1.entries["dense1/weight"])
    assert np.array_equal(gm.params["dense1/weight"], want)
    assert not any(k.startswith("bn") for k in gm.params)


def test_fedfbn_requires_and_copies_identical_bn():
    b0, b1 = bundles_pair(train=False)
    # untrained models share the BN init bit-for-bit
    gm = aggregate([b0, b1], Strategy.FEDFBN, SPEC)
    for key, value in gm.params.items():
        if key.startswith("bn"):
            assert np.array_equal(value, b0.entries[key])
    drifted = copy.deepcopy(b1)
    drifted.entries["bn0/running_mean"][0] += 1e-12
    with pytest.raises(FrozenStatsError, match="bn0"):
        aggregate([b0, drifted], Strategy.FEDFBN, SPEC)


def test_merge_heads_union_rule():
    b0, b1 = bundles_pair()
    heads, union = merge_heads([b0, b1], {0: 0.5, 1: 0.5})
    assert union == ("a", "b", "c")
    heads = per_label_params(heads, union)
    e0 = per_label_params(b0.entries, b0.head_labels)
    e1 = per_label_params(b1.entries, b1.head_labels)
    assert np.array_equal(heads["head:a/weight"], e0["head:a/weight"])
    assert np.array_equal(heads["head:c/weight"], e1["head:c/weight"])
    want = 0.5 * (e0["head:b/weight"] + e1["head:b/weight"])
    assert np.allclose(heads["head:b/weight"], want, atol=0, rtol=0)


def test_merge_heads_identical_owners_copy_exactly():
    m0 = make_model(("a", "b"), seed=11)
    m1 = make_model(("b", "c"), seed=12)
    m1.params["heads/weight"][0] = m0.params["heads/weight"][1]
    m1.params["heads/bias"][0] = m0.params["heads/bias"][1]
    b0 = extract_bundle(m0, 0, 0, 16)
    b1 = extract_bundle(m1, 1, 0, 16)
    heads, union = merge_heads([b0, b1], {0: 0.5, 1: 0.5})
    heads = per_label_params(heads, union)
    e0 = per_label_params(b0.entries, b0.head_labels)
    assert heads["head:b/weight"].tobytes() == e0["head:b/weight"].tobytes()
    assert heads["head:b/bias"].tobytes() == e0["head:b/bias"].tobytes()


def test_merge_heads_three_owner_mean():
    models = [make_model(("x",), seed=s) for s in (21, 22, 23)]
    for value, m in zip((1.0, 2.0, 6.0), models):
        m.params["heads/weight"][0] = value
        m.params["heads/bias"][0] = value
    bundles = [extract_bundle(m, i, 0, 10) for i, m in enumerate(models)]
    heads, union = merge_heads(bundles, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    heads = per_label_params(heads, union)
    assert np.allclose(heads["head:x/weight"], 3.0)
    assert np.allclose(heads["head:x/bias"], 3.0)


def test_merge_heads_random_topologies_match_oracle():
    rng = RngStream(77)
    all_labels = tuple(f"l{i}" for i in range(6))
    for trial in range(100):
        k = int(rng.integers(1, 5))
        bundles = []
        for node in range(k):
            picks = rng.permutation(6)[: int(rng.integers(1, 7))]
            labels = tuple(all_labels[i] for i in sorted(picks.tolist()))
            m = make_model(labels, seed=int(rng.integers(0, 1_000_000)))
            bundles.append(extract_bundle(m, node, 0, 10))
        weights = {b.node_id: 1.0 / k for b in bundles}
        heads, union = merge_heads(bundles, weights)
        heads = per_label_params(heads, union)
        entries = {b.node_id: per_label_params(b.entries, b.head_labels) for b in bundles}
        # oracle: first-seen union order, renormalized fixed-order mean
        want_union = []
        for b in bundles:
            for label in b.head_labels:
                if label not in want_union:
                    want_union.append(label)
        assert union == tuple(want_union)
        for label in want_union:
            owners = [b for b in bundles if label in b.head_labels]
            wsum = sum(weights[b.node_id] for b in owners)
            for name in ("weight", "bias"):
                key = f"head:{label}/{name}"
                acc = (weights[owners[0].node_id] / wsum) * entries[owners[0].node_id][key]
                for b in owners[1:]:
                    acc = acc + (weights[b.node_id] / wsum) * entries[b.node_id][key]
                if len(owners) == 1:
                    acc = entries[owners[0].node_id][key]
                assert np.array_equal(heads[key], acc), (trial, label, name)


def reference_merge_heads(bundles, weights):
    """Merge over per-label head keys: a key is copied when all its owners
    agree bit for bit, else it is their renormalized mean in bundle order."""
    owners = {}
    for b in bundles:
        for key, value in per_label_params(b.entries, b.head_labels).items():
            if key.startswith("head:"):
                owners.setdefault(key, []).append((weights[b.node_id], value))
    merged = {}
    for key, own in owners.items():
        first = own[0][1]
        if all(value.tobytes() == first.tobytes() for _, value in own[1:]):
            merged[key] = first.copy()
            continue
        wsum = sum(w for w, _ in own)
        acc = (own[0][0] / wsum) * first
        for w, value in own[1:]:
            acc = acc + (w / wsum) * value
        merged[key] = acc
    return merged


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True),
            st.integers(1, 1000),
            # per label: which of two value draws and which zero sign the row
            # takes, so owners agree, differ, or differ only in a zero's sign
            st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=6, max_size=6),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**63),
)
def test_merge_heads_matches_per_label_oracle(nodes, seed):
    bundles = []
    for node_id, (labels, samples, rows) in enumerate(nodes):
        model = make_model(labels)
        view = per_label_params(model.params, labels)
        for label in labels:
            draw, negative_zero = rows["abcdef".index(label)]
            for name in ("weight", "bias"):
                value = view[f"head:{label}/{name}"]
                value[:] = RngStream(seed).child(f"{label}/{name}/{draw}").standard_normal(
                    value.shape
                )
                value.flat[0] = -0.0 if negative_zero else 0.0
        bundles.append(extract_bundle(model, node_id, 0, samples))
    total = sum(b.sample_count for b in bundles)
    weights = {b.node_id: b.sample_count / total for b in bundles}

    heads, union = merge_heads(bundles, weights)
    assert union == tuple(dict.fromkeys(l for b in bundles for l in b.head_labels))
    assert sorted(heads) == ["heads/bias", "heads/weight"]
    got = {k: v for k, v in per_label_params(heads, union).items() if k.startswith("head:")}
    want = reference_merge_heads(bundles, weights)
    assert list(got) == list(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


def random_bundle(node_id, labels, samples, seed, shared_bn, twin):
    """A bundle of random tensors; ``twin`` draws every tensor from one
    stream shared by all twins, so their heads agree bit for bit."""
    model = make_model(labels)
    node_rng = RngStream(seed).child("twin" if twin else f"node{node_id}")
    for key, value in per_label_params(model.params, labels).items():
        source = RngStream(seed) if shared_bn and key.startswith("bn") else node_rng
        value[:] = source.child(key).standard_normal(value.shape)
    return extract_bundle(model, node_id, 0, samples)


@settings(max_examples=80, deadline=None)
@given(
    strategy=st.sampled_from(list(Strategy)),
    weighting=st.sampled_from(list(Weighting)),
    nodes=st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True),
            st.integers(1, 1000),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**63),
    data=st.data(),
)
def test_aggregate_is_order_free_and_fbn_carries_bn(strategy, weighting, nodes, seed, data):
    shared_bn = strategy is Strategy.FEDFBN
    bundles = [
        random_bundle(i, tuple(labels), samples, seed, shared_bn, twin)
        for i, (labels, samples, twin) in enumerate(nodes)
    ]
    order = data.draw(st.permutations(range(len(bundles))))
    gm = aggregate(bundles, strategy, SPEC, weighting)
    again = aggregate([bundles[i] for i in order], strategy, SPEC, weighting)
    assert again.spec == gm.spec and again.node_labels == gm.node_labels
    assert list(again.params) == list(gm.params)
    for key, value in gm.params.items():
        assert again.params[key].tobytes() == value.tobytes(), key
    if strategy is Strategy.FEDBN:
        assert not any(k.startswith("bn") for k in gm.params)
        for b in bundles:
            for key in (k for k in b.entries if k.startswith("bn")):
                stored = gm.params[f"node_bn/{b.node_id}/{key}"]
                assert stored.tobytes() == b.entries[key].tobytes(), (b.node_id, key)
    if shared_bn:
        bn_keys = [k for k in bundles[0].entries if k.startswith("bn")]
        for key in bn_keys:
            for b in bundles:
                assert gm.params[key].tobytes() == b.entries[key].tobytes(), key


def test_single_node_federation_equals_local_training():
    node = make_node(0, ("a", "b"), seed=31)
    mirror = copy.deepcopy(node.model)
    mirror_rng = RngStream(31 + 200)
    fed = run_federation([node], Strategy.FEDAVG, rounds=1, local_epochs=1)
    train_epochs(
        mirror, node.train.features, node.train.labels, node.train.mask,
        epochs=1, lr_by_block={"representation": 0.05, "heads": 0.05},
        policy=BnPolicy.NORMAL, batch_size=8, rng=mirror_rng,
    )
    got = fed.best.materialize(("a", "b")).params  # one round: the best is the last
    want = mirror.params
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_identical_nodes_under_fedavg_keep_their_model():
    n0 = make_node(0, ("a", "b"), seed=41)
    n1 = make_node(1, ("a", "b"), seed=41)
    n1.rng = RngStream(41 + 200)  # same draws as node 0
    fed = run_federation([n0, n1], Strategy.FEDAVG, rounds=1)
    got = fed.best.materialize(("a", "b")).params  # one round: the best is the last
    want = n0.model.params
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_round_reports_track_running_minimum():
    n0 = make_node(0, ("a", "b"), seed=51, lr=0.2)
    n1 = make_node(1, ("b", "c"), seed=52, lr=0.2)
    fed = run_federation([n0, n1], Strategy.FEDAVG, rounds=6)
    running = math.inf
    for report in fed.reports:
        assert report.is_best == (report.mean_val_loss < running)
        running = min(running, report.mean_val_loss)
        assert report.mean_val_loss == pytest.approx(
            np.mean(list(report.val_losses.values()))
        )
    best_mean = min(r.mean_val_loss for r in fed.reports)
    assert fed.reports[fed.best_round].mean_val_loss == best_mean
    assert fed.best_round == min(
        r.round_index for r in fed.reports if r.mean_val_loss == best_mean
    )


def test_equal_validation_losses_keep_the_first_round(monkeypatch):
    monkeypatch.setattr(federation, "evaluate_loss", lambda *args: 0.5)
    n0 = make_node(0, ("a", "b"), seed=53)
    n1 = make_node(1, ("b", "c"), seed=54)
    fed = run_federation([n0, n1], Strategy.FEDAVG, rounds=4)
    assert [r.mean_val_loss for r in fed.reports] == [0.5] * 4
    assert fed.best_round == 0
    assert [r.is_best for r in fed.reports] == [True, False, False, False]


def test_fedfbn_round_loop_never_moves_bn():
    n0 = make_node(0, ("a", "b"), seed=61, shift=0.5)
    n1 = make_node(1, ("b", "c"), seed=62, shift=-0.5)
    init_bn = {k: v.copy() for k, v in n0.model.params.items() if k.startswith("bn")}
    seen = []

    def check(report):
        for node in (n0, n1):
            entries = extract_bundle(node.model, node.node_id, 0, 1).entries
            for key, value in init_bn.items():
                assert entries[key].tobytes() == value.tobytes()
        seen.append(report.round_index)

    run_federation([n0, n1], Strategy.FEDFBN, rounds=4, on_round=check)
    assert seen == [0, 1, 2, 3]


def test_fedbn_separates_bn_after_aggregation():
    n0 = make_node(0, ("a", "b"), seed=71, shift=1.5)
    n1 = make_node(1, ("a", "b"), seed=72, shift=-1.5)
    fed = run_federation([n0, n1], Strategy.FEDBN, rounds=2)
    # each node's model is the last global model, materialized for that node
    m0, m1 = n0.model.params, n1.model.params
    assert not np.array_equal(m0["bn0/running_mean"], m1["bn0/running_mean"])
    for key in m0:
        if not key.startswith("bn"):
            assert np.array_equal(m0[key], m1[key]), key
    with pytest.raises(ProtocolError):
        fed.best.materialize(("a",))


def test_materialize_needs_a_stored_node_only_under_fedbn():
    b0, b1 = bundles_pair()
    fedbn = aggregate([b0, b1], Strategy.FEDBN, SPEC)
    with pytest.raises(ProtocolError, match="keeps per-node batch norm; pass node_id"):
        fedbn.materialize(("a",))
    with pytest.raises(ProtocolError, match="no batch-norm layers stored for node 7"):
        fedbn.materialize(("a",), node_id=7)
    for node_id, bundle in ((0, b0), (1, b1)):
        model = fedbn.materialize(("b",), node_id=node_id)
        for key in ("bn0/gamma", "bn1/running_var"):
            assert model.params[key].tobytes() == bundle.entries[key].tobytes(), (node_id, key)
    for strategy, bundles in ((Strategy.FEDAVG, [b0, b1]),
                              (Strategy.FEDFBN, bundles_pair(train=False))):  # identical BN
        gm = aggregate(bundles, strategy, SPEC)
        want = gm.materialize(("a", "c"))
        for node_id in (0, 1, 7):
            got = gm.materialize(("a", "c"), node_id=node_id)
            assert list(got.params) == list(want.params)
            for key, value in want.params.items():
                assert got.params[key].tobytes() == value.tobytes(), (strategy, node_id, key)


def test_node_failure_names_node_and_round():
    n0 = make_node(0, ("a",), seed=81)
    n1 = make_node(1, ("a",), seed=82, n=2)
    n1.train.features = n1.train.features[:1]
    n1.train.labels = n1.train.labels[:1]
    n1.train.mask = n1.train.mask[:1]
    with pytest.raises(NodeFailure) as info:
        run_federation([n0, n1], Strategy.FEDAVG, rounds=2)
    assert info.value.node_id == 1
    assert info.value.round_index == 0


def test_federation_rejects_unrecoded_uncertain_labels():
    for part, label in (("train", -1.0), ("val", 0.5), ("train", float("nan"))):
        node = make_node(0, ("a",), seed=91)
        getattr(node, part).labels[0, 0] = label
        with pytest.raises(DataError, match=f"node 0 {part}: observed labels must be 0 or 1"):
            run_federation([node], Strategy.FEDAVG, rounds=1)
    # an unobserved entry is not checked: its mask gives it no weight
    node = make_node(0, ("a",), seed=91)
    node.val.labels[0, 0] = 0.5
    node.val.mask[0, 0] = 0.0
    run_federation([node], Strategy.FEDAVG, rounds=1)


def test_run_federation_validates_arguments():
    node = make_node(0, ("a",), seed=95)
    with pytest.raises(ConfigError):
        run_federation([node], Strategy.FEDAVG, rounds=0)
    with pytest.raises(ConfigError):
        run_federation([node], Strategy.FEDAVG, rounds=1, local_epochs=0)
    with pytest.raises(ConfigError):
        run_federation([], Strategy.FEDAVG, rounds=1)


def test_run_federation_refuses_duplicate_ids_and_differing_trunks():
    n0 = make_node(0, ("a",), seed=96)
    with pytest.raises(ProtocolError, match=r"duplicate node ids: \[0, 0\]"):
        run_federation([n0, make_node(0, ("b",), seed=97)], Strategy.FEDAVG, rounds=1)
    wide = make_node(1, ("a",), seed=98)
    wide.model = init_model(ModelSpec(4, (6, 3), ("a",)), RngStream(7))
    with pytest.raises(ProtocolError, match="node 1 model spec differs from node 0"):
        run_federation([n0, wide], Strategy.FEDAVG, rounds=1)


@pytest.mark.parametrize("case, cause", [("batch_size", ConfigError), ("one_row", DataError)])
def test_run_federation_fails_a_node_that_cannot_form_a_batch(case, cause):
    node = make_node(0, ("a",), seed=99)
    if case == "batch_size":
        node.batch_size = 1
    else:
        for name in ("features", "labels", "mask"):
            setattr(node.train, name, getattr(node.train, name)[:1])
    with pytest.raises(NodeFailure, match="node 0 failed in round 0") as info:
        run_federation([node, make_node(1, ("a",), seed=100)], Strategy.FEDAVG, rounds=1)
    assert (info.value.node_id, info.value.round_index) == (0, 0)
    assert isinstance(info.value.__cause__, cause)


def overfit_setup(seed=101):
    """A memorizable task: labels derived from the features themselves."""
    domain = DomainSpec(latent_dim=5, feature_dim=4, mix_seed=9, noise_std=0.0)
    lm = LabelModel.sample(2, 5, RngStream(seed), label_names=("p", "q"))
    ds = generate(domain, lm, 120, RngStream(seed + 1))
    return ds


def test_evaluate_global_memorized_task_and_purity():
    ds = overfit_setup()
    labels = ds.label_names
    node = Node(
        node_id=0,
        train=ds,
        val=ds,
        model=make_model(labels, seed=3),
        rng=RngStream(5),
        lr=0.3,
        batch_size=16,
    )
    warmup_heads(node.model, ds.features, ds.labels, ds.mask, epochs=5,
                 rng=RngStream(6), lr=0.3)
    fed = run_federation([node], Strategy.FEDAVG, rounds=40)
    before = {k: v.copy() for k, v in fed.best.params.items()}
    (report,) = evaluate_global(
        [score_global(fed.best, ds, labels)], ds, labels, RngStream(7), n_bootstrap=100
    )
    assert report.mean_auroc >= 0.99
    for key, value in fed.best.params.items():
        assert np.array_equal(value, before[key])


def test_evaluate_global_label_handling():
    from fedfbn.datagen import Dataset

    b0, b1 = bundles_pair()
    gm = aggregate([b0, b1], Strategy.FEDAVG, SPEC)
    part = node_data(("a", "b", "nope"), seed=111, n=60)
    ds = Dataset(
        features=part.features,
        labels=part.labels,
        mask=part.mask,
        patient_ids=np.arange(60),
        label_names=("a", "b", "nope"),
    )
    # "nope" exists in the data but the model has no head for it
    with pytest.raises(LabelError):
        score_global(gm, ds, ("nope",))
    (padded,) = evaluate_global(
        [score_global(gm, ds, ("a", "nope"))], ds, ("a", "nope"), RngStream(8), n_bootstrap=100
    )
    assert padded.per_label_auroc["nope"] == 0.5
    # node 1 trained b and c, so its model has no usable head for a
    node1, full = evaluate_global(
        [score_global(gm, ds, ("a", "b"), node_id=1), score_global(gm, ds, ("a", "b"))],
        ds, ("a", "b"), RngStream(8), n_bootstrap=100,
    )
    assert node1.per_label_auroc["a"] == 0.5
    assert full.per_label_auroc["a"] != 0.5
    assert node1.per_label_auroc["b"] == full.per_label_auroc["b"]


def test_score_global_refuses_an_unknown_node():
    from fedfbn.datagen import Dataset

    part = node_data(("a",), seed=112, n=8)
    ds = Dataset(features=part.features, labels=part.labels, mask=part.mask,
                 patient_ids=np.arange(8), label_names=("a",))
    for strategy in (Strategy.FEDAVG, Strategy.FEDBN, Strategy.FEDFBN):
        # FEDFBN needs the nodes' batch norm identical, so those stay untrained
        bundles = bundles_pair(train=strategy is not Strategy.FEDFBN)
        gm = aggregate(list(bundles), strategy, SPEC)
        with pytest.raises(ProtocolError, match="global model has no node 7"):
            score_global(gm, ds, ("a",), node_id=7)


def test_global_checkpoint_round_trips(tmp_path):
    b0, b1 = bundles_pair()
    for strategy in (Strategy.FEDAVG, Strategy.FEDBN):
        gm = aggregate([b0, b1], strategy, SPEC)
        path = tmp_path / f"{strategy.value}.ckpt"
        save_global(gm, path)
        back = load_global(path)
        assert back.strategy == gm.strategy
        assert back.node_labels == gm.node_labels
        assert back.spec == gm.spec
        assert list(back.params) == list(gm.params)
        for key, value in gm.params.items():
            assert value.tobytes() == back.params[key].tobytes()
        assert back.bn_nodes == gm.bn_nodes
        node_keys = [k for k in gm.params if k.startswith("node_bn/")]
        if strategy is Strategy.FEDBN:
            assert node_keys == [f"node_bn/{node_id}/{key}" for node_id in (0, 1)
                                 for key in b0.entries if key.startswith("bn")]
            assert not any(k.startswith("bn") for k in back.params)
        else:
            assert node_keys == []

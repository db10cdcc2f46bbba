"""Forward/backward semantics of the MLP, BN policies, and training loops."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfbn.errors import ConfigError, DataError
from fedfbn.network import (
    BnPolicy,
    ModelSpec,
    _forward,
    backward,
    evaluate_loss,
    init_model,
    masked_bce,
    predict,
    pretrain_backbone,
    sgd_step,
    train_epochs,
    warmup_heads,
    with_heads,
)
from fedfbn.network import sigmoid as logistic
from fedfbn.numerics import RngStream
from per_label import per_label_params


def tiny_spec(hidden=(4, 3), labels=("a", "b"), input_dim=3):
    return ModelSpec(input_dim=input_dim, hidden_dims=hidden, label_names=labels)


def make_batch(spec, n, seed):
    rng = RngStream(seed)
    x = rng.standard_normal((n, spec.input_dim))
    y = (rng.random((n, len(spec.label_names))) < 0.5).astype(np.float64)
    mask = (rng.random(y.shape) < 0.8).astype(np.float64)
    mask[0, :] = 1.0  # keep the loss defined
    return x, y, mask


def unit_chain_model(running_mean=0.0, running_var=1.0):
    """input 1 -> dense(identity) -> bn -> relu -> one head (identity)."""
    model = init_model(ModelSpec(1, (1,), ("y",)), RngStream(0))
    model.params["dense0/weight"][:] = 1.0
    model.params["dense0/bias"][:] = 0.0
    model.params["bn0/running_mean"][:] = running_mean
    model.params["bn0/running_var"][:] = running_var
    model.params["heads/weight"][0] = 1.0
    model.params["heads/bias"][0] = 0.0
    return model


def bn_state(model):
    return {k: v.copy() for k, v in model.params.items() if k.startswith("bn")}


def bn_states_equal(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def test_init_model_deterministic():
    spec = tiny_spec()
    a = init_model(spec, RngStream(7))
    b = init_model(spec, RngStream(7))
    ta, tb = a.params, b.params
    assert ta.keys() == tb.keys()
    assert all(np.array_equal(ta[k], tb[k]) for k in ta)


def test_init_model_bn_identity_stats():
    model = init_model(tiny_spec(), RngStream(8))
    assert np.array_equal(model.params["bn0/gamma"], np.ones(4))
    assert np.array_equal(model.params["bn0/beta"], np.zeros(4))
    assert np.array_equal(model.params["bn0/running_mean"], np.zeros(4))
    assert np.array_equal(model.params["bn0/running_var"], np.ones(4))


def test_frozen_forward_hand_values_fresh_stats():
    # fresh stats: bn(x) = x / sqrt(1 + eps); both inputs stay positive
    model = unit_chain_model()
    out = predict(model, np.array([[1.0], [3.0]]))
    scale = 1.0 / math.sqrt(1.0 + 1e-5)
    assert abs(out[0, 0] - sigmoid(1.0 * scale)) < 1e-12
    assert abs(out[1, 0] - sigmoid(3.0 * scale)) < 1e-12
    assert abs(1.0 * scale - 0.999995) < 1e-5
    assert abs(3.0 * scale - 2.999985) < 2e-5


def test_frozen_forward_hand_values_centered_stats():
    # stats (mean 2, var 1) reproduce the train-mode normalization of
    # batch [[1],[3]]: rows map to -0.999995 and +0.999995; relu zeroes
    # the negative one so its head sees 0 and outputs exactly 0.5
    model = unit_chain_model(running_mean=2.0)
    out = predict(model, np.array([[1.0], [3.0]]))
    scale = 1.0 / math.sqrt(1.0 + 1e-5)
    assert out[0, 0] == 0.5
    assert abs(out[1, 0] - sigmoid(1.0 * scale)) < 1e-12


def test_train_normal_updates_running_stats_exactly():
    model = unit_chain_model()
    x = np.array([[1.0], [3.0]])
    y = np.array([[1.0], [0.0]])
    m = np.ones((2, 1))
    backward(model, x, y, m, BnPolicy.NORMAL)
    mom = model.spec.bn_momentum
    # batch mean 2, biased variance 1
    assert model.params["bn0/running_mean"][0] == (1.0 - mom) * 0.0 + mom * 2.0
    assert model.params["bn0/running_var"][0] == (1.0 - mom) * 1.0 + mom * 1.0


def test_train_normal_batch_stats_match_np_mean_bit_for_bit():
    # from zero running statistics, momentum 0.5 stores exactly half of each
    # batch statistic, so a change in the last bit of either one shows
    rng = RngStream(12)
    for trial in range(300):
        shape = (int(rng.integers(2, 200)), int(rng.integers(1, 70)))
        x = (10.0 ** float(rng.integers(-3, 4))) * rng.standard_normal(shape)
        spec = ModelSpec(shape[1], (shape[1],), ("y",), bn_momentum=0.5)
        model = init_model(spec, RngStream(trial))
        p = model.params
        p["dense0/weight"][:] = np.eye(shape[1])
        for key in ("dense0/bias", "bn0/running_mean", "bn0/running_var"):
            p[key][:] = 0.0
        pre = x @ p["dense0/weight"] + p["dense0/bias"]
        want_mean = np.mean(pre, axis=0)
        want_var = np.mean((pre - want_mean) ** 2, axis=0)
        _forward(model, x, use_batch=True)
        assert p["bn0/running_mean"].tobytes() == (0.5 * 0.0 + 0.5 * want_mean).tobytes(), trial
        assert p["bn0/running_var"].tobytes() == (0.5 * 0.0 + 0.5 * want_var).tobytes(), trial


def test_frozen_and_eval_mutate_nothing():
    spec = tiny_spec()
    model = init_model(spec, RngStream(9))
    x, y, mask = make_batch(spec, 6, 10)
    before = {k: v.copy() for k, v in model.params.items()}
    predict(model, x)
    backward(model, x, y, mask, BnPolicy.FROZEN)
    after = model.params
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_zero_weight_heads_output_half():
    model = init_model(tiny_spec(), RngStream(11))
    for key, value in model.params.items():
        if key.startswith("heads/"):
            value[:] = 0.0
    out = predict(model, RngStream(12).standard_normal((5, 3)))
    assert np.array_equal(out, np.full((5, 2), 0.5))


def test_headless_trunk_depth_zero():
    # no hidden layers: heads sit straight on the inputs
    spec = tiny_spec(hidden=(), labels=("only",), input_dim=4)
    model = init_model(spec, RngStream(13))
    out = predict(model, RngStream(14).standard_normal((3, 4)))
    assert out.shape == (3, 1)
    assert ((out > 0.0) & (out < 1.0)).all()


def test_masked_bce_hand_cases():
    y = np.array([[1.0, 0.0]])
    mask = np.ones((1, 2))
    perfect = np.array([[1.0 - 1e-7, 1e-7]])
    assert masked_bce(perfect, y, mask) <= 1.01e-7
    half = np.full((1, 2), 0.5)
    assert abs(masked_bce(half, y, mask) - math.log(2.0)) < 1e-12


def test_masked_bce_column_drop_equivalence():
    rng = RngStream(15)
    p = rng.uniform(0.05, 0.95, (6, 3))
    y = (rng.random((6, 3)) < 0.5).astype(np.float64)
    mask = np.ones((6, 3))
    mask[:, 1] = 0.0
    dropped = masked_bce(p[:, [0, 2]], y[:, [0, 2]], np.ones((6, 2)))
    assert abs(masked_bce(p, y, mask) - dropped) < 1e-12


def test_masked_bce_ignores_unobserved_entries():
    rng = RngStream(16)
    p = rng.uniform(0.05, 0.95, (4, 2))
    y = (rng.random((4, 2)) < 0.5).astype(np.float64)
    mask = (rng.random((4, 2)) < 0.6).astype(np.float64)
    mask[0, 0] = 1.0
    base = masked_bce(p, y, mask)
    p2 = p.copy()
    p2[mask == 0.0] = 0.123
    assert masked_bce(p2, y, mask) == base


def test_masked_bce_all_unobserved_is_error():
    with pytest.raises(DataError):
        masked_bce(np.full((2, 2), 0.5), np.zeros((2, 2)), np.zeros((2, 2)))


def fd_gradients(model, x, y, mask, policy, h=1e-5):
    """Central finite differences over every tensor backward reports."""
    _, grads = backward(copy.deepcopy(model), x, y, mask, policy)
    out = {}
    for key, g in grads.items():
        fd = np.zeros_like(g)
        for i in range(g.size):
            plus = copy.deepcopy(model)
            plus.params[key].flat[i] += h
            loss_p, _ = backward(plus, x, y, mask, policy)
            minus = copy.deepcopy(model)
            minus.params[key].flat[i] -= h
            loss_m, _ = backward(minus, x, y, mask, policy)
            fd.flat[i] = (loss_p - loss_m) / (2.0 * h)
        out[key] = fd
    return grads, out


def assert_grads_close(analytic, fd, rtol=1e-4, atol=1e-8):
    for key in analytic:
        a = analytic[key]
        f = fd[key]
        for i in range(a.size):
            av, fv = a.flat[i], f.flat[i]
            if abs(av) < 1e-6 and abs(fv) < 1e-6:
                assert abs(av - fv) < atol, (key, i, av, fv)
            else:
                rel = abs(av - fv) / max(abs(av), abs(fv))
                assert rel < rtol, (key, i, av, fv, rel)


def test_gradients_match_finite_differences_normal():
    spec = tiny_spec()
    model = init_model(spec, RngStream(17))
    x, y, mask = make_batch(spec, 8, 18)
    analytic, fd = fd_gradients(model, x, y, mask, BnPolicy.NORMAL)
    assert_grads_close(analytic, fd)


def test_gradients_match_finite_differences_frozen():
    spec = tiny_spec()
    model = init_model(spec, RngStream(19))
    # settle running stats away from the init so frozen normalization is
    # nontrivial
    x, y, mask = make_batch(spec, 8, 20)
    backward(model, x + 1.5, y, mask, BnPolicy.NORMAL)
    analytic, fd = fd_gradients(model, x, y, mask, BnPolicy.FROZEN)
    assert_grads_close(analytic, fd)


def test_frozen_backward_has_no_bn_gradients():
    spec = tiny_spec()
    model = init_model(spec, RngStream(21))
    x, y, mask = make_batch(spec, 5, 22)
    _, grads = backward(model, x, y, mask, BnPolicy.FROZEN)
    assert not any(key.startswith("bn") for key in grads)
    _, grads_n = backward(model, x, y, mask, BnPolicy.NORMAL)
    assert {k for k in grads_n if k.startswith("bn")} == {
        "bn0/gamma", "bn0/beta", "bn1/gamma", "bn1/beta"
    }


def test_fully_unobserved_label_gets_zero_gradient():
    spec = tiny_spec()
    model = init_model(spec, RngStream(23))
    x, y, mask = make_batch(spec, 6, 24)
    mask[:, 1] = 0.0
    _, grads = backward(model, x, y, mask, BnPolicy.NORMAL)
    assert np.array_equal(grads["heads/weight"][1], np.zeros(3))
    assert np.array_equal(grads["heads/bias"][1], 0.0)


def test_sgd_step_hand_case_and_zero_lr():
    model = unit_chain_model()
    grads = {"heads/weight": np.array([[2.0]]), "heads/bias": np.array([0.0])}
    sgd_step(model, grads, {"representation": 0.1, "heads": 0.1})
    assert model.params["heads/weight"][0, 0] == 1.0 - 0.1 * 2.0
    before = {k: v.copy() for k, v in model.params.items()}
    sgd_step(model, grads, {"representation": 0.0, "heads": 0.0})
    after = model.params
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_sgd_step_block_selectivity():
    spec = tiny_spec()
    model = init_model(spec, RngStream(25))
    x, y, mask = make_batch(spec, 6, 26)
    _, grads = backward(model, x, y, mask, BnPolicy.NORMAL)
    before = {k: v.copy() for k, v in model.params.items()}
    sgd_step(model, grads, {"representation": 0.0, "heads": 1e-3})
    after = model.params
    for key in before:
        if key.startswith("heads/"):
            assert not np.array_equal(before[key], after[key])
        else:
            assert np.array_equal(before[key], after[key])


def test_train_epochs_frozen_keeps_bn_bit_identical():
    spec = tiny_spec()
    model = init_model(spec, RngStream(27))
    x, y, mask = make_batch(spec, 40, 28)
    before = bn_state(model)
    train_epochs(
        model, x, y, mask, epochs=5,
        lr_by_block={"representation": 0.05, "heads": 0.05},
        policy=BnPolicy.FROZEN, batch_size=8, rng=RngStream(29),
    )
    assert bn_states_equal(before, bn_state(model))
    assert not np.array_equal(
        init_model(spec, RngStream(27)).params["dense0/weight"],
        model.params["dense0/weight"],
    )


def test_train_epochs_normal_moves_running_stats():
    spec = tiny_spec()
    model = init_model(spec, RngStream(30))
    x, y, mask = make_batch(spec, 40, 31)
    before = bn_state(model)
    train_epochs(
        model, x + 2.0, y, mask, epochs=1,
        lr_by_block={"representation": 0.01, "heads": 0.01},
        policy=BnPolicy.NORMAL, batch_size=8, rng=RngStream(32),
    )
    assert not np.array_equal(
        before["bn0/running_mean"], model.params["bn0/running_mean"]
    )


def test_train_epochs_zero_epochs_is_identity():
    spec = tiny_spec()
    model = init_model(spec, RngStream(33))
    before = {k: v.copy() for k, v in model.params.items()}
    loss = train_epochs(
        model, *make_batch(spec, 10, 34), epochs=0,
        lr_by_block={"representation": 0.1, "heads": 0.1},
        policy=BnPolicy.NORMAL, batch_size=4, rng=RngStream(35),
    )
    assert math.isnan(loss)
    after = model.params
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_epochs_drops_trailing_singleton_batch():
    # 9 rows with batch 4 leave a size-1 tail that NORMAL BN cannot use;
    # it must be skipped, not crash
    spec = tiny_spec()
    model = init_model(spec, RngStream(36))
    x, y, mask = make_batch(spec, 9, 37)
    train_epochs(
        model, x, y, mask, epochs=2,
        lr_by_block={"representation": 0.01, "heads": 0.01},
        policy=BnPolicy.NORMAL, batch_size=4, rng=RngStream(38),
    )


def test_warmup_trains_heads_only():
    spec = tiny_spec()
    model = init_model(spec, RngStream(39))
    x, y, mask = make_batch(spec, 60, 40)
    trunk_before = {
        k: v.copy() for k, v in model.params.items() if not k.startswith("heads/")
    }
    warmup_heads(model, x, y, mask, epochs=3, rng=RngStream(41))
    trunk_after = {
        k: v for k, v in model.params.items() if not k.startswith("heads/")
    }
    assert all(np.array_equal(trunk_before[k], trunk_after[k]) for k in trunk_before)


def test_warmup_zero_epochs_is_identity():
    spec = tiny_spec()
    model = init_model(spec, RngStream(42))
    before = {k: v.copy() for k, v in model.params.items()}
    warmup_heads(model, *make_batch(spec, 20, 43), epochs=0, rng=RngStream(44))
    after = model.params
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_warmup_fits_separable_toy_task():
    # heads directly on inputs; one linearly separable label with wide
    # margins so the stock 1e-3 warm-up rate makes visible progress
    rng = RngStream(45)
    x = 10.0 * rng.standard_normal((200, 5))
    w = rng.standard_normal(5)
    y = (x @ w > 0.0).astype(np.float64).reshape(-1, 1)
    mask = np.ones_like(y)
    model = init_model(ModelSpec(5, (), ("sep",)), RngStream(46))
    model.params["heads/weight"][0] = 0.0
    model.params["heads/bias"][0] = 0.0
    start = evaluate_loss(model, x, y, mask)
    warmup_heads(model, x, y, mask, epochs=20, rng=RngStream(47))
    end = evaluate_loss(model, x, y, mask)
    assert end <= 0.5 * start


def test_pretrain_backbone_contract():
    spec = tiny_spec()
    src_labels = ("s0", "s1", "s2")
    rng = RngStream(48)
    x = rng.standard_normal((80, 3)) + 1.0
    y = (rng.random((80, 3)) < 0.4).astype(np.float64)
    mask = np.ones_like(y)
    trained = pretrain_backbone(
        spec, x, y, mask, source_labels=src_labels, epochs=2, rng=RngStream(49)
    )
    again = pretrain_backbone(
        spec, x, y, mask, source_labels=src_labels, epochs=2, rng=RngStream(49)
    )
    ta, tb = trained.params, again.params
    assert all(np.array_equal(ta[k], tb[k]) for k in ta)
    assert trained.spec.label_names == ()
    assert not any(k.startswith("heads/") for k in trained.params)
    # statistics were learned off the identity init
    assert not np.array_equal(
        trained.params["bn0/running_var"], np.ones(4)
    )
    fresh = pretrain_backbone(
        spec, x, y, mask, source_labels=src_labels, epochs=0, rng=RngStream(49)
    )
    init = init_model(ModelSpec(3, (4, 3), src_labels), RngStream(49))
    init_tensors = {
        k: v for k, v in init.params.items() if not k.startswith("heads/")
    }
    fresh_tensors = fresh.params
    assert all(np.array_equal(init_tensors[k], fresh_tensors[k]) for k in init_tensors)


def test_with_heads_shares_trunk_and_aligns_shared_heads():
    spec = tiny_spec()
    backbone = pretrain_backbone(
        spec,
        RngStream(50).standard_normal((40, 3)),
        np.ones((40, 1)) * (RngStream(51).random((40, 1)) < 0.5),
        np.ones((40, 1)),
        source_labels=("s",),
        epochs=1,
        rng=RngStream(52),
    )
    seed = RngStream(53)
    m0 = with_heads(backbone, ("a", "b"), seed)
    m1 = with_heads(backbone, ("b", "c"), seed)
    # the shared label's head is initialized identically at both nodes
    assert np.array_equal(m0.params["heads/weight"][1], m1.params["heads/weight"][0])
    assert np.array_equal(m0.params["heads/bias"][1], m1.params["heads/bias"][0])
    # trunk is copied, not aliased
    m0.params["dense0/weight"][0, 0] += 1.0
    assert backbone.params["dense0/weight"][0, 0] != m0.params["dense0/weight"][0, 0]


def test_with_heads_refuses_duplicate_labels():
    backbone = pretrain_backbone(tiny_spec(), np.zeros((4, 3)), np.zeros((4, 1)), np.ones((4, 1)),
                                 source_labels=("s",), epochs=0, rng=RngStream(54))
    with pytest.raises(ConfigError, match="label names must be unique"):
        with_heads(backbone, ("a", "b", "a"), RngStream(55))


def reference_sigmoid(x):
    """The boolean-mask form of the logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_boolean_mask_form_bit_for_bit():
    rng = RngStream(60)
    for trial in range(200):
        scale = [1.0, 30.0, 800.0][trial % 3]
        x = scale * rng.standard_normal((int(rng.integers(1, 70)), int(rng.integers(1, 16))))
        x.flat[:: 7] = 0.0
        x.flat[3 :: 11] = -0.0
        assert logistic(x).tobytes() == reference_sigmoid(x).tobytes(), trial


def reference_pass(model, x, labels, mask, policy):
    """Training-mode forward and backward with one separate ``(width, 1)``
    head per label, the per-label loop the packed heads must reproduce.

    Works on contiguous copies of the per-label view of ``model.params`` and
    returns ``(logits, loss, grads, params)``, both maps keyed per label.
    ``params`` holds the running statistics a NORMAL pass updated.
    """
    spec = model.spec
    p = {k: v.copy() for k, v in per_label_params(model.params, spec.label_names).items()}
    use_batch = policy is BnPolicy.NORMAL
    h = x
    layers = []
    for i in range(len(spec.hidden_dims)):
        pre = h @ p[f"dense{i}/weight"] + p[f"dense{i}/bias"]
        if use_batch:
            mean = pre.mean(axis=0)
            var = np.mean((pre - mean) ** 2, axis=0)
            m = spec.bn_momentum
            p[f"bn{i}/running_mean"] = (1.0 - m) * p[f"bn{i}/running_mean"] + m * mean
            p[f"bn{i}/running_var"] = (1.0 - m) * p[f"bn{i}/running_var"] + m * var
        else:
            mean, var = p[f"bn{i}/running_mean"], p[f"bn{i}/running_var"]
        inv_std = 1.0 / np.sqrt(var + spec.bn_eps)
        xn = (pre - mean) * inv_std
        out = p[f"bn{i}/gamma"] * xn + p[f"bn{i}/beta"]
        layers.append((h, pre, mean, xn, inv_std, out > 0.0))
        h = np.maximum(out, 0.0)
    logits = np.empty((x.shape[0], len(spec.label_names)))
    for j, label in enumerate(spec.label_names):
        head = f"head:{label}"
        logits[:, j : j + 1] = h @ p[f"{head}/weight"] + p[f"{head}/bias"]

    probs = reference_sigmoid(logits)
    loss = masked_bce(probs, labels, mask)
    dlogits = (probs - labels) * mask / float(mask.sum())
    grads = {}
    dh = np.zeros_like(h)
    for j, label in enumerate(spec.label_names):
        head = f"head:{label}"
        dcol = dlogits[:, j : j + 1]
        grads[f"{head}/weight"] = h.T @ dcol
        grads[f"{head}/bias"] = dcol.sum(axis=0)
        dh = dh + dcol @ p[f"{head}/weight"].T
    for i in reversed(range(len(layers))):
        h_in, pre, mean, xn, inv_std, active = layers[i]
        dh = dh * active
        gamma = p[f"bn{i}/gamma"]
        if use_batch:
            n = xn.shape[0]
            dxn = dh * gamma
            centered = pre - mean
            dvar = (dxn * centered).sum(axis=0) * (-0.5) * inv_std**3
            dmean = -(dxn.sum(axis=0)) * inv_std + dvar * (-2.0 / n) * centered.sum(axis=0)
            dpre = dxn * inv_std + dvar * 2.0 * centered / n + dmean / n
            grads[f"bn{i}/gamma"] = (dh * xn).sum(axis=0)
            grads[f"bn{i}/beta"] = dh.sum(axis=0)
        else:
            dpre = dh * gamma * inv_std
        grads[f"dense{i}/weight"] = h_in.T @ dpre
        grads[f"dense{i}/bias"] = dpre.sum(axis=0)
        dh = dpre @ p[f"dense{i}/weight"].T
    return logits, loss, grads, p


def assert_same_bits(got, want, what):
    assert sorted(got) == sorted(want), what
    for key in want:
        assert got[key].shape == want[key].shape, (what, key)
        assert got[key].tobytes() == want[key].tobytes(), (what, key)


@settings(max_examples=120, deadline=None)
@given(
    policy=st.sampled_from(list(BnPolicy)),
    rows=st.integers(2, 90),
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 12), max_size=2),
    n_labels=st.integers(1, 15),
    seed=st.integers(0, 2**32),
    blank=st.booleans(),
)
@example(policy=BnPolicy.NORMAL, rows=2, input_dim=3, hidden=[4, 3], n_labels=2, seed=1, blank=False)
@example(policy=BnPolicy.FROZEN, rows=2, input_dim=2, hidden=[1], n_labels=9, seed=2, blank=False)
@example(policy=BnPolicy.NORMAL, rows=63, input_dim=4, hidden=[5, 1], n_labels=14, seed=3, blank=False)
@example(policy=BnPolicy.FROZEN, rows=65, input_dim=32, hidden=[64, 32], n_labels=14, seed=4, blank=False)
@example(policy=BnPolicy.NORMAL, rows=64, input_dim=32, hidden=[64, 32], n_labels=14, seed=5, blank=False)
# one label over wholly unobserved rows: the trunk gradient of those rows is
# a sum of signed zeros, whose sign depends on where the sum starts
@example(policy=BnPolicy.NORMAL, rows=9, input_dim=3, hidden=[4, 3], n_labels=1, seed=6, blank=True)
@example(policy=BnPolicy.FROZEN, rows=9, input_dim=3, hidden=[4, 3], n_labels=1, seed=7, blank=True)
def test_packed_heads_match_per_label_loop_bit_for_bit(
    policy, rows, input_dim, hidden, n_labels, seed, blank
):
    labels = tuple(f"l{j}" for j in range(n_labels))
    model = init_model(ModelSpec(input_dim, tuple(hidden), labels), RngStream(seed))
    rng = RngStream(seed).child("batch")
    for key, value in model.params.items():  # off the identity BN init
        if key.startswith("bn") or key.endswith("bias"):
            value[:] = rng.child(key).standard_normal(value.shape)
        if key.endswith("running_var"):
            value[:] = 0.5 + np.abs(value)
    x = 2.0 * rng.standard_normal((rows, input_dim))
    y = (rng.random((rows, n_labels)) < 0.4).astype(np.float64)
    mask = (rng.random((rows, n_labels)) < 0.7).astype(np.float64)
    mask[0] = 1.0
    if blank:
        mask[1::2] = 0.0

    want_logits, want_loss, want_grads, want_params = reference_pass(
        model, x, y, mask, policy
    )
    logits, _, _ = _forward(copy.deepcopy(model), x, policy is BnPolicy.NORMAL)
    assert logits.tobytes() == want_logits.tobytes()
    assert logits.flags.c_contiguous
    packed = copy.deepcopy(model)
    loss, grads = backward(packed, x, y, mask, policy)
    assert loss == want_loss
    assert_same_bits(per_label_params(grads, labels), want_grads, "grads")
    assert_same_bits(per_label_params(packed.params, labels), want_params, "params")

"""Multi-label MLP with batch normalization, written directly over numpy.

The representation block is a stack of dense -> batch-norm -> ReLU layers;
on top sits one tiny sigmoid head per label so heads can be attached,
dropped, and merged independently of the shared trunk. The heads are
stored packed, one row per label, and each head's arithmetic is exactly
that of a separate per-label layer. Training is plain SGD over a masked
binary cross-entropy, with backprop done by hand.

Batch-norm has two behaviours, selected by ``BnPolicy`` during training:

* NORMAL: normalize with batch statistics and update the running estimates
  running <- (1 - momentum) * running + momentum * batch_stat
  (biased variance), with gradients flowing to gamma/beta.
* FROZEN: normalize with the stored running statistics, never mutate them,
  and produce no gamma/beta gradients at all.

Evaluation always uses running statistics and mutates nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numerics import RngStream, Tensor, check_finite

REPRESENTATION = "representation"
HEADS = "heads"

HEAD_WEIGHT = f"{HEADS}/weight"
HEAD_BIAS = f"{HEADS}/bias"
_HEAD_PREFIX = f"{HEADS}/"


class BnPolicy(str, Enum):
    NORMAL = "normal"
    FROZEN = "frozen"


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    label_names: tuple[str, ...]
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims entries must be positive")
        if len(set(self.label_names)) != len(self.label_names):
            raise ConfigError("label names must be unique")
        if not (0.0 < self.bn_momentum < 1.0):
            raise ConfigError("bn_momentum must lie in (0, 1)")
        if self.bn_eps <= 0.0:
            raise ConfigError("bn_eps must be positive")


BN_TENSORS = ("gamma", "beta", "running_mean", "running_var")


@functools.cache
def _layer_keys(depth: int) -> tuple[tuple[str, ...], ...]:
    """Each hidden layer's keys: its dense weight and bias, then its
    ``BN_TENSORS``; built once, not in every step."""
    return tuple((f"dense{i}/weight", f"dense{i}/bias", *(f"bn{i}/{name}" for name in BN_TENSORS))
                 for i in range(depth))


@dataclass
class Model:
    """Parameters plus the ModelSpec they were built for.

    ``params`` is the flat parameter map: ``dense{i}/weight|bias`` and
    ``bn{i}/gamma|beta|running_mean|running_var`` in forward order, then
    ``heads/weight`` (one row per label) and ``heads/bias`` with labels in
    the spec's order (see ``param_shapes``).
    """

    spec: ModelSpec
    params: dict[str, Tensor]


def key_kind(key: str) -> str:
    """The tensor kind aggregation rules tell apart: "dense", "bn" or "head"."""
    if key.startswith(_HEAD_PREFIX):
        return "head"
    return "bn" if key.startswith("bn") else "dense"


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every parameter key of ``spec`` with its shape, in canonical order."""
    shapes: dict[str, tuple[int, ...]] = {}
    fan_in = spec.input_dim
    for (weight, *rest), width in zip(_layer_keys(len(spec.hidden_dims)), spec.hidden_dims):
        shapes[weight] = (fan_in, width)
        shapes.update(dict.fromkeys(rest, (width,)))
        fan_in = width
    shapes[HEAD_WEIGHT] = (len(spec.label_names), fan_in)
    shapes[HEAD_BIAS] = (len(spec.label_names),)
    return shapes


def _init_tensor(rng: RngStream, key: str, shape: tuple[int, ...], labels) -> Tensor:
    """He-uniform weights from a stream keyed by the layer, each head row
    from its label's; zero biases; BN identity."""
    layer, name = key.rsplit("/", 1)
    if key == HEAD_WEIGHT:
        bound = math.sqrt(2.0 / shape[1])
        streams = [rng.child(f"init:head:{label}") for label in labels]
        return np.array([s.uniform(-bound, bound, shape[1]) for s in streams]).reshape(shape)
    if name == "weight":
        bound = math.sqrt(2.0 / shape[0])
        return rng.child(f"init:{layer}").uniform(-bound, bound, shape)
    if name in ("gamma", "running_var"):
        return np.ones(shape)
    return np.zeros(shape)


def init_model(spec: ModelSpec, rng: RngStream) -> Model:
    """Build a model from per-layer child streams of ``rng``.

    Each tensor draws from its own derived stream keyed by the layer name,
    and each head row from one keyed by its label, so the representation
    init is independent of the label list and any two models sharing a
    label (and seed) start with identical heads.
    """
    return Model(
        spec=spec,
        params={
            key: _init_tensor(rng, key, shape, spec.label_names)
            for key, shape in param_shapes(spec).items()
        },
    )


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function; the exponent is never positive, so it cannot overflow."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, np.divide(e, d, out=e))


def _check_input(model: Model, x: Tensor) -> Tensor:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise ShapeError(f"expected inputs of shape (n, {model.spec.input_dim}), got {x.shape}")
    return x


def _forward(model: Model, x: Tensor, use_batch: bool):
    """Run the network: logits, the trunk output, and one record per hidden
    layer, ``(h_in, centered, xn, inv_std, active)``, for ``backward``.

    ``use_batch`` (training under NORMAL) normalizes with batch statistics
    (the mean, then the biased variance of the centered input) and updates
    the running estimates; otherwise the running statistics are used and
    nothing is mutated.

    Each formula is evaluated as written, one ufunc after another; the
    in-place forms only reuse arrays this call just allocated.
    """
    x = _check_input(model, x)
    spec = model.spec
    p = model.params
    h = x
    layers = []
    for weight, bias, gamma, beta, running_mean, running_var in _layer_keys(len(spec.hidden_dims)):
        pre = h @ p[weight]
        pre += p[bias]
        if use_batch:
            n = pre.shape[0]
            mean = np.add.reduce(pre, axis=0)
            mean /= n
            centered = np.subtract(pre, mean, out=pre)
            var = np.add.reduce(np.square(centered), axis=0)
            var /= n
            m = spec.bn_momentum
            # new arrays: a model that shares these statistics never sees the update
            p[running_mean] = (1.0 - m) * p[running_mean] + m * mean
            p[running_var] = (1.0 - m) * p[running_var] + m * var
        else:
            centered = np.subtract(pre, p[running_mean], out=pre)
            var = p[running_var]
        inv_std = var + spec.bn_eps
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        xn = centered * inv_std
        out = p[gamma] * xn
        out += p[beta]
        layers.append((h, centered, xn, inv_std, out > 0.0))
        h = np.maximum(out, 0.0, out=out)

    # one (n, width) @ (width, 1) product per head, as with separate heads;
    # C order keeps every later whole-array sum in row-major order
    logits = np.add(np.matmul(h, p[HEAD_WEIGHT][:, :, None])[:, :, 0].T, p[HEAD_BIAS], order="C")
    check_finite(logits, "logits")
    return logits, h, layers


def predict(model: Model, x: Tensor) -> Tensor:
    """Per-label probabilities in evaluation mode (running stats, no mutation)."""
    logits, _, _ = _forward(model, x, use_batch=False)
    return sigmoid(logits)


def masked_bce(probs: Tensor, labels: Tensor, mask: Tensor) -> float:
    """Mean binary cross-entropy over mask==1 entries.

    Probabilities are clamped to [1e-7, 1 - 1e-7] inside the logs only.
    """
    probs = np.asarray(probs, dtype=np.float64)
    return _masked_bce(probs, labels, mask, float(np.add.reduce(mask, axis=None)))


def _masked_bce(probs: Tensor, labels: Tensor, mask: Tensor, n_masked: float) -> float:
    """``masked_bce`` given the mask's sum, which ``backward`` needs as well.

    Evaluates ``-(labels * log(p) + (1 - labels) * log1p(-p))`` into the
    clamped copy ``p`` and one other temporary.
    """
    if n_masked == 0:
        raise DataError("masked_bce: mask selects no entries")
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    term = np.log(p)
    term *= labels
    np.negative(p, out=p)
    np.log1p(p, out=p)
    p *= 1.0 - labels
    term += p
    np.negative(term, out=term)
    term *= mask
    return float(np.add.reduce(term, axis=None) / n_masked)


def evaluate_loss(model: Model, features: Tensor, labels: Tensor, mask: Tensor) -> float:
    """Full-batch evaluation-mode masked BCE."""
    return masked_bce(predict(model, features), labels, mask)


def backward(
    model: Model,
    x: Tensor,
    labels: Tensor,
    mask: Tensor,
    policy: BnPolicy,
) -> tuple[float, dict[str, Tensor]]:
    """One training-mode forward/backward pass.

    Returns (loss, grads) where grads maps parameter key -> gradient.
    Under FROZEN the batch-norm layers contribute no gradient entries and
    their statistics are left untouched; under NORMAL the running
    statistics are updated by the embedded forward pass.
    """
    labels = np.asarray(labels, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    use_batch = policy is BnPolicy.NORMAL
    logits, trunk, layers = _forward(model, x, use_batch)
    probs = sigmoid(logits)
    n_masked = float(np.add.reduce(mask, axis=None))
    loss = _masked_bce(probs, labels, mask, n_masked)

    # d loss / d logit for sigmoid+BCE fused: (p - y) * mask / n_masked; as in
    # _forward, the in-place forms write only into this step's own temporaries
    dlogits = np.subtract(probs, labels, out=probs)
    dlogits *= mask
    dlogits /= n_masked

    p = model.params
    # Each label as with a separate head: a (width, n) @ (n, 1) weight
    # gradient, a bias sum over one contiguous row, and an outer product added
    # to the trunk gradient. The matmul keeps the strided dcols: a contiguous
    # copy makes BLAS pick another kernel and changes bits. The outer products
    # are built in C order, so reducing their outer axis adds whole slices in
    # label order, starting from +0.0, as a loop of per-label adds would.
    dcols = dlogits.T[:, :, None]
    grads: dict[str, Tensor] = {
        HEAD_WEIGHT: np.matmul(trunk.T, dcols)[:, :, 0],
        HEAD_BIAS: np.add.reduce(np.ascontiguousarray(dlogits.T), axis=1),
    }
    outers = np.multiply(dcols, p[HEAD_WEIGHT][:, None, :], order="C")
    dh = np.add.reduce(outers, axis=0, initial=0.0)

    keys = _layer_keys(len(layers))
    for i in reversed(range(len(layers))):
        weight, bias, gamma, beta = keys[i][:4]
        h_in, centered, xn, inv_std, active = layers[i]
        dh *= active

        if use_batch:
            n = xn.shape[0]
            tmp = dh * xn
            grads[gamma] = np.add.reduce(tmp, axis=0)
            grads[beta] = np.add.reduce(dh, axis=0)
            dxn = np.multiply(dh, p[gamma], out=dh)
            # dvar = (dxn * centered).sum(0) * (-0.5) * inv_std**3
            dvar = np.add.reduce(np.multiply(dxn, centered, out=tmp), axis=0)
            dvar *= -0.5
            dvar *= inv_std**3
            # dmean = -(dxn.sum(0)) * inv_std + dvar * (-2.0 / n) * centered.sum(0)
            dmean = np.add.reduce(dxn, axis=0)
            np.negative(dmean, out=dmean)
            dmean *= inv_std
            shift = dvar * (-2.0 / n)
            shift *= np.add.reduce(centered, axis=0)
            dmean += shift
            # dpre = dxn * inv_std + dvar * 2.0 * centered / n + dmean / n
            dpre = np.multiply(dxn, inv_std, out=dxn)
            np.multiply(dvar * 2.0, centered, out=tmp)
            tmp /= n
            dpre += tmp
            dmean /= n
            dpre += dmean
        else:
            # dpre = dh * gamma * inv_std
            dpre = np.multiply(dh, p[gamma], out=dh)
            dpre *= inv_std

        grads[weight] = h_in.T @ dpre
        grads[bias] = np.add.reduce(dpre, axis=0)
        if i > 0:  # nothing reads the gradient of the input
            dh = dpre @ p[weight].T

    return loss, grads


def sgd_step(model: Model, grads: dict[str, Tensor], lr_by_block: dict[str, float]) -> None:
    """In-place SGD update; a block with lr == 0 is skipped exactly."""
    rep_lr, head_lr = lr_by_block[REPRESENTATION], lr_by_block[HEADS]
    params = model.params
    cut = len(_HEAD_PREFIX)
    for key, g in grads.items():
        # key_kind's head test as a slice: no call per key on the hot path
        lr = head_lr if key[:cut] == _HEAD_PREFIX else rep_lr
        if lr == 0.0:
            continue
        param = params[key]
        param -= lr * g  # a new lr * g: the caller's grads stay as they are


def train_epochs(
    model: Model,
    features: Tensor,
    labels: Tensor,
    mask: Tensor,
    epochs: int,
    lr_by_block: dict[str, float],
    policy: BnPolicy,
    batch_size: int,
    rng: RngStream,
) -> float:
    """Minibatch SGD for ``epochs`` passes; returns the mean batch loss.

    Batch order comes from ``rng`` permutations. A trailing batch of one
    row is dropped so batch statistics stay defined and every strategy
    sees the same step count.
    """
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    n = features.shape[0]
    if n < 2:
        raise DataError("training needs at least 2 rows")
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size == 1:
                continue
            loss, grads = backward(model, features[idx], labels[idx], mask[idx], policy)
            sgd_step(model, grads, lr_by_block)
            losses.append(loss)
    return float(np.mean(losses)) if losses else math.nan


def warmup_heads(
    model: Model,
    features: Tensor,
    labels: Tensor,
    mask: Tensor,
    epochs: int,
    rng: RngStream,
    lr: float = 1e-3,
    batch_size: int = 64,
) -> float:
    """Fit freshly attached heads with the trunk fully immobilized.

    Batch norm runs FROZEN and the representation learning rate is zero,
    so only head tensors move and the trunk (statistics included) is
    bit-identical afterwards.
    """
    return train_epochs(
        model,
        features,
        labels,
        mask,
        epochs=epochs,
        lr_by_block={REPRESENTATION: 0.0, HEADS: lr},
        policy=BnPolicy.FROZEN,
        batch_size=batch_size,
        rng=rng,
    )


def pretrain_backbone(
    spec: ModelSpec,
    features: Tensor,
    labels: Tensor,
    mask: Tensor,
    source_labels: tuple[str, ...],
    epochs: int,
    rng: RngStream,
    lr: float = 1e-3,
    batch_size: int = 64,
) -> Model:
    """Train a throwaway-source model and keep only its trunk.

    The source task's heads are dropped; what remains is a representation
    with learned weights and settled running statistics, ready for
    ``with_heads``. With epochs == 0 the trunk equals a fresh init from
    the same stream bit-for-bit.
    """
    source_spec = replace(spec, label_names=tuple(source_labels))
    model = init_model(source_spec, rng)
    train_epochs(
        model,
        features,
        labels,
        mask,
        epochs=epochs,
        lr_by_block={REPRESENTATION: lr, HEADS: lr},
        policy=BnPolicy.NORMAL,
        batch_size=batch_size,
        rng=rng.child("pretrain-batches"),
    )
    return Model(
        spec=replace(spec, label_names=()),
        params={k: v for k, v in model.params.items() if key_kind(k) != "head"},
    )


def with_heads(backbone: Model, labels: tuple[str, ...], rng: RngStream) -> Model:
    """Copy the trunk and attach fresh heads for ``labels``.

    Head init streams are keyed by label name, so two nodes calling this
    with the same seed get identical heads for every shared label.
    """
    spec = replace(backbone.spec, label_names=tuple(labels))
    return Model(
        spec=spec,
        params={
            key: backbone.params[key].copy()
            if key_kind(key) != "head"
            else _init_tensor(rng, key, shape, spec.label_names)
            for key, shape in param_shapes(spec).items()
        },
    )

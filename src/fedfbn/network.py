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

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, ProtocolError, ShapeError
from .numerics import RngStream, Tensor, batch_stats, check_finite

REPRESENTATION = "representation"
HEADS = "heads"

HEAD_WEIGHT = f"{HEADS}/weight"
HEAD_BIAS = f"{HEADS}/bias"
# per-label head keys of model hashes and checkpoint files
HEAD_PREFIX = "head:"


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
    if key.startswith(f"{HEADS}/"):
        return "head"
    return "bn" if key.startswith("bn") else "dense"


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every parameter key of ``spec`` with its shape, in canonical order."""
    shapes: dict[str, tuple[int, ...]] = {}
    fan_in = spec.input_dim
    for i, width in enumerate(spec.hidden_dims):
        shapes[f"dense{i}/weight"] = (fan_in, width)
        shapes[f"dense{i}/bias"] = (width,)
        for name in BN_TENSORS:
            shapes[f"bn{i}/{name}"] = (width,)
        fan_in = width
    shapes[HEAD_WEIGHT] = (len(spec.label_names), fan_in)
    shapes[HEAD_BIAS] = (len(spec.label_names),)
    return shapes


def per_label_params(params: dict[str, Tensor], labels) -> dict[str, Tensor]:
    """``params`` keyed as model hashes and checkpoint files key them: the
    trunk, then per label ``head:<label>/weight`` ``(width, 1)`` and
    ``head:<label>/bias`` ``(1,)``, views of the packed rows (writes go
    through)."""
    view = {key: value for key, value in params.items() if key_kind(key) != "head"}
    for j, label in enumerate(labels):
        view[f"{HEAD_PREFIX}{label}/weight"] = params[HEAD_WEIGHT][j, :, None]
        view[f"{HEAD_PREFIX}{label}/bias"] = params[HEAD_BIAS][j : j + 1]
    return view


def _init_tensor(rng: RngStream, key: str, shape: tuple[int, ...], labels) -> Tensor:
    """He-uniform weights from a stream keyed by the layer, each head row
    from its label's; zero biases; BN identity."""
    layer, name = key.rsplit("/", 1)
    if key == HEAD_WEIGHT:
        bound = math.sqrt(2.0 / shape[1])
        streams = [rng.child(f"init:{HEAD_PREFIX}{label}") for label in labels]
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
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_input(model: Model, x: Tensor) -> Tensor:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise ShapeError(f"expected inputs of shape (n, {model.spec.input_dim}), got {x.shape}")
    return x


def _forward(model: Model, x: Tensor, use_batch: bool):
    """Run the network: logits, the trunk output, and one record per hidden
    layer, ``(h_in, pre, mean, xn, inv_std, active)``, for ``backward``.

    ``use_batch`` (training under NORMAL) normalizes with batch statistics
    and updates the running estimates; otherwise the running statistics are
    used and nothing is mutated.
    """
    x = _check_input(model, x)
    spec = model.spec
    p = model.params
    h = x
    layers = []
    for i in range(len(spec.hidden_dims)):
        pre = h @ p[f"dense{i}/weight"] + p[f"dense{i}/bias"]
        if use_batch:
            if pre.shape[0] < 2:
                raise DataError(
                    "batch normalization with batch statistics needs a "
                    f"batch of >= 2 rows, got {pre.shape[0]}"
                )
            mean, var = batch_stats(pre)
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
    if probs.shape != labels.shape or probs.shape != mask.shape:
        raise ShapeError("probs, labels, and mask must share a shape")
    n_masked = float(mask.sum())
    if n_masked == 0:
        raise DataError("masked_bce: mask selects no entries")
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    term = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    return float((term * mask).sum() / n_masked)


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
    if labels.shape != logits.shape or mask.shape != logits.shape:
        raise ShapeError("labels/mask shape must be (batch, n_labels)")
    probs = sigmoid(logits)
    loss = masked_bce(probs, labels, mask)

    n_masked = float(mask.sum())
    # d loss / d logit for sigmoid+BCE fused: (p - y) * mask / n_masked
    dlogits = (probs - labels) * mask / n_masked

    p = model.params
    # Each label as with a separate head: a (width, n) @ (n, 1) weight
    # gradient, a bias sum over one contiguous row, and an outer product added
    # to the trunk gradient in label order; a reduction over labels may pair
    # the sums differently and change the last bits.
    dcols = dlogits.T[:, :, None]
    grads: dict[str, Tensor] = {
        HEAD_WEIGHT: np.matmul(trunk.T, dcols)[:, :, 0],
        HEAD_BIAS: np.ascontiguousarray(dlogits.T).sum(axis=1),
    }
    dh = np.zeros_like(trunk)
    for outer in dcols * p[HEAD_WEIGHT][:, None, :]:
        dh = dh + outer

    for i in reversed(range(len(layers))):
        h_in, pre, mean, xn, inv_std, active = layers[i]
        dh = dh * active

        gamma = p[f"bn{i}/gamma"]
        if use_batch:
            n = xn.shape[0]
            dgamma = (dh * xn).sum(axis=0)
            dbeta = dh.sum(axis=0)
            dxn = dh * gamma
            centered = pre - mean
            dvar = (dxn * centered).sum(axis=0) * (-0.5) * inv_std**3
            dmean = (
                -(dxn.sum(axis=0)) * inv_std
                + dvar * (-2.0 / n) * centered.sum(axis=0)
            )
            dpre = dxn * inv_std + dvar * 2.0 * centered / n + dmean / n
            grads[f"bn{i}/gamma"] = dgamma
            grads[f"bn{i}/beta"] = dbeta
        else:
            dpre = dh * gamma * inv_std

        grads[f"dense{i}/weight"] = h_in.T @ dpre
        grads[f"dense{i}/bias"] = dpre.sum(axis=0)
        if i > 0:  # nothing reads the gradient of the input
            dh = dpre @ p[f"dense{i}/weight"].T

    return loss, grads


def sgd_step(model: Model, grads: dict[str, Tensor], lr_by_block: dict[str, float]) -> None:
    """In-place SGD update; a block with lr == 0 is skipped exactly."""
    for block in (REPRESENTATION, HEADS):
        if block not in lr_by_block:
            raise ConfigError(f"lr_by_block missing '{block}'")
    for key, g in grads.items():
        lr = lr_by_block[HEADS if key_kind(key) == "head" else REPRESENTATION]
        if lr == 0.0:
            continue
        param = model.params.get(key)
        if param is None:
            raise ProtocolError(f"gradient for unknown parameter '{key}'")
        if param.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {param.shape} at {key}")
        param -= lr * g


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
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
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
    if epochs > 0:
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
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate labels in head attachment")
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

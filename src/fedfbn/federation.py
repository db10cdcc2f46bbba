"""Federated rounds over heterogeneous label sets, three aggregation rules.

Every round each node trains locally, ships a parameter bundle, and the
server combines bundles into a global model:

* FEDAVG: weighted mean of everything, batch-norm statistics included.
* FEDBN: weighted mean of dense layers only; each node keeps its own
  batch-norm layers, so the "global" model is per-node below the heads.
* FEDFBN: nodes train with batch norm frozen, so their BN tensors must
  still agree bit-for-bit at aggregation time; the server verifies that
  and carries the shared values through unchanged. Averaging identical
  tensors is the identity, implemented literally as a copy so no
  floating-point accumulation can perturb the frozen values.

Heads are merged surgically: the global label set is the union, a head
owned by one node is copied, and a head shared by several nodes is
averaged over its owners (bit-identical owners short-circuit to a copy).
This is done on the packed head tensors, one row per label, in one block
of rows for each set of owners.
All reductions accumulate in ascending node id so results are a pure
function of the inputs, not of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    FrozenStatsError,
    LabelError,
    NodeFailure,
    ProtocolError,
    ShapeError,
)
from .metrics import EvalReport, bootstrap_ci
from .network import (
    BnPolicy,
    HEAD_BIAS,
    HEAD_WEIGHT,
    HEADS,
    Model,
    ModelSpec,
    REPRESENTATION,
    evaluate_loss,
    key_kind,
    param_shapes,
    predict,
    train_epochs,
)
from .numerics import RngStream, Tensor


class Strategy(str, Enum):
    FEDAVG = "fedavg"
    FEDBN = "fedbn"
    FEDFBN = "fedfbn"

    @property
    def bn_policy(self) -> BnPolicy:
        """How local training runs batch norm: FEDFBN keeps it frozen."""
        return BnPolicy.FROZEN if self is Strategy.FEDFBN else BnPolicy.NORMAL


class Weighting(str, Enum):
    UNIFORM = "uniform"
    BY_SAMPLES = "by_samples"


def _tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Bitwise equality (distinguishes -0.0 from 0.0, NaN payloads, ...)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class ParameterBundle:
    """One node's parameters as shipped to the server for a round."""

    node_id: int
    round_index: int
    sample_count: int
    entries: dict[str, Tensor]
    head_labels: tuple[str, ...]


def extract_bundle(
    model: Model, node_id: int, round_index: int, sample_count: int
) -> ParameterBundle:
    """Copy a model's parameter map into a bundle."""
    return ParameterBundle(
        node_id=node_id,
        round_index=round_index,
        sample_count=sample_count,
        entries={key: value.copy() for key, value in model.params.items()},
        head_labels=model.spec.label_names,
    )


def _weights(bundles: list[ParameterBundle], weighting: Weighting) -> dict[int, float]:
    if weighting is Weighting.UNIFORM:
        w = 1.0 / len(bundles)
        return {b.node_id: w for b in bundles}
    total = sum(b.sample_count for b in bundles)
    return {b.node_id: b.sample_count / total for b in bundles}


# Aggregation rules. Each combines one key across the bundles that hold it
# (sorted by node id); all accumulate in that fixed order.


def _weighted_sum(tensors: list[Tensor], weights: list[float]) -> Tensor:
    """Multiply-accumulate in list order."""
    acc = weights[0] * tensors[0]
    for w, tensor in zip(weights[1:], tensors[1:]):
        acc = acc + w * tensor
    return acc


def _mean(key: str, bundles: list[ParameterBundle], weights: dict[int, float]) -> Tensor:
    """Weighted mean, multiply-accumulate in ascending node id."""
    return _weighted_sum([b.entries[key] for b in bundles], [weights[b.node_id] for b in bundles])


def _frozen(key: str, bundles: list[ParameterBundle], weights: dict[int, float]) -> Tensor:
    """Frozen BN: demand bitwise agreement, then carry the value through.

    A float mean of identical tensors would not be exact.
    """
    reference = bundles[0].entries[key]
    for b in bundles[1:]:
        if not _tensors_equal(b.entries[key], reference):
            raise FrozenStatsError(
                f"frozen batch-norm tensor {key} differs between node "
                f"{bundles[0].node_id} and node {b.node_id}"
            )
    return reference.copy()


def _owner_mean(blocks: list[Tensor], weights: list[float]) -> Tensor:
    """Mean of a block of head rows over their owners, weights renormalized
    to sum to one.

    A row on which all owners agree bit for bit is copied, so agreeing nodes
    cannot drift through arithmetic. The mean is elementwise, so a block
    gives the same bits as one row at a time.
    """
    first = blocks[0]
    if len(blocks) == 1:
        return first
    wsum = sum(weights)
    merged = _weighted_sum(blocks, [w / wsum for w in weights])
    bits = [block.reshape(len(first), -1).view(np.uint64) for block in blocks]
    agree = np.all([(b == bits[0]).all(axis=1) for b in bits[1:]], axis=0)
    merged[agree] = first[agree]
    return merged


# What the server does with each trunk tensor kind under each strategy;
# None keeps the tensor on its node. Heads always use _owner_mean.
RULES = {
    Strategy.FEDAVG: {"dense": _mean, "bn": _mean},
    Strategy.FEDBN: {"dense": _mean, "bn": None},
    Strategy.FEDFBN: {"dense": _mean, "bn": _frozen},
}


def node_bn_key(node_id: int, key: str) -> str:
    """The global-map key of FEDBN's copy of batch-norm ``key`` for a node."""
    return f"node_bn/{node_id}/{key}"


def global_shapes(spec: ModelSpec, bn_nodes: list[int] | None) -> dict[str, tuple[int, ...]]:
    """Every key of a global model's map with its shape, in map order.

    The shared keys come in ``param_shapes`` order. When ``bn_nodes`` names
    the nodes that keep their own batch norm, the ``bn*`` keys leave the
    shared part and follow under ``node_bn_key``, one node after another.
    """
    shapes = param_shapes(spec)
    local = [] if bn_nodes is None else [key for key in shapes if key_kind(key) == "bn"]
    table = {key: shape for key, shape in shapes.items() if key not in local}
    table.update({node_bn_key(i, key): shapes[key] for i in bn_nodes or () for key in local})
    return table


@dataclass
class GlobalModel:
    """Server-side model: one flat parameter map.

    ``params`` holds the keys of ``global_shapes``: the trunk, then the
    heads with rows in label order, then under FEDBN each node's own
    batch norm under ``node_bn_key``.
    """

    spec: ModelSpec
    params: dict[str, Tensor]
    node_labels: dict[int, tuple[str, ...]]
    strategy: Strategy
    round_index: int

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.spec.label_names

    @property
    def bn_nodes(self) -> list[int] | None:
        """Ids of the nodes that keep their own batch norm (FEDBN's rule), else None."""
        return sorted(self.node_labels) if RULES[self.strategy]["bn"] is None else None

    def materialize(self, labels, node_id: int | None = None) -> Model:
        """Build a concrete model for a label view (copies throughout).

        Under FEDBN a node_id must name whose batch-norm layers to use;
        other strategies ignore it.
        """
        labels = tuple(labels)
        if not labels:
            raise LabelError("materialize needs at least one label")
        missing = [l for l in labels if l not in self.label_names]
        if missing:
            raise LabelError(f"global model has no head for {missing}")
        spec = replace(self.spec, label_names=labels)
        stored = {key: key for key in param_shapes(spec)}
        if self.bn_nodes is not None:
            if node_id is None:
                raise ProtocolError("this global model keeps per-node batch norm; pass node_id")
            if node_id not in self.bn_nodes:
                raise ProtocolError(f"no batch-norm layers stored for node {node_id}")
            stored.update({k: node_bn_key(node_id, k) for k in stored if key_kind(k) == "bn"})
        rows = [self.label_names.index(label) for label in labels]
        return Model(
            spec=spec,
            params={
                key: self.params[src][rows] if key_kind(key) == "head" else self.params[src].copy()
                for key, src in stored.items()
            },
        )


def merge_heads(
    bundles: list[ParameterBundle], weights: dict[int, float]
) -> tuple[dict[str, Tensor], tuple[str, ...]]:
    """Union the label sets and merge each label's head rows over its owners.

    The labels that share one owner set are merged as one block of rows.
    Returns the merged ``heads/weight`` and ``heads/bias`` (rows in union
    order) and the union, labels in order of first appearance.
    """
    union = tuple(dict.fromkeys(label for b in bundles for label in b.head_labels))
    blocks: dict[tuple[int, ...], list[int]] = {}  # owner positions -> union rows
    for j, label in enumerate(union):
        owners = tuple(i for i, b in enumerate(bundles) if label in b.head_labels)
        blocks.setdefault(owners, []).append(j)
    merged = {key: np.empty((len(union), *bundles[0].entries[key].shape[1:]))
              for key in (HEAD_WEIGHT, HEAD_BIAS)}
    for owners, rows in blocks.items():
        owned = [(bundles[i], [bundles[i].head_labels.index(union[j]) for j in rows])
                 for i in owners]
        for key, value in merged.items():
            value[rows] = _owner_mean([b.entries[key][own] for b, own in owned],
                                      [weights[b.node_id] for b, _ in owned])
    return merged, union


def aggregate(
    bundles: list[ParameterBundle],
    strategy: Strategy,
    spec: ModelSpec,
    weighting: Weighting = Weighting.UNIFORM,
) -> GlobalModel:
    """Combine one round's bundles into a global model."""
    ordered = sorted(bundles, key=lambda b: b.node_id)
    weights = _weights(ordered, weighting)
    rules = RULES[strategy]

    params: dict[str, Tensor] = {}
    kept: list[str] = []  # keys each node keeps for itself
    for key in ordered[0].entries:
        kind = key_kind(key)
        if kind == "head":
            continue
        rule = rules[kind]
        if rule is None:
            kept.append(key)
        else:
            params[key] = rule(key, ordered, weights)

    heads, union = merge_heads(ordered, weights)
    params.update(heads)
    params.update({node_bn_key(b.node_id, k): b.entries[k].copy() for b in ordered for k in kept})
    return GlobalModel(
        spec=replace(spec, label_names=union),
        params=params,
        node_labels={b.node_id: b.head_labels for b in ordered},
        strategy=strategy,
        round_index=ordered[0].round_index,
    )


@dataclass
class Node:
    """A participant: private train/val data plus its current model.

    ``train`` and ``val`` need ``features``, ``labels``, and ``mask``
    arrays whose label columns match the model's label_names order.
    """

    node_id: int
    train: object
    val: object
    model: Model
    rng: RngStream
    lr: float
    batch_size: int = 64

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.model.spec.label_names


def _check_node_data(node: Node) -> None:
    for part_name, part in (("train", node.train), ("val", node.val)):
        want = (part.features.shape[0], len(node.label_names))
        if part.labels.shape != want or part.mask.shape != want:
            raise ShapeError(
                f"node {node.node_id} {part_name}: labels/mask shape "
                f"{part.labels.shape} does not match {want}"
            )
        if not np.isin(part.labels[part.mask != 0.0], (0.0, 1.0)).all():
            raise DataError(f"node {node.node_id} {part_name}: observed labels must be 0 or 1")


def local_train_round(node: Node, strategy: Strategy, local_epochs: int) -> float:
    """One node's local pass, under the strategy's batch-norm policy."""
    return train_epochs(
        node.model,
        node.train.features,
        node.train.labels,
        node.train.mask,
        epochs=local_epochs,
        lr_by_block={REPRESENTATION: node.lr, HEADS: node.lr},
        policy=strategy.bn_policy,
        batch_size=node.batch_size,
        rng=node.rng,
    )


@dataclass
class RoundReport:
    round_index: int
    train_losses: dict[int, float]
    val_losses: dict[int, float]
    mean_val_loss: float
    is_best: bool


@dataclass
class FederationResult:
    best: GlobalModel
    best_round: int
    reports: list[RoundReport] = field(default_factory=list)


def run_federation(
    nodes: list[Node],
    strategy: Strategy,
    rounds: int,
    local_epochs: int = 1,
    weighting: Weighting = Weighting.UNIFORM,
    on_round=None,
) -> FederationResult:
    """Train for ``rounds`` aggregation rounds and track the best global.

    "Best" is the global model whose post-aggregation mean validation BCE
    across nodes is strictly smallest; ties keep the earlier round. Node
    exceptions during local training surface as NodeFailure naming the
    node and round.
    """
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if local_epochs < 1:
        raise ConfigError("local_epochs must be >= 1")
    if not nodes:
        raise ConfigError("run_federation needs at least one node")
    ordered = sorted(nodes, key=lambda n: n.node_id)
    ids = [n.node_id for n in ordered]
    if len(set(ids)) != len(ids):
        raise ProtocolError(f"duplicate node ids: {ids}")
    base = replace(ordered[0].model.spec, label_names=())
    for node in ordered[1:]:
        if replace(node.model.spec, label_names=()) != base:
            raise ProtocolError(f"node {node.node_id} model spec differs from node {ids[0]}")
    for node in ordered:
        _check_node_data(node)

    best: GlobalModel | None = None
    best_loss = float("inf")
    best_round = -1
    reports: list[RoundReport] = []

    for r in range(rounds):
        train_losses: dict[int, float] = {}
        for node in ordered:
            try:
                train_losses[node.node_id] = local_train_round(node, strategy, local_epochs)
            except Exception as exc:
                raise NodeFailure(node.node_id, r, exc) from exc

        bundles = [
            extract_bundle(node.model, node.node_id, r, node.train.features.shape[0])
            for node in ordered
        ]
        latest = aggregate(bundles, strategy, base, weighting)

        val_losses: dict[int, float] = {}
        for node in ordered:
            node.model = latest.materialize(node.label_names, node_id=node.node_id)
            val_losses[node.node_id] = evaluate_loss(
                node.model, node.val.features, node.val.labels, node.val.mask
            )
        mean_val = float(np.mean([val_losses[i] for i in ids]))

        is_best = mean_val < best_loss
        if is_best:
            best_loss = mean_val
            best = latest  # never mutated: materialize copies
            best_round = r
        report = RoundReport(
            round_index=r,
            train_losses=train_losses,
            val_losses=val_losses,
            mean_val_loss=mean_val,
            is_best=is_best,
        )
        reports.append(report)
        if on_round is not None:
            on_round(report)

    assert best is not None
    return FederationResult(best=best, best_round=best_round, reports=reports)


def score_global(gm: GlobalModel, ds, labels, node_id: int | None = None) -> Tensor:
    """A global model's ``(rows, len(labels))`` scores on a label view of ``ds``.

    ``node_id`` scores that node's model: its batch norm under FEDBN, and
    only the heads the node trained. A requested label with no usable head
    scores a constant 0.5, which the tie-handling AUROC grades as exactly
    0.5 when defined.
    """
    labels = tuple(labels)
    ds.label_indices(labels)  # a label ds lacks is a LabelError
    usable = gm.label_names if node_id is None else gm.node_labels.get(node_id)
    if usable is None:
        raise ProtocolError(f"global model has no node {node_id}")
    present = [l for l in labels if l in usable]
    if not present:
        raise LabelError("no requested label has a trained head")
    model = gm.materialize(present, node_id=node_id)
    probs = predict(model, ds.features)
    scores = np.full((ds.features.shape[0], len(labels)), 0.5)
    col = {l: j for j, l in enumerate(labels)}
    for k, label in enumerate(present):
        scores[:, col[label]] = probs[:, k]
    return scores


def evaluate_global(
    scores,
    ds,
    labels,
    rng: RngStream,
    n_bootstrap: int = 1000,
) -> list[EvalReport]:
    """Bootstrap-evaluate stacked :func:`score_global` matrices on one label view.

    Every model is scored against the same resamples of ``ds``; one report
    is returned per matrix, in order.
    """
    labels = list(labels)
    idx = ds.label_indices(labels)
    return bootstrap_ci(scores, ds.labels[:, idx], ds.mask[:, idx], labels, rng, n_bootstrap)

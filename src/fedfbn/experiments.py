"""The four benchmark scenarios, arm orchestration, and report files.

A scenario (``config.SCENARIOS``) fixes datasets, label topology, test sets,
and label views:

* iid_complete      one domain, stratified halves, full labels at both nodes
* iid_partial       same data, labels pruned to an 11/7 split sharing 4
* non_iid_complete  two shifted domains, both nodes train the same 7 labels
* non_iid_partial   two shifted domains plus the 11/7-share-4 label split

Every scenario adds a third shifted domain as an external test set. Arms
(fedfbn / fedavg / fedbn / per-node local / centralized) all start from
one shared pretrained trunk with warmed-up heads; only the aggregation
strategy differs, which is asserted by hashing the shared inputs.

Everything here is a pure function of (config, master seed): stream
labels name their purpose, reductions are fixed-order, file emission uses
repr() floats and sorted JSON keys, and nothing records wall-clock time.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
import os
import pickle
import re
import sys
from dataclasses import dataclass, field

from .checkpoint import atomic_open, save_global
from .config import (ARMS, SCENARIOS, SPLIT_FRACTIONS, ExperimentConfig, config_digest,
                     node_learning_rates)
from .datagen import (
    Dataset,
    DomainSpec,
    LabelModel,
    concat_naive,
    generate,
    make_iid_halves,
    save_tabular,
    shifted_domain,
    split_by_patient,
)
from .errors import ParseError, ProtocolError, WorkerError
from .federation import (
    FederationResult,
    GlobalModel,
    Node,
    RoundReport,
    Strategy,
    Weighting,
    evaluate_global,
    run_federation,
    score_global,
)
from .metrics import EvalReport, paired_ttest
from .network import Model, pretrain_backbone, warmup_heads, with_heads
from .numerics import RngStream

REPORT_PREFIX = "report_"
ENVELOPE_SCHEMA_VERSION = 1

# patient-id namespaces keep ids unique across independently drawn pools
_PID_NODE1 = 1_000_000
_PID_EXTERNAL = 2_000_000
_PID_PRETRAIN = 3_000_000


@dataclass
class ScenarioData:
    """Everything an arm needs; all label recoding already applied."""

    node_train: list[Dataset]
    node_val: list[Dataset]
    pooled_train: Dataset
    pooled_val: Dataset
    test_sets: dict[str, Dataset]
    views: dict[str, tuple[str, ...]]
    pretrain: Dataset

    def parts(self) -> dict[str, Dataset]:
        """Every named dataset, in name order."""
        parts: dict[str, Dataset] = {
            "pretrain": self.pretrain,
            "pooled_train": self.pooled_train,
            "pooled_val": self.pooled_val,
        }
        for i in range(len(self.node_train)):
            parts[f"node{i}_train"] = self.node_train[i]
            parts[f"node{i}_val"] = self.node_val[i]
        for name, ds in self.test_sets.items():
            parts[f"test_{name}"] = ds
        return dict(sorted(parts.items()))

    def content_hashes(self) -> dict[str, str]:
        return {name: ds.content_hash() for name, ds in self.parts().items()}


def build_scenario(cfg: ExperimentConfig) -> ScenarioData:
    """Deterministically construct datasets, label sets, and test views."""
    master = RngStream(cfg.seed)
    label_model = LabelModel.sample(
        cfg.n_labels,
        cfg.latent_dim,
        master.child("label-model"),
        uncertain_rate=cfg.uncertain_rate,
    )
    source_model = LabelModel.sample(
        cfg.n_labels,
        cfg.latent_dim,
        master.child("source-label-model"),
        uncertain_rate=0.0,
        label_names=tuple(f"src{i:02d}" for i in range(cfg.n_labels)),
    )
    base = DomainSpec(
        latent_dim=cfg.latent_dim,
        feature_dim=cfg.feature_dim,
        mix_seed=cfg.seed,
        noise_std=cfg.noise_std,
        images_per_patient=cfg.images_per_patient,
    )
    names = label_model.label_names
    n = cfg.n_patients_per_node

    pretrain = generate(
        base, source_model, n, master.child("pretrain-data"), patient_id_start=_PID_PRETRAIN
    )
    external_domain = shifted_domain(base, master.child("shift:external"), cfg.shift_magnitude)
    external = generate(
        external_domain,
        label_model,
        max(2, round(0.4 * n)),
        master.child("data:external"),
        patient_id_start=_PID_EXTERNAL,
    )

    shifted_nodes, (node0_part, node1_part, view_parts) = SCENARIOS[cfg.scenario]
    if not shifted_nodes:
        pool = generate(base, label_model, 2 * n, master.child("data:pool"))
        train, val, test = split_by_patient(pool, SPLIT_FRACTIONS, master.child("split:pool"))
        train0, train1 = make_iid_halves(train, master.child("halves:train"))
        val0, val1 = make_iid_halves(val, master.child("halves:val"))
        test_sets = {"internal": test, "external": external}
    else:
        domain0 = shifted_domain(base, master.child("shift:node0"), cfg.shift_magnitude)
        domain1 = shifted_domain(base, master.child("shift:node1"), cfg.shift_magnitude)
        ds0 = generate(domain0, label_model, n, master.child("data:node0"))
        ds1 = generate(
            domain1, label_model, n, master.child("data:node1"), patient_id_start=_PID_NODE1
        )
        train0, val0, test0 = split_by_patient(ds0, SPLIT_FRACTIONS, master.child("split:node0"))
        train1, val1, test1 = split_by_patient(ds1, SPLIT_FRACTIONS, master.child("split:node1"))
        test_sets = {"internal_node0": test0, "internal_node1": test1, "external": external}

    perm = master.child("label-topology").permutation(len(names))
    ordered = tuple(names[i] for i in perm)
    pick = lambda part: names if part is None else ordered[part]
    node_labels = [pick(node0_part), pick(node1_part)]
    views = {view: pick(part) for view, part in view_parts.items()}

    node_train = [train0.project_labels(node_labels[0]), train1.project_labels(node_labels[1])]
    node_val = [val0.project_labels(node_labels[0]), val1.project_labels(node_labels[1])]
    pooled_train = concat_naive(node_train[0], node_train[1])
    pooled_val = concat_naive(node_val[0], node_val[1])

    return ScenarioData(
        node_train=node_train,
        node_val=node_val,
        pooled_train=pooled_train,
        pooled_val=pooled_val,
        test_sets=test_sets,
        views=views,
        pretrain=pretrain,
    )


def model_hash(model: Model) -> str:
    """sha256 over the keys, shapes and bytes of the parameters."""
    h = hashlib.sha256()
    for key, tensor in model.params.items():
        h.update(key.encode("utf-8"))
        h.update(str(tensor.shape).encode())
        h.update(tensor.tobytes())
    return h.hexdigest()


@dataclass
class ArmResult:
    fed: FederationResult | None = None
    reports: dict[tuple[str, str, str], EvalReport] = field(default_factory=dict)
    error: str | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    data: ScenarioData
    arms: dict[str, ArmResult]
    dataset_hashes: dict[str, str]
    start_model_hashes: dict[str, str]


def _bn_variants(gm: GlobalModel, test_name: str) -> list[tuple[str, int | None]]:
    """Which (variant, node_id) evaluations an arm owes on a test set.

    FEDBN keeps per-node models, so it answers once per node; a node's own
    internal test set only gets that node's view.
    """
    node_ids = gm.bn_nodes
    if node_ids is None:
        return [("", None)]
    own = [i for i in node_ids if test_name == f"internal_node{i}"]
    return [(f"node{i}", i) for i in own or node_ids]


# arm -> (strategy, the start models it trains); each runs as a node
_ARM_TABLE = {
    "fedfbn": (Strategy.FEDFBN, ("node0", "node1")),
    "fedavg": (Strategy.FEDAVG, ("node0", "node1")),
    "fedbn": (Strategy.FEDBN, ("node0", "node1")),
    "local_node0": (Strategy.FEDAVG, ("node0",)),
    "local_node1": (Strategy.FEDAVG, ("node1",)),
    "centralized": (Strategy.FEDAVG, ("centralized",)),
}


def _start_models(cfg: ExperimentConfig, data: ScenarioData) -> dict[str, dict]:
    """Each start model's node id, train and val data, and learning rate.

    A start model's name keys its warm-up stream, its batch stream
    ``batches:<name>`` and its start-model hash.
    """
    lr0, lr1 = node_learning_rates(cfg)
    return {
        "node0": dict(node_id=0, train=data.node_train[0], val=data.node_val[0], lr=lr0),
        "node1": dict(node_id=1, train=data.node_train[1], val=data.node_val[1], lr=lr1),
        "centralized": dict(node_id=0, train=data.pooled_train, val=data.pooled_val, lr=cfg.lr),
    }


def _execute_arm(
    arm: str,
    cfg: ExperimentConfig,
    data: ScenarioData,
    warmed: dict[str, Model],
    master: RngStream,
    on_round=None,
) -> ArmResult:
    """Train one arm; its best global model is evaluated later, with the others."""
    strategy, names = _ARM_TABLE[arm]
    starts = _start_models(cfg, data)
    nodes = [
        Node(
            **starts[name],
            model=copy.deepcopy(warmed[name]),
            rng=master.child(f"batches:{name}"),
            batch_size=cfg.batch_size,
        )
        for name in names
    ]

    return ArmResult(fed=run_federation(
        nodes,
        strategy,
        rounds=cfg.rounds,
        local_epochs=cfg.local_epochs,
        weighting=Weighting(cfg.weighting),
        on_round=on_round,
    ))


def _round_progress(arm: str, progress):
    """A ``run_federation`` round hook that reports each round through ``progress``."""
    best: RoundReport | None = None

    def on_round(report: RoundReport) -> None:
        nonlocal best
        if report.is_best:
            best = report
        line = f"arm {arm} round {report.round_index}: mean val BCE {report.mean_val_loss:.6f}"
        if best is not None:
            line += f", best {best.mean_val_loss:.6f} (round {best.round_index})"
        progress(line)

    return on_round


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _forked(costs: dict, run, state) -> tuple[dict, list]:
    """``run`` each task here and in forked workers, one process per usable CPU.

    Tasks go out costliest first, so no long task is left to finish alone;
    ties keep the order of ``costs``. Each process takes the next task index
    from one pipe. A worker pickles back the outcomes of the tasks it ran and
    the ``state()`` of its copy of the shared data, and always ends through
    ``os._exit``. Returns each task's outcome keyed by the task, a
    WorkerError saying why for a task whose worker sent back nothing
    readable, and the workers' states.
    """
    tasks = sorted(costs, key=costs.__getitem__, reverse=True)
    has_affinity = hasattr(os, "sched_getaffinity")  # macOS, for one, has no sched_getaffinity
    cpus = len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1
    n_workers = min(cpus, len(tasks)) - 1
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))
    os.close(feed)
    sys.stdout.flush()  # or a worker repeats what is still buffered
    # empty until every worker is forked, so a worker sends only its own
    outcomes: dict[int, object] = {}
    workers, states, lost = [], [], []
    try:
        for _ in range(n_workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(result_r)
                    while index := os.read(queue, 1):
                        outcomes[index[0]] = run(tasks[index[0]])
                    with open(result_w, "wb") as fh:
                        pickle.dump((outcomes, state()), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            workers.append((pid, result_r))
        while index := os.read(queue, 1):
            outcomes[index[0]] = run(tasks[index[0]])
    finally:
        os.close(queue)
        for pid, result_r in workers:
            with open(result_r, "rb") as fh:
                blob = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            try:
                sent, worker_state = pickle.loads(blob)
            except Exception as exc:
                lost.append(f"worker exited with code {code} ({_error_text(exc)})")
                continue
            outcomes.update(sent)
            states.append(worker_state)
    missing = WorkerError("; ".join(lost))
    return {task: outcomes.get(i, missing) for i, task in enumerate(tasks)}, states


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentResult:
    """Build the scenario once, then run every configured arm against it.

    Arms share the pretrained trunk and warmed heads bit-for-bit (deep
    copies), and dataset/model hashes are checked afterwards so an arm
    mutating shared state is an error, not a silent skew. A failing arm is
    recorded and the remaining arms still run. All arms train before any is
    evaluated, so every arm on a (test set, view) shares one set of
    bootstrap draws. The arms, and then the (test set, view) groups, run in
    parallel on the CPUs this process may use. ``progress`` gets a line per
    round and one per arm once its status is final.
    """
    data = build_scenario(cfg)
    master = RngStream(cfg.seed)
    backbone = pretrain_backbone(
        cfg.model_spec(),
        data.pretrain.features,
        data.pretrain.labels,
        data.pretrain.mask,
        source_labels=data.pretrain.label_names,
        epochs=cfg.pretrain_epochs,
        rng=master.child("pretrain"),
        lr=cfg.pretrain_lr,
        batch_size=cfg.batch_size,
    )
    starts = _start_models(cfg, data)
    warmed: dict[str, Model] = {}
    for name, start in starts.items():
        train = start["train"]
        model = with_heads(backbone, train.label_names, master.child("heads"))
        warmup_heads(
            model,
            train.features,
            train.labels,
            train.mask,
            epochs=cfg.warmup_epochs,
            rng=master.child(f"warmup:{name}"),
            lr=cfg.warmup_lr,
            batch_size=cfg.batch_size,
        )
        warmed[name] = model

    def shared_state() -> tuple[dict[str, str], dict[str, str]]:
        return data.content_hashes(), {name: model_hash(m) for name, m in warmed.items()}

    dataset_hashes, start_hashes = shared_state()

    def fail(arm: str, error: str) -> ArmResult:
        if progress is not None:
            progress(f"arm {arm}: {error}")
        return ArmResult(error=error)

    def train(arm: str) -> ArmResult:
        on_round = None if progress is None else _round_progress(arm, progress)
        try:
            return _execute_arm(arm, cfg, data, warmed, master, on_round)
        except Exception as exc:
            return fail(arm, _error_text(exc))

    # An arm costs the training rows it visits per round. The cheapest arm
    # (the first such of the arms) trains before anything is forked, so the
    # first call into the work is made by this process alone, and soon.
    cost = {arm: sum(starts[name]["train"].n for name in _ARM_TABLE[arm][1]) for arm in cfg.arms}
    first = min(cfg.arms, key=cost.get)
    trained = {first: train(first)}
    del cost[first]
    outcomes, worker_states = _forked(cost, train, shared_state)
    trained.update(outcomes)
    # a dead worker's arms fail here, in the order of arms
    arms = {arm: fail(arm, _error_text(trained[arm])) if isinstance(trained[arm], WorkerError)
            else trained[arm] for arm in cfg.arms}

    # Per (test set, view), score every trained arm and BN variant, then
    # bootstrap them all on one set of eval:<test>:<view> draws. A scoring
    # error fails only its arm; a bootstrap error depends only on the
    # labels, mask and draws, so it fails every arm in the group. Errors
    # travel as text: not every exception unpickles.
    def evaluate(group: tuple[str, str]) -> tuple[list, list]:
        test_name, view_name = group
        ds, labels = data.test_sets[test_name], data.views[view_name]
        keys: list[tuple[str, str]] = []
        matrices, failures, reports = [], [], []
        for arm, result in arms.items():
            if result.error is not None:
                continue
            variants = _bn_variants(result.fed.best, test_name)
            try:
                scored = [score_global(result.fed.best, ds, labels, node_id)
                          for _, node_id in variants]
            except Exception as exc:
                failures.append((arm, _error_text(exc)))
                continue
            keys.extend((arm, variant) for variant, _ in variants)
            matrices.extend(scored)
        if keys:
            try:
                reports = evaluate_global(
                    matrices,
                    ds,
                    labels,
                    rng=master.child(f"eval:{test_name}:{view_name}"),
                    n_bootstrap=cfg.n_bootstrap,
                )
            except Exception as exc:
                failures.extend((a, _error_text(exc)) for a in dict.fromkeys(a for a, _ in keys))
        return list(zip(keys, reports)), failures

    # A group costs its test rows times its view's labels.
    groups = {(test, view): data.test_sets[test].n * len(data.views[view])
              for test, view in itertools.product(data.test_sets, data.views)}
    outcomes, eval_states = _forked(groups, evaluate, shared_state)
    # In group order, as one process meets them: an arm keeps its first
    # error and a failed arm keeps no reports. A lost group fails every arm.
    for group in groups:
        outcome = outcomes[group]
        if isinstance(outcome, WorkerError):
            outcome = ([], [(arm, _error_text(outcome)) for arm in arms])
        reports, failures = outcome
        for arm, error in failures:
            if arms[arm].error is None:
                arms[arm] = fail(arm, error)
        for (arm, variant), report in reports:
            if arms[arm].error is None:
                arms[arm].reports[(*group, variant)] = report
    if progress is not None:
        for arm, result in arms.items():
            if result.error is None:
                progress(f"arm {arm}: ok")

    for datasets, models in [shared_state(), *worker_states, *eval_states]:
        if datasets != dataset_hashes:
            raise ProtocolError("an arm mutated the shared datasets")
        if models != start_hashes:
            raise ProtocolError("an arm mutated the shared warmed models")

    return ExperimentResult(
        config=cfg,
        data=data,
        arms=arms,
        dataset_hashes=dataset_hashes,
        start_model_hashes=start_hashes,
    )


# ---------------------------------------------------------------- reports


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _envelope(arm: str, variant: str, test_set: str, view: str,
              view_labels, report: EvalReport) -> dict:
    return {
        "schema_version": ENVELOPE_SCHEMA_VERSION,
        "arm": arm,
        "variant": variant,
        "test_set": test_set,
        "view": view,
        "view_labels": list(view_labels),
        "report": report.to_dict(),
    }


def _envelope_name(env: dict) -> str:
    parts = [env["arm"]]
    if env["variant"]:
        parts.append(env["variant"])
    parts.extend([env["test_set"], env["view"]])
    return REPORT_PREFIX + "_".join(parts) + ".json"


def render_tables(envelopes: list[dict]) -> dict[str, str]:
    """Summary and per-label CSV texts from report envelopes.

    Used both when a run emits its reports and when `report` re-renders an
    output directory, so the two paths cannot drift apart.
    """
    envelopes = sorted(envelopes, key=lambda e: (e["test_set"], e["view"], e["arm"], e["variant"]))
    baseline: dict[tuple[str, str], list[float]] = {}
    for env in envelopes:
        if env["arm"] == "fedfbn" and env["variant"] == "":
            baseline[(env["test_set"], env["view"])] = env["report"][
                "per_replicate_means"
            ]

    groups: dict[tuple[str, str], list[dict]] = {}
    for env in envelopes:
        groups.setdefault((env["test_set"], env["view"]), []).append(env)

    lines = [
        "arm,variant,test_set,view,mean_auroc,ci_lo,ci_hi,n_bootstrap,"
        "undefined_labels,p_vs_fedfbn,significant,best"
    ]
    for key in sorted(groups):
        group = groups[key]
        best_mean = max(e["report"]["mean_auroc"] for e in group)
        for env in group:
            rep = env["report"]
            p_value: float | None = None
            significant: bool | None = None
            is_baseline = env["arm"] == "fedfbn" and env["variant"] == ""
            if not is_baseline and key in baseline:
                cmp = paired_ttest(baseline[key], rep["per_replicate_means"])
                p_value = cmp.p_value
                significant = cmp.significant
            row = [
                env["arm"],
                env["variant"],
                env["test_set"],
                env["view"],
                _fmt(rep["mean_auroc"]),
                _fmt(rep["ci95"][0]),
                _fmt(rep["ci95"][1]),
                str(rep["n_bootstrap"]),
                "|".join(rep["undefined_labels"]),
                _fmt(p_value),
                _fmt(significant),
                "true" if rep["mean_auroc"] == best_mean else "",
            ]
            lines.append(",".join(row))
    files = {"summary.csv": "\n".join(lines) + "\n"}

    by_arm: dict[str, list[dict]] = {}
    for env in envelopes:
        by_arm.setdefault(env["arm"], []).append(env)
    for arm, envs in by_arm.items():
        rows = ["variant,test_set,view,label,auroc"]
        for env in envs:
            per_label = env["report"]["per_label_auroc"]
            for label in sorted(per_label):
                rows.append(
                    ",".join(
                        [
                            env["variant"],
                            env["test_set"],
                            env["view"],
                            label,
                            _fmt(per_label[label]),
                        ]
                    )
                )
        files[f"per_label_{arm}.csv"] = "\n".join(rows) + "\n"
    return files


def _rounds_csv(result: ArmResult) -> str:
    lines = ["round,node_id,train_loss,val_loss,mean_val_loss,is_best"]
    for report in result.fed.reports:
        for node_id in sorted(report.train_losses):
            lines.append(
                ",".join(
                    [
                        str(report.round_index),
                        str(node_id),
                        _fmt(report.train_losses[node_id]),
                        _fmt(report.val_losses[node_id]),
                        _fmt(report.mean_val_loss),
                        _fmt(report.is_best),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_reports(result: ExperimentResult, out_dir, config_text: str) -> list[str]:
    """Write every run artifact; returns the relative file names written.

    ``manifest.json`` marks a complete run: an old one is removed before
    anything else is written, and the new one is written last.
    """
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "manifest.json"))
    files: list[str] = []

    def _write(name: str, text: str) -> None:
        _write_text(os.path.join(out_dir, name), text)
        files.append(name)

    _write("config.ini", config_text)

    envelopes: list[dict] = []
    errors: dict[str, str] = {}
    for arm, arm_result in result.arms.items():
        if arm_result.error is not None:
            errors[arm] = arm_result.error
            continue
        _write(f"rounds_{arm}.csv", _rounds_csv(arm_result))
        ckpt_name = f"global_{arm}.ckpt"
        save_global(arm_result.fed.best, os.path.join(out_dir, ckpt_name))
        files.append(ckpt_name)
        for (test_set, view, variant), report in arm_result.reports.items():
            env = _envelope(arm, variant, test_set, view, result.data.views[view], report)
            _write(_envelope_name(env), json.dumps(env, sort_keys=True) + "\n")
            envelopes.append(env)

    for name, text in render_tables(envelopes).items():
        _write(name, text)

    manifest = {
        "schema_version": 1,
        "scenario": result.config.scenario,
        "seed": result.config.seed,
        "config_sha256": config_digest(config_text),
        "arms": list(result.config.arms),
        "arm_errors": errors,
        "dataset_hashes": result.dataset_hashes,
        "start_model_hashes": result.start_model_hashes,
        "best_rounds": {arm: r.fed.best_round for arm, r in result.arms.items() if r.error is None},
        "files": sorted(files),
    }
    _write("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return sorted(files)


def _is_number(value) -> bool:
    """A finite number in float64 range; bool is not a number here."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


def _is_word(value) -> bool:
    """Only [A-Za-z0-9_], the characters ``run`` writes in names: a table cell stays one cell."""
    return isinstance(value, str) and re.fullmatch(r"\w*", value, re.ASCII) is not None


# Every envelope and report key render_tables reads, with what it must hold.
_ENVELOPE_FIELDS = {
    # the arm names an output file, so it must be a known one
    "arm": (f"one of {list(ARMS)}", lambda v: v in ARMS),
    **{key: ("made of [A-Za-z0-9_]", _is_word) for key in ("variant", "test_set", "view")},
    "report": ("an object", lambda v: isinstance(v, dict)),
}
_REPORT_FIELDS = {
    "mean_auroc": ("a number", _is_number),
    "ci95": ("a pair of numbers", lambda v: _list_of(_is_number)(v) and len(v) == 2),
    "n_bootstrap": ("an integer", lambda v: type(v) is int),
    "undefined_labels": ("a list of names made of [A-Za-z0-9_]", _list_of(_is_word)),
    "per_replicate_means": ("a list of numbers", _list_of(_is_number)),
    "per_label_auroc": (
        "an object of numbers or nulls keyed by names made of [A-Za-z0-9_]",
        lambda v: isinstance(v, dict)
        and all(_is_word(k) and (x is None or _is_number(x)) for k, x in v.items()),
    ),
}


def _check_envelope(env, path) -> None:
    """ParseError naming the file and key unless render_tables can read ``env``."""
    if not isinstance(env, dict):
        raise ParseError(f"{path}: envelope is not a JSON object")
    if env.get("schema_version") != ENVELOPE_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported envelope schema")
    for prefix, fields in (("", _ENVELOPE_FIELDS), ("report.", _REPORT_FIELDS)):
        doc = env["report"] if prefix else env
        for key, (want, ok) in fields.items():
            if key not in doc or not ok(doc[key]):
                raise ParseError(f"{path}: envelope key '{prefix}{key}' must be {want}")
    # the paired t-test needs at least two replicates, one mean per replicate
    report = env["report"]
    if report["n_bootstrap"] < 2 or len(report["per_replicate_means"]) != report["n_bootstrap"]:
        raise ParseError(
            f"{path}: envelope key 'report.per_replicate_means' must hold "
            "n_bootstrap (at least 2) numbers"
        )


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _is_file_name(value) -> bool:
    return isinstance(value, str) and "\0" not in value and os.path.basename(value) == value


def load_envelopes(in_dir) -> list[dict]:
    """The report envelopes that ``in_dir``'s manifest lists.

    Only a finished run has a manifest, so stale or partial envelopes of
    another run in the same directory are never read.
    """
    manifest = _read_json(os.path.join(in_dir, "manifest.json"))
    listed = manifest.get("files") if isinstance(manifest, dict) else None
    if not _list_of(_is_file_name)(listed):
        raise ParseError(f"{in_dir}: manifest.json must be an object whose 'files' "
                         "is a list of bare file names")
    envelopes = []
    for name in sorted(set(listed)):
        if not (name.startswith(REPORT_PREFIX) and name.endswith(".json")):
            continue
        path = os.path.join(in_dir, name)
        env = _read_json(path)
        _check_envelope(env, path)
        envelopes.append(env)
    if not envelopes:
        raise ParseError(f"{in_dir}: no {REPORT_PREFIX}*.json files found")
    # one run draws every report from the same number of replicates; the
    # paired t-test aligns them index by index
    sizes = sorted({env["report"]["n_bootstrap"] for env in envelopes})
    if len(sizes) > 1:
        raise ParseError(f"{in_dir}: report envelopes disagree on n_bootstrap: {sizes}")
    return envelopes


def rerender_reports(in_dir) -> list[str]:
    """Rebuild summary and per-label tables from the report JSONs."""
    tables = render_tables(load_envelopes(in_dir))
    for name, text in tables.items():
        _write_text(os.path.join(in_dir, name), text)
    return sorted(tables)


def write_datasets(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Materialize the scenario's datasets as tabular files (gen-data).

    ``datasets.json`` indexes a complete set: an old one is removed before
    any CSV is written, and the new one is written last. CSVs the old index
    listed that the new set lacks are deleted before the new index is
    written; no other file is touched.
    """
    data = build_scenario(cfg)
    os.makedirs(out_dir, exist_ok=True)
    index_path = os.path.join(out_dir, "datasets.json")
    stale = set()
    with contextlib.suppress(ParseError, OSError):
        old = _read_json(index_path)
        entries = old.get("datasets") if isinstance(old, dict) else None
        if isinstance(entries, dict):
            listed = (e.get("file") for e in entries.values() if isinstance(e, dict))
            stale = {n for n in listed if _is_file_name(n) and n.endswith(".csv")}
    with contextlib.suppress(FileNotFoundError):
        os.remove(index_path)
    files = []
    index = {}
    for name, ds in data.parts().items():
        if name.startswith("pooled_"):
            continue  # the node sets, stacked
        fname = f"{name}.csv"
        with atomic_open(os.path.join(out_dir, fname), "w", encoding="utf-8", newline="") as fh:
            save_tabular(ds, fh)
        files.append(fname)
        index[name] = {
            "file": fname,
            "rows": ds.n,
            "labels": list(ds.label_names),
            "sha256": ds.content_hash(),
        }
    for name in sorted(stale - set(files)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    doc = {"schema_version": 1, "scenario": cfg.scenario, "seed": cfg.seed, "datasets": index}
    _write_text(index_path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    files.append("datasets.json")
    return sorted(files)

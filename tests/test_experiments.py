"""Scenario construction, the experiment driver, and report emission."""

import csv
import hashlib
import json
import os
import pickle
import select

import numpy as np
import pytest

import fedfbn.experiments as experiments
from fedfbn.config import ARMS, SCENARIOS, ExperimentConfig, parse_config
from fedfbn.errors import LabelError, NodeFailure, ParseError, ProtocolError
from fedfbn.experiments import (
    ArmResult,
    build_scenario,
    emit_reports,
    render_tables,
    rerender_reports,
    run_experiment,
    write_datasets,
)
from fedfbn.numerics import RngStream


def tiny_cfg(**overrides):
    base = dict(
        scenario="iid_complete",
        seed=11,
        rounds=2,
        arms=("fedfbn", "fedavg", "centralized"),
        n_bootstrap=100,
        n_patients_per_node=80,
        latent_dim=8,
        feature_dim=12,
        n_labels=6,
        images_per_patient=(1, 1),
        hidden_dims=(8, 4),
        lr=1e-2,
        warmup_epochs=1,
        warmup_lr=1e-2,
        pretrain_epochs=1,
        pretrain_lr=1e-2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def force_cpus(monkeypatch, n):
    """Make the arm loop see ``n`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def in_workers(monkeypatch):
    """Force two CPUs and call ``hook(*args)`` before each ``target(*args)`` of a worker.

    The parent holds its second call of ``target`` until a worker has made
    one. So a worker surely trains an arm when two or more arms follow the
    first (``_execute_arm``), and surely scores a group when there are two
    groups and a group scores two models (``score_global``).
    """
    taken_r, taken_w = os.pipe()
    parent = os.getpid()

    def install(hook, target="_execute_arm"):
        force_cpus(monkeypatch, 2)
        real, in_parent = getattr(experiments, target), []

        def call(*args):
            if os.getpid() != parent:
                os.write(taken_w, b"x")
                hook(*args)
            else:
                in_parent.append(args)
                if len(in_parent) == 2:
                    assert select.select([taken_r], [], [], 60)[0], f"no worker called {target}"
                    os.read(taken_r, 1)
            return real(*args)

        monkeypatch.setattr(experiments, target, call)

    yield install
    os.close(taken_r)
    os.close(taken_w)


def test_iid_complete_topology():
    data = build_scenario(tiny_cfg())
    all_labels = data.test_sets["external"].label_names  # test sets keep every label
    assert [ds.label_names for ds in data.node_train] == [all_labels, all_labels]
    assert set(data.views) == {"all"}
    assert data.views["all"] == all_labels
    assert list(data.test_sets) == ["internal", "external"]
    # the pretraining task uses its own label vocabulary
    assert not set(data.pretrain.label_names) & set(all_labels)
    assert len(data.pretrain.label_names) == 6


def test_partial_topology_is_11_7_with_4_shared():
    data = build_scenario(
        tiny_cfg(scenario="iid_partial", n_labels=14, n_patients_per_node=300)
    )
    node0, node1 = (ds.label_names for ds in data.node_train)
    assert len(node0) == 11 and len(node1) == 7
    shared = set(node0) & set(node1)
    assert len(shared) == 4
    all_labels = data.test_sets["external"].label_names  # test sets keep every label
    assert set(node0) | set(node1) == set(all_labels)
    assert len(all_labels) == 14
    assert set(data.views) == {"all", "shared", "node0", "node1"}
    assert set(data.views["shared"]) == shared
    assert data.views["node0"] == node0
    assert data.views["node1"] == node1


def test_non_iid_complete_trains_one_shared_subset():
    data = build_scenario(
        tiny_cfg(scenario="non_iid_complete", n_labels=10, shift_magnitude=0.8)
    )
    assert data.node_train[0].label_names == data.node_train[1].label_names
    assert len(data.node_train[0].label_names) == 7
    assert set(data.views) == {"shared"}
    assert set(data.test_sets) == {"internal_node0", "internal_node1", "external"}


def test_non_iid_nodes_see_different_domains():
    data = build_scenario(
        tiny_cfg(scenario="non_iid_partial", n_labels=14, shift_magnitude=1.0)
    )
    m0 = data.node_train[0].features.mean(axis=0)
    m1 = data.node_train[1].features.mean(axis=0)
    ext = data.test_sets["external"].features.mean(axis=0)
    assert np.abs(m0 - m1).max() > 0.1
    assert np.abs(m0 - ext).max() > 0.1
    assert np.abs(m1 - ext).max() > 0.1


def test_build_scenario_is_deterministic():
    cfg = tiny_cfg()
    a = build_scenario(cfg).content_hashes()
    b = build_scenario(cfg).content_hashes()
    assert a == b
    c = build_scenario(tiny_cfg(seed=12)).content_hashes()
    assert a != c


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_scenario_part_holds_only_zeros_and_ones(scenario):
    # u-zeros happens at the draw: no later step has an uncertain label to recode
    data = build_scenario(tiny_cfg(scenario=scenario, n_labels=14, uncertain_rate=0.5))
    for name, ds in data.parts().items():
        assert set(np.unique(ds.labels)) <= {0.0, 1.0}, name


# sha256 of each part of a scenario's layout at a tiny config with 14 labels;
# a changed stream label, draw order or label slice changes one of them
SCENARIO_LAYOUT_DIGESTS = {
    "iid_complete": {
        "content_hashes": "052584f63b3a51007fca3fc69d32460d72ef2304c851699a5ff2cc2ef68c19d4",
        "node_labels": "0b77f29e8de95a754923dfbbc41c322f8703ca4c34de12e100c5ff590391a6a1",
        "views": "19bfb0dc654b722d098132ee018faae837ba2e5af5c5ee1d8927cee855c8a11e",
        "test_sets": "6f2b69f32fc45eb4bbcef716768fbbd014e737ce0e405a8a9668040edeb1b499",
    },
    "iid_partial": {
        "content_hashes": "66adada770ffc7e79c01247e5384125d490ac0bccabb2c20f1f071d8fa54009d",
        "node_labels": "aa15f001fac792fe1bfe13ddfea62e5f29611fc8127bb93d150a9756226ab48b",
        "views": "2aa0a819874997dd9c40518af3e2a6d8477fd89b5a1f40dbb770502404494bd9",
        "test_sets": "6f2b69f32fc45eb4bbcef716768fbbd014e737ce0e405a8a9668040edeb1b499",
    },
    "non_iid_complete": {
        "content_hashes": "a4d7dd9385f059804a477b53d264e1592e54d461c3d4554b2a2f44f046f43f5a",
        "node_labels": "6c7b2c2a68eae677ebaccb48ef10dc58669cb74fe0d6fb84c83c6379274c0167",
        "views": "cc9debf78542a1bc76a077e20c3c229e261a271dfd3ec237818602da5449ff56",
        "test_sets": "f87af0565bd9450aeb045bb2c7d5b66557f274210713480435835f7e04252578",
    },
    "non_iid_partial": {
        "content_hashes": "c6ae3992df70316a52d6c0fd551f8a76d175df1c84a57837e5d8d46f75b72c86",
        "node_labels": "aa15f001fac792fe1bfe13ddfea62e5f29611fc8127bb93d150a9756226ab48b",
        "views": "2aa0a819874997dd9c40518af3e2a6d8477fd89b5a1f40dbb770502404494bd9",
        "test_sets": "f87af0565bd9450aeb045bb2c7d5b66557f274210713480435835f7e04252578",
    },
}


@pytest.mark.parametrize("scenario", sorted(SCENARIO_LAYOUT_DIGESTS))
def test_scenario_layout_is_pinned(scenario):
    def digest(obj):
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    data = build_scenario(tiny_cfg(scenario=scenario, n_labels=14))
    assert {
        "content_hashes": digest(data.content_hashes()),
        "node_labels": digest([ds.label_names for ds in data.node_train]),
        "views": digest(list(data.views.items())),
        "test_sets": digest(list(data.test_sets)),
    } == SCENARIO_LAYOUT_DIGESTS[scenario]


# The harness self-test workload (one round, six arms, 14 labels), with the
# scenario left open
TINY_RUN_INI = """[experiment]
scenario = {scenario}
seed = 42
rounds = 1
arms = fedfbn,fedavg,fedbn,local_node0,local_node1,centralized
n_bootstrap = 100

[data]
n_patients_per_node = 200
n_labels = 14
shift_magnitude = 1.0

[training]
lr = 5e-2
warmup_epochs = 1
warmup_lr = 5e-2
pretrain_epochs = 1
"""

# sha256 of the result files of that run; any change in the floating-point
# path of training, aggregation, scoring or checkpointing changes one of them
TINY_RUN_DIGESTS = {
    "non_iid_partial": {
        "global_centralized.ckpt": "a47eeea963a7313b043196dae1c6ec04736e1cf9ee806cd40bc05ed49d3d5d05",
        "global_fedavg.ckpt": "fa1254998945469ef6f0c7015490e6dd8a9282c87cffe1e9259ad7baa8156345",
        "global_fedbn.ckpt": "de23bf4c45bcf98cc46769d1bf116dbeb51b589c7bb6ddd0d4ab5393983bd64d",
        "global_fedfbn.ckpt": "13778da0480b3255305f262aa03d10e02c7336aa577e9999d1d27e4b3e283971",
        "global_local_node0.ckpt": "f5700fd36cc08b8bdefcd9f8741f3521a04b817be3461bcf5f221dccb661d034",
        "global_local_node1.ckpt": "3988488ffb7e43d42cdf9e019ccd805f197a7a7419ee8a1fd82077d06bd85190",
        "manifest.json": "33ed43183967bed0084576efbb126406bf3728f79082a6ccb6ffda990b6fb075",
        "summary.csv": "07aca9bc7ca7298ed55f22eadddfcef35d1bb5446267b4820ff200ee460d3086",
    },
    "iid_complete": {
        "global_centralized.ckpt": "6cd70d6e4a770746c0b0aab4248cfd93b860357b30368a8561260db9079013fc",
        "global_fedavg.ckpt": "21ad539cfe68d15a9423d439aa7594db7b66bd9cd00729effbb454561c0405bb",
        "global_fedbn.ckpt": "aa4832b4a0604b800c86f9dadaf77458517a15bf23ed75cea042112e95abbd04",
        "global_fedfbn.ckpt": "4356f60cfcf60bd584a0689fe80a97b22d186c52e0b23fe6daef90624ae6b0b0",
        "global_local_node0.ckpt": "8efdb7da1b1f37c9d4a1a76c861ecc9587163410bab2980d8d19db53f2ccbe74",
        "global_local_node1.ckpt": "9f053ed5b86d390386259707913a206d6ff30204649d890425bafef8c29ea50f",
        "manifest.json": "ecf01a22ad7a2b77334998deb4c49dab77183a359e2c26cdfad73660e895ebb9",
        "summary.csv": "20c16af4dfc5461ea2e5714966fa82421a6c6c1140daa17564328078d36ed671",
    },
}


@pytest.mark.parametrize("scenario", sorted(TINY_RUN_DIGESTS))
def test_tiny_run_results_are_pinned(scenario, tmp_path, monkeypatch):
    force_cpus(monkeypatch, 2)  # five arms after the first: a worker trains some
    text = TINY_RUN_INI.format(scenario=scenario)
    files = emit_reports(run_experiment(parse_config(text)), tmp_path, text)
    pinned = TINY_RUN_DIGESTS[scenario]
    assert {f for f in files if f.startswith("global_")} == {
        f for f in pinned if f.startswith("global_")
    }
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pinned
    } == pinned


@pytest.mark.parametrize("scenario, n_files", [("iid_complete", 35), ("non_iid_partial", 97)],
                         ids=["iid_complete", "non_iid_partial"])
def test_run_dir_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, scenario, n_files):
    # iid_complete evaluates 2 (test set, view) groups, non_iid_partial 12
    text = TINY_RUN_INI.format(scenario=scenario)
    runs = []
    for cpus in (1, 2, 4):  # no worker, one worker, three workers
        force_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        files = emit_reports(run_experiment(parse_config(text)), out, text)
        runs.append({name: (out / name).read_bytes() for name in files})
    assert len(runs[0]) == n_files
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("arms", [ARMS, ARMS[::-1]], ids=["arms", "reversed_arms"])
def test_arms_train_cheapest_first_then_longest_first(monkeypatch, arms):
    cfg = tiny_cfg(arms=arms)
    data = build_scenario(cfg)
    node_rows = [ds.n for ds in data.node_train]
    rows = {"local_node0": node_rows[0], "local_node1": node_rows[1],
            "centralized": data.pooled_train.n}
    rows = {arm: rows.get(arm, sum(node_rows)) for arm in arms}  # the federated arms
    real, calls = experiments._execute_arm, []

    def record(arm, *args):
        calls.append(arm)
        return real(arm, *args)

    force_cpus(monkeypatch, 1)
    monkeypatch.setattr(experiments, "_execute_arm", record)
    result = run_experiment(cfg)
    assert sorted(calls) == sorted(arms)
    assert list(result.arms) == list(arms)
    # first the arm with the fewest rows, the first such arm of cfg.arms
    fewest = [arm for arm in arms if rows[arm] == min(rows.values())]
    assert calls[0] == fewest[0]
    # then by rows, highest first, ties in cfg.arms order
    for before, after in zip(calls[1:], calls[2:]):
        assert rows[before] > rows[after] or (
            rows[before] == rows[after] and arms.index(before) < arms.index(after)
        ), calls


def test_groups_are_evaluated_longest_first(monkeypatch):
    cfg = tiny_cfg(scenario="non_iid_partial", n_labels=14)
    data = build_scenario(cfg)
    groups = [(test, view) for test in data.test_sets for view in data.views]
    cost = {(test, view): data.test_sets[test].n * len(data.views[view])
            for test, view in groups}
    seeds = {RngStream(cfg.seed).child(f"eval:{test}:{view}").seed: (test, view)
             for test, view in groups}
    real, calls = experiments.evaluate_global, []

    def record(*args, rng, **kwargs):
        calls.append(seeds[rng.seed])
        return real(*args, rng=rng, **kwargs)

    force_cpus(monkeypatch, 1)
    monkeypatch.setattr(experiments, "evaluate_global", record)
    result = run_experiment(cfg)
    assert sorted(calls) == sorted(groups)
    assert len(set(cost.values())) > 1
    # by test rows times view labels, highest first, ties in group order
    for before, after in zip(calls, calls[1:]):
        assert cost[before] > cost[after] or (
            cost[before] == cost[after] and groups.index(before) < groups.index(after)
        ), calls
    # reports still land in group order
    for arm_result in result.arms.values():
        assert list(dict.fromkeys(key[:2] for key in arm_result.reports)) == groups


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_forked_runs_costliest_first_and_keys_outcomes_by_task(monkeypatch, cpus):
    costs = {"d": 1, "a": 3, "c": 2, "b": 3, "e": 2, "f": 0}
    order = ["a", "b", "c", "e", "d", "f"]  # by cost, ties in the order of costs
    calls = []

    def run(task):
        calls.append(task)
        return task * costs[task]

    serial = {task: run(task) for task in costs}
    calls.clear()
    force_cpus(monkeypatch, cpus)
    outcomes, states = experiments._forked(costs, run, lambda: "state")
    assert outcomes == serial
    assert states == ["state"] * (cpus - 1)
    # this process takes its tasks in dispatch order; alone, it takes them all
    assert calls == [task for task in order if task in calls]
    if cpus == 1:
        assert calls == order


def test_arm_table_names_every_arm_in_config_order():
    assert tuple(experiments._ARM_TABLE) == ARMS
    cfg = tiny_cfg()
    starts = experiments._start_models(cfg, build_scenario(cfg))
    assert {name for _, names in experiments._ARM_TABLE.values() for name in names} == set(starts)


def test_patient_id_namespaces_do_not_collide():
    data = build_scenario(tiny_cfg(scenario="non_iid_partial", n_labels=14))
    node0 = set(np.unique(data.node_train[0].patient_ids))
    node1 = set(np.unique(data.node_train[1].patient_ids))
    ext = set(np.unique(data.test_sets["external"].patient_ids))
    pre = set(np.unique(data.pretrain.patient_ids))
    assert not node0 & node1
    assert not (node0 | node1) & ext
    assert not (node0 | node1 | ext) & pre


def test_fedbn_reports_one_evaluation_per_node():
    cfg = tiny_cfg(scenario="non_iid_partial", n_labels=14, arms=("fedbn",))
    result = run_experiment(cfg)
    keys = set(result.arms["fedbn"].reports)
    views = set(result.data.views)
    # a node's internal test set is answered only by that node's model
    assert {k for k in keys if k[0] == "internal_node0"} == {
        ("internal_node0", v, "node0") for v in views
    }
    assert {k for k in keys if k[0] == "internal_node1"} == {
        ("internal_node1", v, "node1") for v in views
    }
    assert {k for k in keys if k[0] == "external"} == {
        ("external", v, f"node{i}") for v in views for i in (0, 1)
    }


def test_fedbn_personalized_model_pads_unowned_labels_to_chance():
    cfg = tiny_cfg(scenario="non_iid_partial", n_labels=14, arms=("fedbn",))
    result = run_experiment(cfg)
    reports = result.arms["fedbn"].reports
    node1_only = set(result.data.views["node1"]) - set(result.data.views["node0"])
    rep = reports[("external", "all", "node0")]
    for label in node1_only:
        auroc = rep.per_label_auroc[label]
        assert auroc is None or auroc == 0.5


def test_summary_row_count_is_arms_by_tests_by_views(tmp_path):
    cfg = tiny_cfg()  # no fedbn arm, so every arm answers once per pair
    result = run_experiment(cfg)
    files = emit_reports(result, tmp_path, "[experiment]\n")
    assert "summary.csv" in files
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_tests = len(result.data.test_sets)
    n_views = len(result.data.views)
    assert len(rows) == len(cfg.arms) * n_tests * n_views
    for group_key in {(r["test_set"], r["view"]) for r in rows}:
        group = [r for r in rows if (r["test_set"], r["view"]) == group_key]
        best = [r for r in group if r["best"] == "true"]
        top = max(float(r["mean_auroc"]) for r in group)
        assert best and all(float(r["mean_auroc"]) == top for r in best)
        for row in group:
            if row["arm"] == "fedfbn" and row["variant"] == "":
                assert row["p_vs_fedfbn"] == ""
            else:
                assert 0.0 <= float(row["p_vs_fedfbn"]) <= 1.0


def test_emit_reports_file_set(tmp_path):
    cfg = tiny_cfg(arms=("fedfbn", "fedavg"))
    result = run_experiment(cfg)
    files = emit_reports(result, tmp_path, "[experiment]\nseed = 11\n")
    assert set(files) >= {
        "config.ini",
        "manifest.json",
        "summary.csv",
        "rounds_fedfbn.csv",
        "rounds_fedavg.csv",
        "global_fedfbn.ckpt",
        "global_fedavg.ckpt",
        "per_label_fedfbn.csv",
        "per_label_fedavg.csv",
        "report_fedfbn_internal_all.json",
        "report_fedfbn_external_all.json",
        "report_fedavg_internal_all.json",
        "report_fedavg_external_all.json",
    }
    for name in files:
        assert (tmp_path / name).exists(), name
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["arm_errors"] == {}
    assert sorted(manifest["files"]) == [f for f in files if f != "manifest.json"]
    assert manifest["best_rounds"].keys() == {"fedfbn", "fedavg"}
    # every file was moved into place: no temporary file is left behind
    assert sorted(os.listdir(tmp_path)) == files


def test_interrupted_text_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "summary.csv"
    experiments._write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        experiments._write_text(path, "new\n\ud800")  # a lone surrogate has no UTF-8
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["summary.csv"]


def test_interrupted_emit_leaves_no_manifest(tmp_path, monkeypatch):
    result = run_experiment(tiny_cfg(arms=("fedavg",)))
    emit_reports(result, tmp_path, "[experiment]\n")
    real = experiments._write_text

    def crash_at_summary(path, text):
        if os.path.basename(path) == "summary.csv":
            raise OSError("disk full")
        real(path, text)

    monkeypatch.setattr(experiments, "_write_text", crash_at_summary)
    with pytest.raises(OSError):
        emit_reports(result, tmp_path, "[experiment]\n")
    # the old manifest went first, so report trusts none of the envelopes
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(ParseError, match="manifest.json"):
        rerender_reports(tmp_path)


def test_manifest_hash_tracks_config_text(tmp_path):
    cfg = tiny_cfg(arms=("fedavg",))
    result = run_experiment(cfg)
    emit_reports(result, tmp_path / "a", "[experiment]\nseed = 11\n")
    emit_reports(result, tmp_path / "b", "[experiment]\nseed = 11\n")
    emit_reports(result, tmp_path / "c", "[experiment]\nseed = 11\n# note\n")
    read = lambda d: json.loads((tmp_path / d / "manifest.json").read_text())
    assert read("a")["config_sha256"] == read("b")["config_sha256"]
    assert read("a")["config_sha256"] != read("c")["config_sha256"]


def test_rerender_reproduces_tables_byte_identically(tmp_path):
    cfg = tiny_cfg(arms=("fedfbn", "fedavg"))
    result = run_experiment(cfg)
    emit_reports(result, tmp_path, "[experiment]\n")
    originals = {
        name: (tmp_path / name).read_bytes()
        for name in os.listdir(tmp_path)
        if name == "summary.csv" or name.startswith("per_label_")
    }
    for name in originals:
        (tmp_path / name).unlink()
    written = rerender_reports(tmp_path)
    assert sorted(written) == sorted(originals)
    for name, blob in originals.items():
        assert (tmp_path / name).read_bytes() == blob, name


def test_rerender_requires_report_envelopes(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"files": []}')
    with pytest.raises(ParseError, match="report_"):
        rerender_reports(tmp_path)
    manifest.write_text('{"files": ["report_x.json"]}')
    (tmp_path / "report_x.json").write_text('{"schema_version": 99}')
    with pytest.raises(ParseError, match="schema"):
        rerender_reports(tmp_path)


def test_failing_arm_is_recorded_and_others_continue(tmp_path, monkeypatch):
    force_cpus(monkeypatch, 2)
    real = experiments._execute_arm

    def flaky(arm, *args, **kwargs):
        if arm == "fedavg":
            raise RuntimeError("synthetic failure")
        return real(arm, *args, **kwargs)

    monkeypatch.setattr(experiments, "_execute_arm", flaky)
    result = run_experiment(tiny_cfg())
    assert result.arms["fedavg"].error == "RuntimeError: synthetic failure"
    assert result.arms["fedfbn"].error is None
    assert result.arms["centralized"].error is None
    files = emit_reports(result, tmp_path, "[experiment]\n")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["arm_errors"] == {"fedavg": "RuntimeError: synthetic failure"}
    assert "rounds_fedavg.csv" not in files
    assert "rounds_fedfbn.csv" in files


def test_scoring_failure_fails_only_its_arm(tmp_path, monkeypatch):
    def scenario(arms):
        return tiny_cfg(arms=arms, scenario="non_iid_partial", n_labels=14)

    emit_reports(run_experiment(scenario(("fedfbn", "fedbn"))), tmp_path / "without", "")
    real_build, real_execute = experiments.build_scenario, experiments._execute_arm
    real_score = experiments.score_global
    built = []

    def build(cfg):
        built.append(real_build(cfg))
        return built[-1]

    def execute(arm, *args):
        result = real_execute(arm, *args)
        if arm == "fedavg":  # the mark travels with the model out of a worker
            result.fed.best.doomed = True
        return result

    def score(gm, ds, labels, *rest):
        # one named group, whichever process evaluates it; six groups come
        # before it, so fedavg has reports of other groups to lose
        data = built[-1]
        if (getattr(gm, "doomed", False) and ds is data.test_sets["internal_node1"]
                and labels == data.views["node0"]):
            raise LabelError("synthetic scoring failure")
        return real_score(gm, ds, labels, *rest)

    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "build_scenario", build)
    monkeypatch.setattr(experiments, "_execute_arm", execute)
    monkeypatch.setattr(experiments, "score_global", score)
    progress = []
    result = run_experiment(scenario(("fedfbn", "fedavg", "fedbn")), progress.append)
    assert result.arms["fedavg"].error == "LabelError: synthetic scoring failure"
    assert result.arms["fedavg"].reports == {}
    assert [line for line in progress if " round " not in line] == [
        "arm fedavg: LabelError: synthetic scoring failure", "arm fedfbn: ok", "arm fedbn: ok",
    ]
    files = emit_reports(result, tmp_path / "with", "")
    reports = sorted(name for name in files if name.startswith("report_"))
    assert reports == sorted(n for n in os.listdir(tmp_path / "without") if n.startswith("report_"))
    for name in reports:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


def test_arm_mutating_shared_data_is_a_protocol_error(monkeypatch):
    real = experiments._execute_arm

    def vandal(arm, cfg, data, *rest):
        data.node_train[0].features[0, 0] += 1.0
        return real(arm, cfg, data, *rest)

    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_execute_arm", vandal)
    with pytest.raises(ProtocolError, match="shared datasets"):
        run_experiment(tiny_cfg())


def test_arm_mutating_warmed_models_is_a_protocol_error(monkeypatch):
    real = experiments._execute_arm

    def vandal(arm, cfg, data, warmed, *rest):
        warmed["node0"].params["dense0/weight"][0, 0] += 1.0
        return real(arm, cfg, data, warmed, *rest)

    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_execute_arm", vandal)
    with pytest.raises(ProtocolError, match="warmed models"):
        run_experiment(tiny_cfg())


def _spoil_data(arm, cfg, data, *rest):
    data.node_train[0].features[0, 0] += 1.0


def _spoil_models(arm, cfg, data, warmed, *rest):
    warmed["node0"].params["dense0/weight"][0, 0] += 1.0


@pytest.mark.parametrize("spoil, match", [(_spoil_data, "shared datasets"),
                                          (_spoil_models, "warmed models")])
def test_arm_mutating_the_copy_of_a_worker_is_a_protocol_error(in_workers, spoil, match):
    in_workers(spoil)
    with pytest.raises(ProtocolError, match=match):
        run_experiment(tiny_cfg())


def test_dead_worker_fails_only_the_arm_it_took(tmp_path, in_workers):
    cfg = tiny_cfg(arms=("fedfbn", "fedavg", "fedbn", "centralized"))
    emit_reports(run_experiment(cfg), tmp_path / "alive", "")
    in_workers(lambda *args: os._exit(3))
    result = run_experiment(cfg)
    assert list(result.arms) == list(cfg.arms)
    errors = {arm: r.error for arm, r in result.arms.items() if r.error is not None}
    assert len(errors) == 1, errors
    (dead,) = errors
    assert dead != "fedfbn"  # first of the cheapest arms, it trains before the fork
    assert errors[dead].startswith("WorkerError: worker exited with code 3 (EOFError")
    files = emit_reports(result, tmp_path / "dead", "")
    kept = sorted(n for n in files if n.startswith(("report_", "rounds_", "global_")))
    assert kept == sorted(
        n for n in os.listdir(tmp_path / "alive")
        if n.startswith(("report_", "rounds_", "global_"))
        and not n.startswith((f"report_{dead}_", f"rounds_{dead}.", f"global_{dead}."))
    )
    for name in kept:
        assert (tmp_path / "dead" / name).read_bytes() == (tmp_path / "alive" / name).read_bytes()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_dead_eval_worker_fails_every_arm_still_ok(tmp_path, monkeypatch, in_workers):
    real = experiments._execute_arm

    def flaky(arm, *args):
        if arm == "fedavg":
            raise RuntimeError("synthetic failure")
        return real(arm, *args)

    monkeypatch.setattr(experiments, "_execute_arm", flaky)
    in_workers(lambda *args: os._exit(3), target="score_global")
    progress = []
    result = run_experiment(tiny_cfg(), progress.append)
    errors = {arm: r.error for arm, r in result.arms.items()}
    assert errors.pop("fedavg") == "RuntimeError: synthetic failure"  # its first error
    assert list(errors) == ["fedfbn", "centralized"]
    for error in errors.values():
        assert error.startswith("WorkerError: worker exited with code 3 (EOFError"), error
    assert all(r.reports == {} for r in result.arms.values())
    assert [line for line in progress if " round " not in line] == [
        "arm fedavg: RuntimeError: synthetic failure",
        *(f"arm {arm}: {error}" for arm, error in errors.items()),
    ]
    emit_reports(result, tmp_path, "")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["arm_errors"] == {"fedavg": "RuntimeError: synthetic failure", **errors}
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("what, match", [("data", "shared datasets"),
                                         ("models", "warmed models")])
def test_eval_worker_mutating_its_copy_is_a_protocol_error(monkeypatch, in_workers, what, match):
    real_with_heads, warmed = experiments.with_heads, []

    def with_heads(*args):
        warmed.append(real_with_heads(*args))
        return warmed[-1]

    def spoil(gm, ds, *rest):
        if what == "data":
            ds.features[0, 0] += 1.0
        else:
            warmed[0].params["dense0/weight"][0, 0] += 1.0

    monkeypatch.setattr(experiments, "with_heads", with_heads)
    in_workers(spoil, target="score_global")
    with pytest.raises(ProtocolError, match=match):
        run_experiment(tiny_cfg())


def test_error_that_does_not_unpickle_is_sent_as_text(in_workers):
    exc = NodeFailure(0, 1, RuntimeError("synthetic"))
    with pytest.raises(TypeError):  # its __init__ takes three arguments, not the message
        pickle.loads(pickle.dumps(exc))

    def fail(*args):
        raise exc

    in_workers(fail, target="score_global")
    result = run_experiment(tiny_cfg())
    # the worker's group fails every arm by the error's text; no worker was lost
    assert {arm: r.error for arm, r in result.arms.items()} == {
        arm: "NodeFailure: node 0 failed in round 1: RuntimeError('synthetic')"
        for arm in tiny_cfg().arms
    }


def test_full_run_replays_byte_identically(tmp_path):
    cfg = tiny_cfg(arms=("fedfbn", "fedbn"), scenario="non_iid_partial", n_labels=14)
    text = "[experiment]\nscenario = non_iid_partial\n"
    emit_reports(run_experiment(cfg), tmp_path / "a", text)
    emit_reports(run_experiment(cfg), tmp_path / "b", text)
    names_a = sorted(os.listdir(tmp_path / "a"))
    assert names_a == sorted(os.listdir(tmp_path / "b"))
    for name in names_a:
        blob_a = (tmp_path / "a" / name).read_bytes()
        blob_b = (tmp_path / "b" / name).read_bytes()
        assert blob_a == blob_b, name


def test_render_tables_orders_rows_canonically():
    cfg = tiny_cfg(arms=("fedavg", "fedfbn"))
    result = run_experiment(cfg)
    envelopes = []
    for arm, arm_result in result.arms.items():
        for (test_set, view, variant), report in arm_result.reports.items():
            envelopes.append(
                experiments._envelope(
                    arm, variant, test_set, view, result.data.views[view], report
                )
            )
    a = render_tables(envelopes)
    b = render_tables(list(reversed(envelopes)))
    assert a == b


def test_write_datasets_emits_indexed_tabular_files(tmp_path):
    cfg = tiny_cfg()
    files = write_datasets(cfg, tmp_path)
    index = json.loads((tmp_path / "datasets.json").read_text())
    assert index["scenario"] == cfg.scenario and index["seed"] == cfg.seed
    expected = {
        "pretrain", "node0_train", "node0_val", "node1_train", "node1_val",
        "test_internal", "test_external",
    }
    assert set(index["datasets"]) == expected
    data = build_scenario(cfg)
    for name, entry in index["datasets"].items():
        assert entry["file"] in files
        header, *rows = (tmp_path / entry["file"]).read_text().splitlines()
        assert len(rows) == entry["rows"]
        assert header.split(",")[1 + cfg.feature_dim :] == entry["labels"]
    assert (
        index["datasets"]["node0_train"]["sha256"]
        == data.node_train[0].content_hash()
    )


def test_write_datasets_removes_csvs_of_an_earlier_index(tmp_path):
    write_datasets(tiny_cfg(scenario="non_iid_partial", n_labels=14), tmp_path)
    (tmp_path / "notes.txt").write_text("not gen-data output")
    files = write_datasets(tiny_cfg(scenario="iid_partial", n_labels=14), tmp_path)
    index = json.loads((tmp_path / "datasets.json").read_text())
    listed = {entry["file"] for entry in index["datasets"].values()}
    assert sorted(files) == sorted(listed | {"datasets.json"})
    assert sorted(os.listdir(tmp_path)) == sorted(listed | {"datasets.json", "notes.txt"})


def test_interrupted_write_datasets_leaves_no_index(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    write_datasets(cfg, tmp_path)
    real = experiments.save_tabular
    calls = []

    def crash_at_second_csv(ds, fh):
        calls.append(ds)
        if len(calls) == 2:
            raise OSError("disk full")
        real(ds, fh)

    monkeypatch.setattr(experiments, "save_tabular", crash_at_second_csv)
    with pytest.raises(OSError):
        write_datasets(cfg, tmp_path)
    # the old index went first, so it cannot describe a mix of old and new CSVs
    assert len(calls) == 2
    assert not (tmp_path / "datasets.json").exists()

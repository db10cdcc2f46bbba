"""Command-line entry points, exercised in-process via main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import fedfbn.cli
from fedfbn.cli import main

TINY = """\
[experiment]
scenario = iid_complete
seed = 11
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


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_run_writes_expected_files(tiny_config, tmp_path, capsys):
    out = tmp_path / "run_out"
    code = main(["run", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    names = set(os.listdir(out))
    assert {"config.ini", "manifest.json", "summary.csv"} <= names
    assert {"rounds_fedfbn.csv", "rounds_fedavg.csv"} <= names
    assert {"global_fedfbn.ckpt", "global_fedavg.ckpt"} <= names
    assert any(n.startswith("report_") and n.endswith(".json") for n in names)
    assert "wrote" in capsys.readouterr().out
    # the stored config re-parses to the effective run config
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["arms"] == ["fedfbn", "fedavg"]


def test_run_seed_and_arm_overrides(tiny_config, tmp_path):
    out = tmp_path / "ovr"
    code = main([
        "run", "--config", str(tiny_config), "--out", str(out),
        "--seed", "17", "--arms", "fedavg",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 17
    assert manifest["arms"] == ["fedavg"]
    assert "rounds_fedavg.csv" in os.listdir(out)
    assert "rounds_fedfbn.csv" not in os.listdir(out)


def test_run_replays_byte_identically(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(tiny_config), "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_gen_data_writes_csvs_and_index(tiny_config, tmp_path):
    out = tmp_path / "data_out"
    code = main(["gen-data", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    names = set(os.listdir(out))
    assert "datasets.json" in names
    index = json.loads((out / "datasets.json").read_text())
    # every file was moved into place: no temporary file is left behind
    assert names == {e["file"] for e in index["datasets"].values()} | {"datasets.json"}


def test_report_rerenders_in_place(tiny_config, tmp_path):
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_bytes()
    (out / "summary.csv").unlink()
    assert main(["report", "--in", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == summary


def test_run_prints_a_line_per_round_and_per_arm(tiny_config, tmp_path, capfd, monkeypatch):
    # two CPUs: the arms after the first train in a worker, which prints to fd 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "o"
    arms = ["fedfbn", "fedavg", "centralized"]
    argv = ["run", "--config", str(tiny_config), "--arms", ",".join(arms), "--out", str(out)]
    assert main(argv) == 0
    lines = capfd.readouterr().out.splitlines()
    # three arms of two rounds each, each arm's rounds in order; the arms
    # after the first may interleave; an arm's status once all arms are evaluated
    heads = [line.split(":")[0] for line in lines]
    assert heads[:2] == ["arm fedfbn round 0", "arm fedfbn round 1"]
    assert sorted(heads[:6]) == sorted(f"arm {arm} round {r}" for arm in arms for r in (0, 1))
    for arm in arms:
        assert [h for h in heads if h.startswith(f"arm {arm} round")] == [
            f"arm {arm} round 0", f"arm {arm} round 1",
        ]
    assert lines[6:] == [
        "arm fedfbn: ok", "arm fedavg: ok", "arm centralized: ok",
        f"wrote {len(os.listdir(out))} files to {out}",
    ]
    assert all("mean val BCE" in line and "best" in line for line in lines[:6])


def test_report_on_malformed_envelope_is_one_error_line(tiny_config, tmp_path, capsys):
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    good = json.loads(next(out.glob("report_*.json")).read_text())
    no_means = json.loads(json.dumps(good))
    del no_means["report"]["per_replicate_means"]
    nan_mean = json.loads(json.dumps(good))
    nan_mean["report"]["per_replicate_means"][0] = float("nan")
    short = json.loads(json.dumps(good))
    short["report"]["per_replicate_means"].pop()
    cases = {
        "not an object": ([1, 2], "JSON object"),
        "report not an object": (dict(good, report="oops"), "'report'"),
        "no per_replicate_means": (no_means, "report.per_replicate_means"),
        "NaN replicate mean": (nan_mean, "report.per_replicate_means"),
        "fewer means than replicates": (short, "report.per_replicate_means"),
        "arm names a path": (dict(good, arm="../x"), "'arm'"),
    }
    bad = out / "report_zz_bad.json"
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"].append(bad.name)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for case, (doc, names) in cases.items():
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 1, case
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR {"), (case, lines)
        payload = json.loads(lines[0][len("ERROR "):])
        assert payload["error"] == "ParseError", case
        assert "report_zz_bad.json" in payload["message"], case
        assert names in payload["message"], case


def test_report_reads_only_the_envelopes_the_manifest_lists(tiny_config, tmp_path, capsys):
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert main([
        "run", "--config", str(tiny_config), "--out", str(out),
        "--seed", "5", "--arms", "fedavg",
    ]) == 0
    # the first run's fedfbn envelopes are still there, but not listed
    assert list(out.glob("report_fedfbn_*.json"))
    summary = (out / "summary.csv").read_bytes()
    (out / "summary.csv").unlink()
    assert main(["report", "--in", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == summary
    # without a manifest the run is incomplete, and nothing is trusted
    (out / "manifest.json").unlink()
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR {"), lines
    assert json.loads(lines[0][len("ERROR "):])["error"] == "ParseError"


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ("[experiment]\nscenario = nonsense\n".encode(), "scenario"),
        # values are literal: a % is not interpolation syntax
        ("[experiment]\nscenario = iid%complete\n".encode(), "scenario"),
        ("[experiment]\nscenario = iid_compl\xe9te\n".encode("latin-1"), "UTF-8"),
        ("[data]\nnoise_std = nan\n".encode(), "noise_std must be finite"),
    ],
    ids=["unknown_scenario", "percent_in_value", "not_utf8", "nan_float"],
)
def test_bad_config_exits_nonzero_with_error_line(tmp_path, capsys, raw, fragment):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(raw)
    code = main(["run", "--config", str(bad)])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), lines
    payload = json.loads(lines[0][len("ERROR "):])
    assert payload["error"] == "ConfigError"
    assert fragment in payload["message"]


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(10**26)])
def test_seed_override_outside_64_bits_is_one_error_line(tiny_config, tmp_path, capsys, seed):
    out = tmp_path / "never"
    code = main(["run", "--config", str(tiny_config), "--out", str(out), "--seed", seed])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), lines
    payload = json.loads(lines[0][len("ERROR "):])
    assert payload["error"] == "ConfigError"
    assert "seed must lie in [0, 2**64)" in payload["message"]
    assert not out.exists()


def test_largest_64_bit_seed_override_runs(tiny_config, tmp_path):
    out = tmp_path / "max_seed"
    seed = 2**64 - 1
    code = main(["run", "--config", str(tiny_config), "--out", str(out),
                 "--seed", str(seed), "--arms", "fedavg"])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"),
     "Unable to allocate 8.00 EiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_one_error_line(tiny_config, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fedfbn.cli, "run_experiment", exhausted)
    code = main(["run", "--config", str(tiny_config)])
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), lines
    assert json.loads(lines[0][len("ERROR "):]) == {"error": "MemoryError", "message": message}
    assert "Traceback" not in captured.out + captured.err


def test_missing_config_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.ini")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err[len("ERROR "):])
    assert payload["error"] == "ConfigError"


def test_report_on_empty_dir_exits_nonzero(tmp_path, capsys):
    code = main(["report", "--in", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err[len("ERROR "):])["error"] == "ParseError"


def test_console_script_smoke(tiny_config, tmp_path):
    out = tmp_path / "sub_out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "fedfbn.cli",
            "run", "--config", str(tiny_config), "--out", str(out),
            "--arms", "fedavg",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (out / "summary.csv").exists()

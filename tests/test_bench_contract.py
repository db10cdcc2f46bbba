"""The benchmark wraps package functions by name and reads their arguments.

``bench/tracer.py`` replaces each function in its ``WRAPS`` table where the
caller looks it up, and its counters read named arguments of the wrapped
call; ``bench/child.py`` marks the first call into ``run_federation`` or
``load_envelopes``. A rename or a renamed parameter crashes a traced
benchmark run, so these tests fail first. A set-up probe ends the process
at that first call, so it must come before any worker process exists; a
``report`` child that never makes that call fails the replay workload.
"""

import contextlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fedfbn.cli
import fedfbn.experiments

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"

# Every argument some counter or span-name suffix in the tracer reads.
READ_ARGUMENTS = {"rng", "n_bootstrap", "x", "policy", "bundles", "out_dir", "path"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrap_resolves_and_keeps_the_arguments_its_counters_read():
    tracer = load_tracer()
    read = set()
    for name, module_name, attr_path, suffix, counter in tracer.WRAPS:
        fn = resolve(module_name, attr_path)
        assert callable(fn), name
        params = inspect.signature(fn).parameters
        for hook in (suffix, counter):
            if hook is None:
                continue
            for arg in re.findall(r'_arg\(fn, args, kwargs, "(\w+)"\)', inspect.getsource(hook)):
                assert arg in params, f"{name} lost parameter {arg!r}"
                read.add(arg)
    assert read == READ_ARGUMENTS


def test_first_work_calls_marked_by_the_benchmark_exist():
    assert callable(fedfbn.experiments.run_federation)
    assert callable(fedfbn.experiments.load_envelopes)


THREE_ARMS = """[experiment]
scenario = iid_complete
seed = 11
rounds = 2
arms = fedfbn, fedavg, centralized
n_bootstrap = 100

[data]
n_patients_per_node = 80
latent_dim = 8
feature_dim = 12
n_labels = 6
images_per_patient = 1, 1

[model]
hidden_dims = 8, 4
"""


def test_setup_probe_exits_alone_at_the_first_arm(tmp_path):
    config, mark = tmp_path / "three_arms.ini", tmp_path / "MARK.json"
    config.write_text(THREE_ARMS, encoding="utf-8")
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "--src", str(ROOT / "src"),
           "--mark", str(mark), "--stop-at-setup", "--",
           "run", "--config", str(config), "--out", str(tmp_path / "out")]
    # a session of its own, so every process the probe forks is in its group
    with open(tmp_path / "output", "wb") as output:
        proc = subprocess.Popen(cmd, stdout=output, stderr=output, start_new_session=True)
    try:
        code = proc.wait(timeout=120)
        doc = json.loads(mark.read_text(encoding="utf-8"))
        assert code == 0, (tmp_path / "output").read_text(encoding="utf-8")
        assert isinstance(doc, dict) and "first_work_call" in doc
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        proc.kill()
        proc.wait()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_report_child_marks_its_first_call_and_rewrites_the_tables(tmp_path, monkeypatch):
    config, out, mark = tmp_path / "three_arms.ini", tmp_path / "out", tmp_path / "MARK.json"
    config.write_text(THREE_ARMS, encoding="utf-8")
    # two usable CPUs, so the run forks at most one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert fedfbn.cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    want = {path.name: path.read_bytes() for path in out.iterdir()}
    tables = fedfbn.experiments.render_tables(fedfbn.experiments.load_envelopes(out))
    for name in tables:
        (out / name).unlink()
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "--src", str(ROOT / "src"),
           "--mark", str(mark), "--", "report", "--in", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert isinstance(json.loads(mark.read_text(encoding="utf-8"))["first_work_call"], float)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == want

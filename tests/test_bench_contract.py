"""The benchmark wraps package functions by name and reads their arguments.

``bench/tracer.py`` replaces each function in its ``WRAPS`` table where the
caller looks it up, and its counters read named arguments of the wrapped
call; ``bench/child.py`` marks the first call into ``run_federation`` or
``load_envelopes``. A rename or a renamed parameter crashes a traced
benchmark run, so these tests fail first.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import fedfbn.experiments

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

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

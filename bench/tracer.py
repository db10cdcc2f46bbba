"""Span tracing around the public functions of the ``fedfbn`` package.

Each entry of ``WRAPS`` replaces a function at the place its caller looks
it up (a module global or a class attribute), so the package itself stays
untouched. A wrapped call is a span: its duration counts toward its own
``(name, parent)`` aggregate and toward its parent's child time, so self
time is duration minus the time covered by child spans. Spans are
aggregated in memory, never stored one by one: a bootstrap-heavy run makes
hundreds of thousands of ``auroc`` calls.

A few wraps also count work (rows, bytes, replicates, ...) from the call's
arguments or result; those counts are taken after the span's clock stops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

_ROOT = "<root>"


def _arg(fn, args, kwargs, name):
    """Argument ``name`` of a call to ``fn``, falling back to its default."""
    params = inspect.signature(fn).parameters
    if name in kwargs:
        return kwargs[name]
    index = list(params).index(name)
    return args[index] if index < len(args) else params[name].default


def _policy_suffix(fn, args, kwargs) -> str:
    return "." + _arg(fn, args, kwargs, "policy").value


def _count_generate(tr, fn, args, kwargs, result):
    tr.add("datagen.generate.rows", result.n)


def _count_backward(tr, fn, args, kwargs, result):
    tr.add("network.backward.rows", _arg(fn, args, kwargs, "x").shape[0])


def _count_merge_heads(tr, fn, args, kwargs, result):
    owners: dict[str, int] = {}
    for b in _arg(fn, args, kwargs, "bundles"):
        for label in b.head_labels:
            owners[label] = owners.get(label, 0) + 1
    tr.add("federation.merge_heads.shared_heads", sum(1 for n in owners.values() if n > 1))


def _count_bootstrap(tr, fn, args, kwargs, result):
    tr.add("metrics.bootstrap_ci.replicates", _arg(fn, args, kwargs, "n_bootstrap"))
    tr.streams.add(_arg(fn, args, kwargs, "rng").seed)


def _count_auroc(tr, fn, args, kwargs, result):
    if result is None:
        tr.add("metrics.auroc.undefined", 1)


def _count_emit_reports(tr, fn, args, kwargs, result):
    out_dir = _arg(fn, args, kwargs, "out_dir")
    tr.add("experiments.emit_reports.files", len(result))
    tr.add(
        "experiments.emit_reports.bytes",
        sum(os.path.getsize(os.path.join(out_dir, name)) for name in result),
    )


def _count_write_archive(tr, fn, args, kwargs, result):
    tr.add("checkpoint.write_archive.bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))


def _count_load_envelopes(tr, fn, args, kwargs, result):
    tr.add("experiments.load_envelopes.files", len(result))


# (span name, module where the caller looks the function up, attribute path,
#  optional span-name suffix from the arguments, optional counter)
WRAPS = [
    ("config.load_config", "fedfbn.cli", "load_config", None, None),
    ("experiments.run_experiment", "fedfbn.cli", "run_experiment", None, None),
    ("experiments.emit_reports", "fedfbn.cli", "emit_reports", None, _count_emit_reports),
    ("experiments.rerender_reports", "fedfbn.cli", "rerender_reports", None, None),
    ("experiments.build_scenario", "fedfbn.experiments", "build_scenario", None, None),
    ("datagen.generate", "fedfbn.experiments", "generate", None, _count_generate),
    ("network.pretrain_backbone", "fedfbn.experiments", "pretrain_backbone", None, None),
    ("network.with_heads", "fedfbn.experiments", "with_heads", None, None),
    ("network.warmup_heads", "fedfbn.experiments", "warmup_heads", None, None),
    ("federation.run_federation", "fedfbn.experiments", "run_federation", None, None),
    ("federation.evaluate_global", "fedfbn.experiments", "evaluate_global", None, None),
    ("experiments.render_tables", "fedfbn.experiments", "render_tables", None, None),
    ("experiments.load_envelopes", "fedfbn.experiments", "load_envelopes", None,
     _count_load_envelopes),
    ("metrics.paired_ttest", "fedfbn.experiments", "paired_ttest", None, None),
    ("federation.local_train_round", "fedfbn.federation", "local_train_round", None, None),
    ("federation.extract_bundle", "fedfbn.federation", "extract_bundle", None, None),
    ("federation.aggregate", "fedfbn.federation", "aggregate", None, None),
    ("federation.merge_heads", "fedfbn.federation", "merge_heads", None, _count_merge_heads),
    ("federation.evaluate_loss", "fedfbn.federation", "evaluate_loss", None, None),
    ("federation.predict", "fedfbn.federation", "predict", None, None),
    ("metrics.bootstrap_ci", "fedfbn.federation", "bootstrap_ci", None, _count_bootstrap),
    ("federation.GlobalModel.materialize", "fedfbn.federation", "GlobalModel.materialize",
     None, None),
    ("network.backward", "fedfbn.network", "backward", _policy_suffix, _count_backward),
    ("network.sgd_step", "fedfbn.network", "sgd_step", None, None),
    ("metrics.per_label_auroc", "fedfbn.metrics", "per_label_auroc", None, None),
    ("metrics.auroc", "fedfbn.metrics", "auroc", None, _count_auroc),
    ("special.student_t_two_tailed", "fedfbn.metrics", "student_t_two_tailed", None, None),
    ("checkpoint.write_archive", "fedfbn.checkpoint", "write_archive", None,
     _count_write_archive),
    ("numerics.RngStream.child", "fedfbn.numerics", "RngStream.child", None, None),
]


class Tracer:
    """In-memory span aggregates keyed by (name, parent name)."""

    def __init__(self):
        self._stack: list[list] = []  # frames: [name, child seconds]
        self._spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.streams: set[int] = set()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, duration: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (frame[0], parent[0] if parent is not None else _ROOT)
        agg = self._spans.get(key)
        if agg is None:
            agg = self._spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    def wrap(self, name: str, original, suffix=None, counter=None):
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = enter(name + suffix(original, args, kwargs) if suffix else name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame, clock() - start)
            if counter is not None:
                counter(self, original, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every function in ``WRAPS`` with its traced version."""
        for name, module_name, attr_path, suffix, counter in WRAPS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), suffix, counter))

    def report(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s) in sorted(self._spans.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "bootstrap_streams": sorted(self.streams),
        }

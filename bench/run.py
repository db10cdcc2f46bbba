"""End-to-end and per-layer benchmark of the ``fedfbn`` CLI.

Run from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``)::

    python3 bench/run.py --workload eval_heavy --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop, one child process at a time):

* ``eval_heavy``  ``fedfbn run`` on non_iid_partial with all six arms: 76
  bootstrap evaluations over 12 shared resample streams dominate.
* ``train_heavy`` ``fedfbn run`` on iid_complete with all six arms, many
  rounds and the bootstrap floor: local training dominates.
* ``replay``      batches of ``fedfbn report --in`` over run directories
  that ``fedfbn run`` wrote before timing starts.

``--trace 0`` times untraced invocations for ``--seconds`` seconds and
prints the end-to-end metrics (medians over the invocations). ``--trace 1``
makes one untraced and one traced invocation (a batch for ``replay``) and
prints the per-layer metrics of the traced one; the traced run must give
the same ``summary.csv`` digest as the untraced one.

Every invocation is its own child process, started with the environment
users have (BLAS threading untouched) and reaped with ``os.wait4`` so its
peak RSS is its own. Outputs are checked after each invocation; a failed
check counts the invocation as failed. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it record the environment, every invocation, and digests.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"

# How long a whole benchmark process may take; children are killed past it.
DEADLINE_S = 170.0
# Untraced invocations that stop at the first call into the work, so that
# setup_s is a median over several set-ups even when a run fits few
# complete invocations. The first probe only warms the bytecode cache.
SETUP_PROBES = 4
# ``report --in`` invocations per replay batch, alternating over the dirs.
REPLAY_BATCH = 8
REPLAY_DIRS = ("non_iid_partial", "iid_complete")

WORKLOADS = {
    "eval_heavy": ("run", "eval_heavy.ini"),
    "train_heavy": ("run", "train_heavy.ini"),
    "replay": ("replay", None),
}


def monotonic() -> float:
    """CLOCK_MONOTONIC, which the child process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------- child processes


@dataclass
class Invocation:
    """One child process: its timings, its peak RSS and whether it passed."""

    label: str
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    ok: bool
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    counted: bool = True


class Harness:
    """Starts one child at a time inside a scratch directory of the checkout."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def time_left(self) -> float:
        return self.deadline - monotonic()

    def spawn(self, label: str, cli_args: list[str], *, trace=False,
              stop_at_setup=False, counted=True) -> Invocation:
        """Run ``fedfbn <cli_args>`` in a fresh process and reap it.

        ``counted=False`` keeps harness preparation out of attempted/failed.
        """
        self._n += 1
        tag = self.work / f"inv{self._n:04d}"
        mark, trace_path = Path(f"{tag}.mark.json"), Path(f"{tag}.trace.json")
        out_path, err_path = Path(f"{tag}.stdout"), Path(f"{tag}.stderr")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--src", str(self.root / "src"), "--mark", str(mark)]
        if trace:
            cmd += ["--trace", str(trace_path)]
        if stop_at_setup:
            cmd += ["--stop-at-setup"]
        cmd += ["--", *cli_args]

        limit = max(1.0, self.time_left())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, stdout=out, stderr=err)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)

        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        for stream in (out_path, err_path):
            for line in stream.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("ERROR {"):
                    problems.append(line)
        setup_s = None
        if mark.exists():
            marks = json.loads(mark.read_text(encoding="utf-8"))
            if "first_work_call" in marks:
                setup_s = marks["first_work_call"] - start
        if setup_s is None:
            problems.append("no call into the work was observed")
        traced = None
        if trace:
            if trace_path.exists():
                traced = json.loads(trace_path.read_text(encoding="utf-8"))
            else:
                problems.append("no trace written")
        inv = Invocation(
            label=label,
            wall_s=end - start,
            setup_s=setup_s,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
            ok=not problems,
            problems=problems,
            trace=traced,
            counted=counted,
        )
        if counted:
            self.attempted += 1
            if not inv.ok:
                self.failed += 1
        return inv

    def fail(self, inv: Invocation, problem: str) -> None:
        """Record a failed output check against an invocation."""
        if inv.ok and inv.counted:
            self.failed += 1
        inv.ok = False
        inv.problems.append(problem)

    def report(self, inv: Invocation, extra: str = "") -> None:
        setup = "-" if inv.setup_s is None else f"{inv.setup_s:.4f}"
        status = "ok" if inv.ok else "FAILED: " + "; ".join(inv.problems)
        log(f"invocation {inv.label}: wall_s={inv.wall_s:.4f} setup_s={setup} "
            f"peak_rss_mb={inv.peak_rss_mb:.2f} {extra}{status}")


# ------------------------------------------------------------ output checks


def check_run_dir(out_dir: Path) -> list[str]:
    """Problems with a ``fedfbn run`` output directory (empty when fine)."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    listed = set(manifest.get("files", [])) | {"manifest.json"}
    present = set(os.listdir(out_dir))
    if listed != present:
        problems.append(
            f"manifest file list differs from the directory: "
            f"missing {sorted(listed - present)}, unlisted {sorted(present - listed)}"
        )
    if manifest.get("arm_errors"):
        problems.append(f"arm errors: {manifest['arm_errors']}")
    if not (out_dir / "summary.csv").exists():
        problems.append("summary.csv missing")
    return problems


def rendered_tables(run_dir: Path) -> dict[str, bytes]:
    """The files ``fedfbn report`` rewrites: summary and per-label tables."""
    names = ["summary.csv"] + sorted(
        os.path.basename(p) for p in glob.glob(str(run_dir / "per_label_*.csv"))
    )
    return {name: (run_dir / name).read_bytes() for name in names}


# ---------------------------------------------------------------- workloads


def median(values):
    return statistics.median(values) if values else float("nan")


def run_cli_args(config: Path, seed: int, out_dir: Path) -> list[str]:
    return ["run", "--config", str(config), "--seed", str(seed), "--out", str(out_dir)]


def invoke_run(h: Harness, label: str, config: Path, seed: int, trace=False):
    """One checked ``fedfbn run``; returns (invocation, summary digest)."""
    out_dir = h.work / f"{label}_out"
    inv = h.spawn(label, run_cli_args(config, seed, out_dir), trace=trace)
    digest = None
    if inv.ok:
        for problem in check_run_dir(out_dir):
            h.fail(inv, problem)
        if (out_dir / "summary.csv").exists():
            digest = hashlib.sha256((out_dir / "summary.csv").read_bytes()).hexdigest()
    h.report(inv, f"summary_sha256={digest} ")
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv, digest


def setup_probes(h: Harness, config: Path, seed: int, n: int) -> list[float]:
    """Set-up times of ``n - 1`` probes after one bytecode warm-up probe."""
    samples = []
    for i in range(n):
        label = f"setup-probe-{i}" + (" (bytecode warm-up, set-up not sampled)" if i == 0 else "")
        inv = h.spawn(label, run_cli_args(config, seed, h.work / "probe_out"),
                      stop_at_setup=True)
        h.report(inv)
        if i > 0 and inv.setup_s is not None:
            samples.append(inv.setup_s)
    return samples


def measure_run(h: Harness, config: Path, seed: int, seconds: float, trace: bool):
    """Returns (invocations, digests, traced invocation or None, setup samples)."""
    if trace:
        setup_probes(h, config, seed, 1)
        untraced, d_untraced = invoke_run(h, "untraced", config, seed)
        traced, d_traced = invoke_run(h, "traced", config, seed, trace=True)
        if d_traced != d_untraced:
            h.fail(traced, f"traced digest {d_traced} != untraced {d_untraced}")
        return [untraced], {"run": d_untraced}, traced, [untraced.setup_s]

    setups = setup_probes(h, config, seed, SETUP_PROBES)
    invs, digests = [], set()
    start = monotonic()
    while True:
        inv, digest = invoke_run(h, f"run-{len(invs) + 1}", config, seed)
        invs.append(inv)
        digests.add(digest)
        elapsed = monotonic() - start
        typical = median([i.wall_s for i in invs])
        if elapsed + typical > seconds or h.time_left() < 2 * typical:
            break
    if len(digests) != 1:
        h.fail(invs[-1], f"summary.csv differs across runs of one seed: {sorted(map(str, digests))}")
    setups += [i.setup_s for i in invs if i.setup_s is not None]
    return invs, {"run": next(iter(digests))}, None, setups


def prepare_replay(h: Harness, seed: int) -> dict[str, Path]:
    """Write the run directories that ``report --in`` replays (not timed)."""
    dirs = {}
    for scenario in REPLAY_DIRS:
        out_dir = h.work / f"replay_{scenario}"
        config = WORKLOAD_DIR / f"replay_{scenario}.ini"
        inv = h.spawn(f"prepare-{scenario}", run_cli_args(config, seed, out_dir),
                      counted=False)
        if inv.ok:
            for problem in check_run_dir(out_dir):
                h.fail(inv, problem)
        h.report(inv)
        if not inv.ok:
            raise SystemExit(f"replay preparation failed: {inv.problems}")
        dirs[scenario] = out_dir
    return dirs


def replay_batch(h: Harness, label: str, dirs: dict[str, Path],
                 expected: dict[str, dict[str, bytes]], trace=False) -> list[Invocation]:
    invs = []
    names = list(dirs)
    for i in range(REPLAY_BATCH):
        name = names[i % len(names)]
        inv = h.spawn(f"{label}-{i + 1}-{name}", ["report", "--in", str(dirs[name])],
                      trace=trace)
        if inv.ok and rendered_tables(dirs[name]) != expected[name]:
            h.fail(inv, "report --in did not rewrite the tables byte-identically")
        h.report(inv)
        invs.append(inv)
    return invs


@dataclass
class Batch:
    """A replay batch seen as one unit of work."""

    wall_s: float
    peak_rss_mb: float
    trace: dict | None = None


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[tuple[str, str], dict] = {}
    counts: dict[str, int] = {}
    for tr in traces:
        for s in tr["spans"]:
            agg = spans.setdefault((s["name"], s["parent"]), {
                "name": s["name"], "parent": s["parent"],
                "calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in ("calls", "total_s", "self_s"):
                agg[key] += s[key]
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
    streams = sorted({seed for tr in traces for seed in tr["bootstrap_streams"]})
    return {"spans": list(spans.values()), "counts": counts, "bootstrap_streams": streams}


def measure_replay(h: Harness, seed: int, seconds: float, trace: bool):
    dirs = prepare_replay(h, seed)
    expected = {name: rendered_tables(d) for name, d in dirs.items()}
    digests = {name: hashlib.sha256(tables["summary.csv"]).hexdigest()
               for name, tables in expected.items()}

    def batch(label, traced=False):
        invs = replay_batch(h, label, dirs, expected, trace=traced)
        b = Batch(wall_s=sum(i.wall_s for i in invs),
                  peak_rss_mb=max(i.peak_rss_mb for i in invs))
        if traced:
            b.trace = merge_traces([i.trace for i in invs if i.trace is not None])
        log(f"batch {label}: wall_s={b.wall_s:.4f} peak_rss_mb={b.peak_rss_mb:.2f}")
        return b, invs

    if trace:
        untraced, invs = batch("untraced")
        traced, _ = batch("traced", traced=True)
        return [untraced], digests, traced, [i.setup_s for i in invs if i.setup_s is not None]

    batches, setups = [], []
    start = monotonic()
    while True:
        b, invs = batch(f"batch{len(batches) + 1}")
        batches.append(b)
        setups += [i.setup_s for i in invs if i.setup_s is not None]
        elapsed = monotonic() - start
        typical = median([x.wall_s for x in batches])
        if elapsed + typical > seconds or h.time_left() < 2 * typical:
            break
    return batches, digests, None, setups


# ------------------------------------------------------------------ metrics


def span_totals(trace: dict) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {}
    for s in trace["spans"]:
        t = totals.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            t[key] += s[key]
    return totals


BUSY = [
    "cli.main", "config.load_config", "experiments.run_experiment",
    "experiments.build_scenario", "datagen.generate", "network.pretrain_backbone",
    "network.warmup_heads", "federation.run_federation", "federation.local_train_round",
    "network.backward.normal", "network.backward.frozen", "network.sgd_step",
    "federation.evaluate_loss", "federation.extract_bundle", "federation.aggregate",
    "federation.merge_heads", "federation.GlobalModel.materialize",
    "federation.evaluate_global", "federation.predict", "metrics.bootstrap_ci",
    "metrics.per_label_auroc", "metrics.auroc", "numerics.RngStream.child",
    "experiments.emit_reports", "checkpoint.write_archive",
    "experiments.rerender_reports", "experiments.load_envelopes",
    "experiments.render_tables", "metrics.paired_ttest", "special.student_t_two_tailed",
]
CALLS = [
    "federation.local_train_round", "federation.aggregate",
    "federation.GlobalModel.materialize", "federation.evaluate_global",
    "metrics.bootstrap_ci", "metrics.per_label_auroc", "metrics.auroc",
    "numerics.RngStream.child", "metrics.paired_ttest", "special.student_t_two_tailed",
]
COUNTS = [
    "datagen.generate.rows", "network.backward.rows",
    "federation.merge_heads.shared_heads", "metrics.bootstrap_ci.replicates",
    "experiments.emit_reports.files", "experiments.emit_reports.bytes",
    "checkpoint.write_archive.bytes", "experiments.load_envelopes.files",
]
# ROADMAP phases as the inclusive time of the spans that make them up; a
# (name, parent) pair restricts a span to one caller.
PHASES = {
    "scenario_build": ["experiments.build_scenario"],
    "pretrain": ["network.pretrain_backbone"],
    "warmup": ["network.with_heads", "network.warmup_heads"],
    "local_training": ["federation.local_train_round"],
    "aggregation": ["federation.extract_bundle", "federation.aggregate",
                    ("federation.GlobalModel.materialize", "federation.run_federation")],
    "validation": ["federation.evaluate_loss"],
    "bootstrap": ["metrics.bootstrap_ci"],
    "report_emission": ["experiments.emit_reports", "experiments.rerender_reports"],
}


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one (merged) trace, as name -> (value, unit)."""
    tot = span_totals(trace)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    counts = trace["counts"]
    m: dict[str, tuple[float, str]] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = (tot.get(name, zero)["self_s"], "s")
    for name in CALLS:
        m[f"{name}.calls"] = (tot.get(name, zero)["calls"], "count")
    m["network.backward.calls"] = (
        tot.get("network.backward.normal", zero)["calls"]
        + tot.get("network.backward.frozen", zero)["calls"], "count")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    n_boot = m["metrics.bootstrap_ci.calls"][0]
    streams = len(trace["bootstrap_streams"])
    m["metrics.bootstrap_ci.distinct_streams"] = (streams, "count")
    m["metrics.bootstrap_ci.redraw_frac"] = (1 - streams / n_boot if n_boot else 0.0, "ratio")
    n_auroc = m["metrics.auroc.calls"][0]
    undefined = counts.get("metrics.auroc.undefined", 0)
    m["metrics.auroc.undefined_frac"] = (undefined / n_auroc if n_auroc else 0.0, "ratio")

    covered = 0.0
    for phase, parts in PHASES.items():
        seconds = 0.0
        for part in parts:
            if isinstance(part, tuple):
                seconds += sum(s["total_s"] for s in trace["spans"]
                               if (s["name"], s["parent"]) == part)
            else:
                seconds += tot.get(part, zero)["total_s"]
        covered += seconds
        m[f"phase.{phase}.share"] = (seconds / traced_wall, "ratio")
    m["phase.other.share"] = (1 - covered / traced_wall, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


# Why a traced span can see no calls at all on a kind of workload; its
# metrics then read 0 and are reported as absent.
ABSENT_REASONS = {
    "run": "fedfbn run never reads report envelopes back; replay does",
    "replay": "report --in builds, trains, aggregates and bootstraps nothing",
}


# -------------------------------------------------------------- environment


def blas_threads() -> str:
    """Threads the BLAS numpy loaded would use, read from the library itself."""
    import ctypes

    import numpy

    base = Path(numpy.__file__).resolve().parent
    candidates = sorted(glob.glob(str(base.parent / "numpy.libs" / "*openblas*.so*")))
    candidates += sorted(glob.glob(str(base.parent / "scipy_openblas64" / "lib" / "*.so*")))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = {"error": repr(exc)}
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # A checkout that is not itself a repository may sit inside one.
        if len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
        else:
            commit = "not a git checkout (see src_sha256)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable (see src_sha256)"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "fedfbn").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


# --------------------------------------------------------------------- main


def select_metrics(spec: dict, computed: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json promises for this mode, with their units."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in computed:
            raise SystemExit(f"metric {name} is listed in BENCHMARK.json but not computed")
        value, unit = computed[name]
        if unit != entry["unit"]:
            raise SystemExit(f"metric {name}: unit {unit} != {entry['unit']} in BENCHMARK.json")
        out[name] = {"value": float(value), "unit": unit}
    return out


def reference_check(workload: str, seed: int, digests: dict[str, str]) -> None:
    ref_path = BENCH_DIR / "reference.json"
    refs = json.loads(ref_path.read_text(encoding="utf-8"))["summary_sha256"]
    expected = refs.get(workload, {}).get(str(seed))
    log(f"DIGEST {json.dumps({'workload': workload, 'seed': seed, 'summary_sha256': digests}, sort_keys=True)}")
    if expected is None:
        log(f"reference digest: none stored for {workload} seed {seed}")
    elif expected == digests:
        log(f"reference digest: match for {workload} seed {seed}")
    else:
        # A result change is named here, not failed: some changes shift
        # results at the ulp level on purpose (e.g. a reordered summation);
        # a change that promises identical results is held to the match.
        log(f"RESULT-CHANGE {workload} seed {seed}: summary.csv sha256 "
            f"{digests} != reference {expected}")


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  config: Path | None = None) -> dict:
    """Measure one workload.

    ``config`` replaces a run workload's config (the self-test's tiny one);
    its digests are then not compared with the stored references.
    """
    kind, config_name = WORKLOADS[workload]
    own_config = config is None
    if own_config and config_name is not None:
        config = WORKLOAD_DIR / config_name
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    h = Harness(root, work, monotonic() + DEADLINE_S)
    log(f"ENV {json.dumps(environment(root), sort_keys=True)}")
    log(f"LOADAVG before {workload}: {loadavg()}")
    try:
        if kind == "run":
            units, digests, traced, setups = measure_run(h, config, seed, seconds, trace)
        else:
            units, digests, traced, setups = measure_replay(h, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    log(f"LOADAVG after {workload}: {loadavg()}")
    if own_config:
        reference_check(workload, seed, digests)

    walls = [u.wall_s for u in units]
    computed = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([u.peak_rss_mb for u in units]), "MB"),
    }
    if trace:
        # A traced child that failed left no trace; its metrics then read 0.
        spans = traced.trace or {"spans": [], "counts": {}, "bootstrap_streams": []}
        computed.update(layer_metrics(spans, traced.wall_s, walls[0]))
        called = span_totals(spans)
        for name in BUSY:
            if name not in called:
                log(f"absent {name}.*: no calls on {workload}, so its metrics read 0 "
                    f"({ABSENT_REASONS[kind]})")
    for name, (value, unit) in computed.items():
        log(f"metric {name} = {value:.6g} {unit}")
    log(f"metric error_rate = {h.failed}/{h.attempted} invocations "
        f"({h.failed / h.attempted if h.attempted else 0.0:.4g})")
    if not trace:
        log(f"samples: wall_s n={len(walls)} min={min(walls):.4f} max={max(walls):.4f}; "
            f"setup_s n={len(setups)}")
    return {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "computed": computed,
        "digests": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the fedfbn CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fedfbn" / "cli.py").is_file():
        print(f"error: {root} holds no fedfbn sources (src/fedfbn); run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = select_metrics(spec, result["computed"], bool(args.trace))
    print(json.dumps({**{k: result[k] for k in ("correct", "attempted", "failed")},
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark harness on a tiny config.

Run from the root of a checkout::

    python3 bench/selftest.py

It checks that ``BENCHMARK.json`` keeps the benchmark contract (keys,
limits, name and unit syntax), that ``bench/reference.json`` names only
metrics and workloads that exist, and then runs the harness on
``bench/workloads/tiny.ini`` (rounds = 1, n_bootstrap = 100, few patients)
and on the replay workload, untraced and traced, checking that:

* every metric of BENCHMARK.json is printed with its unit;
* every invocation passes its output checks;
* wrapping the package for tracing leaves the ``summary.csv`` digest
  unchanged.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check_spec(root: Path, problems: list[str]) -> dict:
    raw = (root / "BENCHMARK.json").read_bytes()
    if len(raw) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
        PATH_RE.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]
    ):
        problems.append(f"bad paths {spec['paths']}")
    command = spec["command"]
    if len(command) > 32 or any(len(c) > 200 or c.startswith("/") for c in command):
        problems.append(f"bad command {command}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append(f"bad run_seconds {spec['run_seconds']}")

    names: list[str] = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
        names.append(w["name"])
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    limits = {"end_to_end": (16, {"name", "unit", "better", "bound"}),
              "per_layer": (128, {"name", "unit", "better"})}
    for section, (most, entry_keys) in limits.items():
        entries = spec[section]
        if not 1 <= len(entries) <= most:
            problems.append(f"{section}: {len(entries)} metrics, allowed 1 to {most}")
        for e in entries:
            if set(e) != entry_keys:
                problems.append(f"{section} entry keys {sorted(e)} != {sorted(entry_keys)}")
            if not UNIT_RE.match(e["unit"]) or e["better"] not in ("lower", "higher"):
                problems.append(f"{section} entry {e['name']}: bad unit or better")
            if section == "end_to_end" and not 0 < e["bound"] <= 0.25:
                problems.append(f"{e['name']}: bound {e['bound']} outside (0, 0.25]")
            names.append(e["name"])
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] != max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    return spec


def check_reference(spec: dict, problems: list[str]) -> None:
    ref = json.loads((run.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    per_layer = {e["name"] for e in spec["per_layer"]}
    end_to_end = {e["name"] for e in spec["end_to_end"]}
    if set(ref["summary_sha256"]) != workloads:
        problems.append("reference.json digests are not keyed by the workloads")
    for row in ref["predictions"]:
        for name in row["per_layer"]:
            if name not in per_layer:
                problems.append(f"prediction names unknown per-layer metric {name}")
        for name in row["end_to_end"]:
            if name not in end_to_end:
                problems.append(f"prediction names unknown end-to-end metric {name}")
        for name in row["workloads"]:
            if name not in workloads:
                problems.append(f"prediction names unknown workload {name}")


def check_runs(root: Path, spec: dict, problems: list[str]) -> None:
    tiny = run.WORKLOAD_DIR / "tiny.ini"
    for workload, config in (("eval_heavy", tiny), ("replay", None)):
        digests = {}
        for trace in (False, True):
            result = run.run_benchmark(root, workload, 7, 1.0, trace, config=config)
            label = f"{workload} ({'tiny config' if config else 'as shipped'}), trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            try:
                line = {"correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": run.select_metrics(spec, result["computed"], trace)}
                json.loads(json.dumps(line))
            except SystemExit as exc:
                problems.append(f"{label}: {exc}")
            digests[trace] = result["digests"]
        if digests[False] != digests[True]:
            problems.append(f"{workload}: tracing changed the digests "
                            f"{digests[False]} -> {digests[True]}")


def main() -> int:
    root = Path.cwd()
    problems: list[str] = []
    spec = check_spec(root, problems)
    check_reference(spec, problems)
    check_runs(root, spec, problems)
    for problem in problems:
        print(f"SELFTEST FAIL {problem}")
    print("SELFTEST " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

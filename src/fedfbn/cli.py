"""Command-line interface: run experiments, dump datasets, re-render tables.

Failures exit nonzero after printing a single machine-readable line of the
form ``ERROR {"error": <type>, "message": <text>}`` to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import load_config, render_config
from .errors import FedfbnError
from .experiments import emit_reports, rerender_reports, run_experiment, write_datasets


def _error_line(kind: str, message: str) -> None:
    print(
        "ERROR " + json.dumps({"error": kind, "message": message}, sort_keys=True),
        file=sys.stderr,
    )


def _apply_overrides(cfg, args):
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "arms", None):
        overrides["arms"] = tuple(
            a.strip() for a in args.arms.split(",") if a.strip()
        )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = args.out or os.path.join(
        cfg.out_dir, f"{cfg.scenario}_seed{cfg.seed}"
    )
    # one write per line, so the lines of arms training at once never tear
    result = run_experiment(cfg, progress=lambda msg: print(f"{msg}\n", end="", flush=True))
    files = emit_reports(result, out_dir, render_config(cfg))
    print(f"wrote {len(files)} files to {out_dir}")
    failed = {arm: r.error for arm, r in result.arms.items() if r.error}
    for arm, error in failed.items():
        _error_line("ArmFailure", f"{arm}: {error}")
    return 1 if failed else 0


def _cmd_gen_data(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = args.out or os.path.join(cfg.out_dir, f"data_{cfg.scenario}_seed{cfg.seed}")
    files = write_datasets(cfg, out_dir)
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    files = rerender_reports(args.in_dir)
    print(f"re-rendered {', '.join(files)} in {args.in_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedfbn",
        description=(
            "Federated-learning simulation comparing frozen-batch-norm "
            "aggregation against FedAvg, FedBN, local, and centralized arms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="INI config path")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--arms", help="comma-separated arm subset")

    gen_p = sub.add_parser("gen-data", help="write the scenario datasets as CSV")
    gen_p.add_argument("--config", required=True, help="INI config path")
    gen_p.add_argument("--seed", type=int, help="override the master seed")
    gen_p.add_argument("--out", help="output directory")

    rep_p = sub.add_parser("report", help="re-render summary tables in a run dir")
    rep_p.add_argument("--in", dest="in_dir", required=True, help="run directory")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "gen-data": _cmd_gen_data, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except FedfbnError as exc:
        _error_line(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _error_line("IOError", str(exc))
        return 1
    except MemoryError as exc:
        _error_line("MemoryError", str(exc) or "out of memory")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

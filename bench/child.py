"""Run one ``fedfbn`` CLI invocation the way a user would, plus a clock mark.

Usage::

    python3 bench/child.py --src SRC --mark MARK.json [--trace TRACE.json]
        [--stop-at-setup] -- run --config CFG --seed N --out DIR

Everything after ``--`` goes to ``fedfbn.cli.main`` unchanged. Before the
CLI starts, the first call into the work (``run_federation`` for ``run``,
``load_envelopes`` for ``report``) is wrapped so that it reads
``CLOCK_MONOTONIC`` once and stores it in MARK.json; the parent process
subtracts its own spawn time from it to get ``setup_s``. That single clock
read is the only change an untraced invocation sees.

With ``--stop-at-setup`` the process exits right after that clock read: a
set-up probe. With ``--trace``, every public function listed in
``bench/tracer.py`` is wrapped as well and the aggregated spans are written
to TRACE.json when the CLI returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _mark_first_call(module, attr: str, marks: dict, stop_path: str | None) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def marked(*args, **kwargs):
        marks.setdefault("first_work_call", time.clock_gettime(time.CLOCK_MONOTONIC))
        if stop_path is not None:
            _write_json(stop_path, marks)
            os._exit(0)
        return original(*args, **kwargs)

    setattr(module, attr, marked)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the fedfbn package")
    parser.add_argument("--mark", required=True, help="where to store the first-call clock")
    parser.add_argument("--trace", help="where to store aggregated spans (enables tracing)")
    parser.add_argument("--stop-at-setup", action="store_true",
                        help="exit with code 0 at the first call into the work")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    import fedfbn.cli
    import fedfbn.experiments

    marks: dict = {}
    # Installed after the tracer so the mark sits outside the traced span and
    # the clock read is taken before any traced work starts.
    stop_path = args.mark if args.stop_at_setup else None
    _mark_first_call(fedfbn.experiments, "run_federation", marks, stop_path)
    _mark_first_call(fedfbn.experiments, "load_envelopes", marks, stop_path)

    code = 1
    try:
        if tracer is None:
            code = fedfbn.cli.main(cli_args)
        else:
            with tracer.span("cli.main"):
                code = fedfbn.cli.main(cli_args)
    finally:
        _write_json(args.mark, marks)
        if tracer is not None:
            _write_json(args.trace, tracer.report())
    return code


if __name__ == "__main__":
    raise SystemExit(main())

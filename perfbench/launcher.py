"""Child-process entry point: one user-level command, timed from inside.

Usage (the benchmark starts this; it is not meant to be typed)::

    python3 perfbench/launcher.py --src SRC --report FILE
        [--preload MOD,MOD] [--trace-dir DIR] [--setup-only]
        -- <repro CLI arguments>

It imports ``repro`` from ``SRC`` and the modules named by ``--preload``
(that import time is the command's set-up), installs the layer tracer
when ``--trace-dir`` is given, then calls ``repro.cli.main`` exactly as
``python -m repro`` would.  ``FILE`` receives the monotonic clock at the
engine call and at its return, the exit code and, in a traced run, the
per-layer table of this process and its pool workers.  With
``--setup-only`` it stops at the engine call: a set-up time sample.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--preload", default="")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, os.path.abspath(args.src))
    import repro.cli

    for module in filter(None, args.preload.split(",")):
        importlib.import_module(module)
    tracer = None
    if args.trace_dir is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_module

        tracer = tracer_module.install(args.trace_dir)

    t_engine = time.monotonic()
    code = 0
    if not args.setup_only:
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    t_done = time.monotonic()
    sys.stdout.flush()

    doc = {"t_engine": t_engine, "t_done": t_done, "exit_code": code}
    if tracer is not None:
        layers = tracer.snapshot()
        doc["workers"] = tracer_module.merge_dir(layers, args.trace_dir)
        doc["layers"] = layers
    with open(args.report, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

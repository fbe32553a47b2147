"""The traced run: the ``repro`` CLI with spans around each layer.

Usage (the harness launches this; PYTHONPATH must reach ``src``)::

    python perfbench/traced_main.py --spans OUT.json --run-id ID -- run CFG --run-dir DIR

It imports the program, wraps the entry points listed in
``tracing.TARGETS``, runs ``repro.cli.main`` with the arguments after
``--`` and, when that returns, writes every span it kept in memory to
``OUT.json``.  The root span runs from the launch stamp the harness
passes in ``PERFBENCH_LAUNCH_NS`` to the end of this script, so the
per-layer self times plus ``unaccounted`` cover the whole process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import tracing

t_start = time.monotonic_ns()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--run-id", default="")
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    launch = int(os.environ.get("PERFBENCH_LAUNCH_NS", t_start))

    import repro.cli  # imported inside the startup span
    from repro.perf.fft import get_default_backend

    tracer = tracing.Tracer()
    tracing.install(tracer)
    main_thread = threading.get_ident()
    tracer.spans.append([-1, 0, "startup.imports", t_start, time.monotonic_ns(),
                         main_thread, None])
    code = 1
    try:
        code = repro.cli.main(cli)
    finally:
        fft = get_default_backend().counters()
        tracer.spans.append([0, 0, tracing.ROOT_NAME, launch, time.monotonic_ns(),
                             main_thread, None])
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"run_id": args.run_id, "pid": os.getpid(),
                       "command": cli[0] if cli else "", "main_thread": main_thread,
                       "fft": fft,
                       "spans": sorted(tracer.spans, key=lambda s: s[3])}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

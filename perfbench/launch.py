"""Traced server: ``python perfbench/launch.py SPAN_DIR [repro.serve args]``.

Installs the span wrappers of :mod:`perfbench.trace`, then calls the
serving CLI's ``main()`` with the remaining arguments. The server process
writes ``SPAN_DIR/spans-<pid>.json`` when ``main()`` returns; forked pool
workers inherit the wrappers and write their own file when they exit.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    from perfbench import trace

    recorder = trace.install("server", out_dir=sys.argv[1])
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())

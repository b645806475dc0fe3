"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload embedded --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs the
same workload untraced in a child process, then again with spans recorded
around the program's layers, and reports the per-layer metrics plus the
traced/untraced ratio of every end-to-end metric. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("embedded", "serve-read", "serve-churn")
E2E = ("setup_s", "rss_mb", "bits_per_key", "kops", "lookup_p50_ms",
       "lookup_p90_ms", "update_p50_ms", "insert_p50_ms", "delete_p50_ms")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keys", type=int, default=None,
                        help="resident key count (default: the workload's; "
                             "small values are for the benchmark's tests)")
    return parser.parse_args(argv)


def _run_pass(args: argparse.Namespace, traced: bool) -> Dict[str, Any]:
    from perfbench import embedded, served, trace
    from perfbench.common import WORK_DIR

    sizes = {} if args.keys is None else {"resident": args.keys}
    if args.workload == "embedded":
        recorder = trace.install("bench") if traced else None
        result = embedded.run(args.seed, args.seconds, recorder, **sizes)
        if recorder is not None:
            result["diagnostics"]["trace_missing"] = recorder.missing
        return result
    trace_dir = None
    if traced:
        trace_dir = os.path.join(ROOT, WORK_DIR, "traces",
                                 f"{args.workload}-{os.getpid()}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    try:
        return served.run(ROOT, args.workload, args.seed, args.seconds,
                          trace_dir, **sizes)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)


def _untraced_child(args: argparse.Namespace) -> Dict[str, Any]:
    """The same workload, untraced, in a fresh process (clean memory)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.keys is not None:
        cmd += ["--keys", str(args.keys)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"untraced pass printed nothing "
                           f"(exit {done.returncode})")
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    from perfbench.trace import LAYER_UNITS

    baseline = _untraced_child(args) if args.trace else None
    result = _run_pass(args, traced=bool(args.trace))
    tally = result["tally"]
    attempted, failed = tally.attempted, tally.failed
    correct = failed == 0
    if baseline is None:
        metrics = result["e2e"]
    else:
        attempted += baseline["attempted"]
        failed += baseline["failed"]
        correct = correct and baseline["correct"]
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in result["layers"].items()}
        for name in E2E:
            base = baseline["metrics"][name]["value"]
            traced = result["e2e"][name]["value"]
            metrics[f"trace_overhead.{name}"] = {
                "value": traced / base if base else 0.0, "unit": "ratio"}
    diagnostics = dict(result["diagnostics"], failures=tally.reasons)
    print("perfbench diagnostics: " + json.dumps(diagnostics))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

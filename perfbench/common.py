"""Shared helpers: statistics, failure accounting, process memory, GC pauses."""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Where runs keep snapshots, span files and server logs, relative to the
#: checkout root. Listed in the root .gitignore.
WORK_DIR = ".perfbench"

now = time.perf_counter


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Tally:
    """Operations attempted and failed, plus the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(reason)


# ---------------------------------------------------------------------------
# Process memory
# ---------------------------------------------------------------------------


def rss_bytes(pid: Optional[int] = None) -> int:
    """Resident set size of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/statm"
    with open(path) as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def pss_bytes(pid: int) -> int:
    """Proportional set size: shared pages split among their mappers."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    return 0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def process_tree(pid: int) -> List[int]:
    """``pid`` and all of its descendants."""
    tree = [pid]
    index = 0
    while index < len(tree):
        tree.extend(child_pids(tree[index]))
        index += 1
    return tree


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


# ---------------------------------------------------------------------------
# GC pauses
# ---------------------------------------------------------------------------


class GcPauses:
    """Collects (start, end) of every garbage-collector pass via gc.callbacks."""

    def __init__(self) -> None:
        self.pauses: List[tuple] = []
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = now()
        else:
            self.pauses.append((self._started, now()))

    def install(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self


def pause_ms_per_s(pauses: Iterable[tuple], start: float, end: float) -> float:
    """GC pause milliseconds per second of the window ``[start, end]``."""
    total = sum(
        min(b, end) - max(a, start) for a, b in pauses if b > start and a < end
    )
    return 1000.0 * total / max(end - start, 1e-9)

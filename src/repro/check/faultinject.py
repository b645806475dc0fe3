"""Systematic fault injection: the dynamic proof behind ``# repro: atomic``.

The R8xx static rules argue that every mutating operation either fully
applies or cleanly fails. This module *demonstrates* it: run a canned
deterministic operation once under :func:`sys.settrace` to discover
every executed line in ``repro/core`` (the happy path), then re-run it
once per site with a ``MemoryError`` or ``OSError`` injected at exactly
that line — the faults a real process meets (allocator pressure, a disk
hiccup inside a snapshot write) at the places it meets them.

After each injected run the harness asserts the two halves of the strong
exception guarantee, and that the fault leaked no resource:

- **consistency** — :meth:`VisionEmbedder.check_invariants` still holds
  (``A1 ^ A2 ^ A3`` answers every live key);
- **bit-equality** — the table state (seed, dense cell planes, sorted
  assistant pairs) equals either the pre-operation snapshot (the fault
  rolled back) or the no-fault reference result (the fault landed after
  the commit point). Anything else is a torn state;
- **no leaked segment** — no shared-memory plane segment the run
  created is still linked (names carry the creator's pid).

Every run is replayable: a site id like ``repro/core/update.py:123#0``
(file, line, zero-based occurrence of that line on the happy path) plus
the case name pins the exact execution. The injected exception type
alternates deterministically by site parity, so a given site id always
injects the same fault. ``python -m repro.check --inject`` drives the
sweep; ``--inject-site`` replays one site.

``try:`` and ``except ...:`` header lines are excluded from the site
set: under CPython's zero-cost exception handling they compile to no
executing operation (nothing real can raise *there*), and an exception
synthesised by the trace function at such a line falls outside the
frame's exception table — it would bypass the very handler being
tested, a failure mode no genuine fault can produce.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import FrameType
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Type

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.shared_planes import (
    SEGMENT_PREFIX,
    SharedPlanes,
    share_table,
    unshare_table,
)

__all__ = [
    "FaultCase",
    "InjectionOutcome",
    "InjectionSite",
    "default_cases",
    "discover_sites",
    "injected_exception_type",
    "replay_site",
    "report_json",
    "run_case_sweep",
    "run_sweep",
]

#: path fragment selecting the frames worth injecting into.
_SCOPE_MARKER = "/repro/core/"

_SITE_ID_RE = re.compile(
    r"^(?P<file>.+):(?P<line>\d+)#(?P<occurrence>\d+)$"
)

#: the two faults a healthy process actually meets mid-operation.
_FAULT_TYPES: Tuple[Type[BaseException], Type[BaseException]] = (
    MemoryError,
    OSError,
)


def _site_file(filename: str) -> Optional[str]:
    """Repo-relative ``repro/core/...`` path, or ``None`` if out of scope."""
    norm = filename.replace("\\", "/")
    pos = norm.rfind(_SCOPE_MARKER)
    if pos < 0:
        return None
    return norm[pos + 1:]


#: per-file cache of structural (non-executing) header lines.
_STRUCTURAL_CACHE: Dict[str, FrozenSet[int]] = {}


def _structural_lines(filename: str) -> FrozenSet[int]:
    """Lines holding ``try:`` / ``except ...:`` headers — not injectable
    (no executing operation; see the module docstring)."""
    cached = _STRUCTURAL_CACHE.get(filename)
    if cached is not None:
        return cached
    lines: set[int] = set()
    try:
        with open(filename, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError, ValueError):
        tree = None
    if tree is not None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Try, ast.ExceptHandler)):
                lines.add(node.lineno)
    frozen = frozenset(lines)
    _STRUCTURAL_CACHE[filename] = frozen
    return frozen


def _observe(
    counts: Dict[Tuple[str, int], int], frame: FrameType
) -> Optional[Tuple[str, int, int]]:
    """Count one line event; ``(file, line, occurrence)`` when the line
    is an injectable in-scope site, ``None`` otherwise. Discovery and
    injection share this so their occurrence numbering always aligns."""
    rel = _site_file(frame.f_code.co_filename)
    if rel is None:
        return None
    if frame.f_lineno in _structural_lines(frame.f_code.co_filename):
        return None
    key = (rel, frame.f_lineno)
    occurrence = counts.get(key, 0)
    counts[key] = occurrence + 1
    return rel, frame.f_lineno, occurrence


@dataclass(frozen=True)
class InjectionSite:
    """One traced (file, line, occurrence) triple on the happy path."""

    file: str
    line: int
    occurrence: int

    @property
    def site_id(self) -> str:
        return f"{self.file}:{self.line}#{self.occurrence}"

    @classmethod
    def parse(cls, site_id: str) -> "InjectionSite":
        match = _SITE_ID_RE.match(site_id)
        if match is None:
            raise ValueError(
                f"malformed site id {site_id!r} "
                "(expected path/to/file.py:LINE#OCCURRENCE)"
            )
        return cls(
            file=match.group("file"),
            line=int(match.group("line")),
            occurrence=int(match.group("occurrence")),
        )


def injected_exception_type(site: InjectionSite) -> Type[BaseException]:
    """Deterministic fault type for a site (parity of line+occurrence)."""
    return _FAULT_TYPES[(site.line + site.occurrence) % 2]


@dataclass
class FaultCase:
    """A deterministic operation to torture: builder plus mutator.

    ``build`` must return an identically-seeded table on every call and
    ``operate`` must be deterministic given that table — the sweep
    relies on the discovery run and every injected run walking the same
    happy path.
    """

    name: str
    build: Callable[[], VisionEmbedder]
    operate: Callable[[VisionEmbedder], None]


@dataclass
class InjectionOutcome:
    """What one injected run did to the table."""

    case: str
    site_id: str
    injected: str
    fired: bool
    raised: str
    state: str  # "pre" | "post" | "diverged"
    consistent: bool
    detail: str = ""
    leaked: Tuple[str, ...] = ()  # plane segments left linked

    @property
    def ok(self) -> bool:
        """The strong guarantee held: the fault fired, escaped to the
        caller, the invariants still hold, the table is bit-equal to the
        pre- or post-operation state, and no shared segment leaked."""
        return (
            self.fired
            and bool(self.raised)
            and self.consistent
            and self.state in ("pre", "post")
            and not self.leaked
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "site": self.site_id,
            "injected": self.injected,
            "fired": self.fired,
            "raised": self.raised,
            "state": self.state,
            "consistent": self.consistent,
            "leaked": list(self.leaked),
            "ok": self.ok,
            "detail": self.detail,
        }


Fingerprint = Tuple[int, bytes, Tuple[Tuple[int, int], ...]]


def _fingerprint(table: VisionEmbedder) -> Fingerprint:
    """Bit-exact table identity: seed, dense cell planes, live pairs."""
    return (
        table.seed,
        table._table.to_dense().tobytes(),
        tuple(sorted(table._assistant.pairs())),
    )


def _plane_segments() -> FrozenSet[str]:
    """Linked plane segments this process created (none without tmpfs)."""
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    names = os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []
    return frozenset(name for name in names if name.startswith(prefix))


def discover_sites(case: FaultCase) -> List[InjectionSite]:
    """Trace one no-fault run; every executed in-scope line is a site."""
    table = case.build()
    counts: Dict[Tuple[str, int], int] = {}
    sites: List[InjectionSite] = []

    def local(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "line":
            observed = _observe(counts, frame)
            if observed is not None:
                sites.append(InjectionSite(*observed))
        return local

    def tracer(frame: FrameType, event: str, arg: Any) -> Any:
        if _site_file(frame.f_code.co_filename) is None:
            return None
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        case.operate(table)
    finally:
        sys.settrace(previous)
    return sites


def _run_injection(
    case: FaultCase,
    site: InjectionSite,
    pre: Fingerprint,
    post: Fingerprint,
) -> InjectionOutcome:
    table = case.build()
    fault_type = injected_exception_type(site)
    counts: Dict[Tuple[str, int], int] = {}
    fired = False

    def local(frame: FrameType, event: str, arg: Any) -> Any:
        nonlocal fired
        if event == "line" and not fired:
            observed = _observe(counts, frame)
            if observed == (site.file, site.line, site.occurrence):
                fired = True
                raise fault_type(f"fault injected at {site.site_id}")
        return local

    def tracer(frame: FrameType, event: str, arg: Any) -> Any:
        if _site_file(frame.f_code.co_filename) is None:
            return None
        return local

    raised = ""
    detail = ""
    existing = _plane_segments()
    previous = sys.gettrace()
    try:
        sys.settrace(tracer)
        try:
            case.operate(table)
        finally:
            sys.settrace(previous)
    except BaseException as exc:
        raised = type(exc).__name__
        detail = str(exc)
    leaked = tuple(sorted(_plane_segments() - existing))
    for name in leaked:  # released, so the next site starts clean
        shared_memory.SharedMemory(name=name).unlink()

    now = _fingerprint(table)
    if now == pre:
        state = "pre"
    elif now == post:
        state = "post"
    else:
        state = "diverged"
    try:
        table.check_invariants()
        consistent = True
    except AssertionError as exc:
        consistent = False
        broken = f"invariant broken: {exc}"
        detail = f"{detail}; {broken}" if detail else broken
    if fired and not raised:
        note = "injected fault was swallowed inside the operation"
        detail = f"{detail}; {note}" if detail else note
    if leaked:
        note = f"shared segment(s) left linked: {', '.join(leaked)}"
        detail = f"{detail}; {note}" if detail else note
    return InjectionOutcome(
        case=case.name,
        site_id=site.site_id,
        injected=fault_type.__name__,
        fired=fired,
        raised=raised,
        state=state,
        consistent=consistent,
        detail=detail,
        leaked=leaked,
    )


def _reference_states(case: FaultCase) -> Tuple[Fingerprint, Fingerprint]:
    """(pre, post) fingerprints of one clean, uninjected run."""
    reference = case.build()
    pre = _fingerprint(reference)
    case.operate(reference)
    post = _fingerprint(reference)
    return pre, post


def _sample(
    sites: List[InjectionSite], max_sites: int
) -> List[InjectionSite]:
    """Deterministic even spread over the happy path (``0`` = all)."""
    if max_sites <= 0 or len(sites) <= max_sites:
        return sites
    stride = -(-len(sites) // max_sites)  # ceil division
    return sites[::stride][:max_sites]


def run_case_sweep(
    case: FaultCase, max_sites: int = 0
) -> List[InjectionOutcome]:
    """Inject at (a spread of) every happy-path site of one case."""
    sites = _sample(discover_sites(case), max_sites)
    pre, post = _reference_states(case)
    return [_run_injection(case, site, pre, post) for site in sites]


def run_sweep(
    cases: Optional[List[FaultCase]] = None, max_sites: int = 0
) -> List[InjectionOutcome]:
    """The full sweep: every case, ``max_sites`` injections each."""
    outcomes: List[InjectionOutcome] = []
    for case in cases if cases is not None else default_cases():
        outcomes.extend(run_case_sweep(case, max_sites))
    return outcomes


def replay_site(case_name: str, site_id: str) -> InjectionOutcome:
    """Re-run exactly one injection, e.g. from a CI failure report."""
    by_name = {case.name: case for case in default_cases()}
    if case_name not in by_name:
        raise ValueError(
            f"unknown fault case {case_name!r}; "
            f"known: {sorted(by_name)}"
        )
    case = by_name[case_name]
    site = InjectionSite.parse(site_id)
    pre, post = _reference_states(case)
    return _run_injection(case, site, pre, post)


def report_json(outcomes: List[InjectionOutcome]) -> Dict[str, Any]:
    """The ``repro-faultinject/1`` report (CI uploads this as-is)."""
    per_case: Dict[str, Dict[str, int]] = {}
    for outcome in outcomes:
        bucket = per_case.setdefault(
            outcome.case, {"sites": 0, "failures": 0}
        )
        bucket["sites"] += 1
        if not outcome.ok:
            bucket["failures"] += 1
    failures = [o for o in outcomes if not o.ok]
    return {
        "format": "repro-faultinject/1",
        "total_sites": len(outcomes),
        "failures": len(failures),
        "cases": per_case,
        "failure_reports": [o.to_dict() for o in failures[:25]],
        "outcomes": [o.to_dict() for o in outcomes],
    }


# ---------------------------------------------------------------------------
# Canned cases: the three atomic pillars, on both execution backends
# ---------------------------------------------------------------------------


def _seeded_table(
    backend: str, prefill: int, capacity: int = 96
) -> VisionEmbedder:
    table = VisionEmbedder(
        capacity, 16, config=EmbedderConfig(backend=backend), seed=7
    )
    for i in range(prefill):
        table.insert(i + 1, (i * 31 + 5) % 65536)
    return table


def _batch_payload(count: int) -> Tuple[List[int], List[int]]:
    keys = [1000 + i for i in range(count)]
    values = [(i * 131 + 17) % 65536 for i in range(count)]
    return keys, values


def _insert_batch_case(backend: str) -> FaultCase:
    def operate(table: VisionEmbedder) -> None:
        keys, values = _batch_payload(16)
        table.insert_batch(keys, values)

    return FaultCase(
        name=f"insert_batch-{backend}",
        build=lambda: _seeded_table(backend, prefill=24),
        operate=operate,
    )


def _bulk_load_case(backend: str) -> FaultCase:
    def operate(table: VisionEmbedder) -> None:
        keys, values = _batch_payload(24)
        table.bulk_load(list(zip(keys, values)))

    return FaultCase(
        name=f"bulk_load-{backend}",
        build=lambda: _seeded_table(backend, prefill=8),
        operate=operate,
    )


def _reconstruct_case(backend: str) -> FaultCase:
    return FaultCase(
        name=f"reconstruct-{backend}",
        build=lambda: _seeded_table(backend, prefill=24),
        operate=lambda table: table.reconstruct("dynamic"),
    )


def _shared_planes_case() -> FaultCase:
    """Promote → reader attach/read → batch insert → demote.

    Sweeps the shared-memory plane lifecycle (segment create, dense
    promote, reader attach + seqlock reads, the full update path landing
    in shared storage, demote back to private planes). A fault anywhere
    must leave the table bit-equal to the pre- or post-insert state —
    mid-promote faults destroy the partial segments and re-raise
    (``share_table``), mid-insert faults ride the existing rollback
    machinery, now through :class:`SharedPlanes` duck methods — and no
    fault may leave a segment linked.
    """

    def operate(table: VisionEmbedder) -> None:
        spec = share_table(table)
        try:
            reader = SharedPlanes.attach(spec.shards[0])
            try:
                reader.to_dense()
                reader.get((0, 3))
            finally:
                reader.close()
            keys, values = _batch_payload(8)
            table.insert_batch(keys, values)
        finally:
            unshare_table(table)

    return FaultCase(
        name="shared_planes-scalar",
        build=lambda: _seeded_table("scalar", prefill=24),
        operate=operate,
    )


def default_cases() -> List[FaultCase]:
    """The canned sweep: batch insert, bulk load, and reconstruct, on
    the scalar and vector backends (reconstruct runs scalar only — its
    rebuild is backend-independent re-insertion), plus the shared-memory
    plane lifecycle (promote, reader reads, insert-through-shared,
    demote)."""
    return [
        _insert_batch_case("scalar"),
        _insert_batch_case("vector"),
        _bulk_load_case("scalar"),
        _bulk_load_case("vector"),
        _reconstruct_case("scalar"),
        _shared_planes_case(),
    ]

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
  (``A1 ^ A2 ^ A3`` answers every live key); an invariant check that
  cannot even run on the torn state counts as broken too;
- **bit-equality** — the table state (per shard: seed, dense cell
  planes, sorted assistant pairs) equals either the pre-operation
  snapshot (the fault rolled back) or the no-fault reference result (the
  fault landed after the commit point). Anything else is a torn state;
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
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
    Type,
    Union,
    cast,
)

from repro.core.config import EmbedderConfig
from repro.core.embedder import VisionEmbedder
from repro.core.errors import SpaceExhausted
from repro.core.sharded import ShardedEmbedder
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

#: the tables a fault case tortures.
Table = Union[VisionEmbedder, ShardedEmbedder]

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
    build: Callable[[], Table]
    operate: Callable[[Table], None]


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


Fingerprint = Tuple[Tuple[int, bytes, Tuple[Tuple[int, int], ...]], ...]


def _fingerprint(table: Table) -> Fingerprint:
    """Bit-exact table identity, shard by shard (an unsharded table is
    its own one shard): seed, dense cell planes, live pairs."""
    shards = table.shards if isinstance(table, ShardedEmbedder) else (table,)
    return tuple(
        (
            shard.seed,
            shard._table.to_dense().tobytes(),
            tuple(sorted(shard._assistant.pairs())),
        )
        for shard in shards
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
    except Exception as exc:
        # A torn index can make the check itself fail (an IndexError from
        # a short row list): that is a broken invariant too.
        consistent = False
        broken = f"invariant broken: {type(exc).__name__}: {exc}"
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
# Canned cases: every public write, single-key and batched, unsharded and
# across shards, plus the shared-plane lifecycle
# ---------------------------------------------------------------------------


def _seeded_table(prefill: int) -> VisionEmbedder:
    table = VisionEmbedder(96, 16, seed=7)
    for i in range(prefill):
        table.insert(i + 1, (i * 31 + 5) % 65536)
    return table


def _batch_payload(count: int) -> Tuple[List[int], List[int]]:
    keys = [1000 + i for i in range(count)]
    values = [(i * 131 + 17) % 65536 for i in range(count)]
    return keys, values


def _scalar_cases() -> List[FaultCase]:
    """One single-key insert, update and delete: each must leave the
    pre- or post-operation state on its own, with no batch journal."""

    def insert(table: Table) -> None:
        table.insert(5000, 4321)

    def update(table: Table) -> None:
        table.update(5, 4321)

    def delete(table: Table) -> None:
        table.delete(5)

    return [
        FaultCase(name=f"{op.__name__}-scalar",
                  build=lambda: _seeded_table(prefill=24), operate=op)
        for op in (insert, update, delete)
    ]


def _insert_batch_case() -> FaultCase:
    def operate(table: Table) -> None:
        keys, values = _batch_payload(16)
        table.insert_batch(keys, values)

    return FaultCase(
        name="insert_batch-scalar",
        build=lambda: _seeded_table(prefill=24),
        operate=operate,
    )


def _update_batch_case() -> FaultCase:
    def operate(table: Table) -> None:
        keys = list(range(3, 19, 2))
        table.update_batch(keys, [(k * 977 + 3) % 65536 for k in keys])

    return FaultCase(
        name="update_batch-scalar",
        build=lambda: _seeded_table(prefill=24),
        operate=operate,
    )


def _delete_batch_case() -> FaultCase:
    return FaultCase(
        name="delete_batch-scalar",
        build=lambda: _seeded_table(prefill=24),
        operate=lambda table: table.delete_batch(list(range(2, 24, 3))),
    )


def _reconstructing_batch_case() -> FaultCase:
    """An ``insert_batch`` whose fourth walk fails and reconstructs the
    table, after which the batch completes: a fault before the rebuild
    undoes from the journal's cell images, one after it from the
    journal's base (the snapshot the reconstruction took).

    One repair step per walk (no retries) makes the walk fail whenever
    the new key has no cell of its own, at a load where the rebuild
    still succeeds.
    """
    config = EmbedderConfig(max_repair_steps=1, max_search_attempts=1)

    def build() -> Table:
        table = VisionEmbedder(32, 16, seed=10, config=config)
        table.bulk_load([(i + 1, (i * 31 + 5) % 65536) for i in range(6)])
        return table

    def operate(table: Table) -> None:
        keys, values = _batch_payload(6)
        table.insert_batch(keys, values)

    return FaultCase(
        name="insert_batch-reconstructing", build=build, operate=operate
    )


#: One repair step per walk and no reconstruction: a write into the
#: densely loaded shard 1 fails with SpaceExhausted as soon as its key
#: has no cell of its own, deterministically.
_STRICT = EmbedderConfig(
    max_repair_steps=1, max_search_attempts=1, auto_reconstruct=False
)


def _shard_keys(
    table: Table, shard: int, start: int, count: int
) -> List[int]:
    """The first ``count`` keys from ``start`` on that route to ``shard``
    of the sharded ``table``."""
    sharded = cast(ShardedEmbedder, table)
    keys: List[int] = []
    key = start
    while len(keys) < count:
        if sharded.shard_of(key) == shard:
            keys.append(key)
        key += 1
    return keys


def _sharded_table() -> ShardedEmbedder:
    """Two shards, bulk-loaded: shard 0 sparse (6 keys), shard 1 dense
    (40 keys in its 84 cells)."""
    table = ShardedEmbedder(48, 16, num_shards=2, seed=3, config=_STRICT)
    keys = _shard_keys(table, 0, 1, 6) + _shard_keys(table, 1, 1, 40)
    table.bulk_load([(key, (key * 31 + 5) % 65536) for key in keys])
    return table


def _sharded_cases() -> List[FaultCase]:
    """Batches spanning both shards, shard 0 written first. The insert
    and update batches run out of space in shard 1, the last touched
    shard, after shard 0 and part of shard 1 are written: the reference
    run itself rolls both shards back, so every fault — in either shard's
    walks or in the undo — must leave the pre-operation state. The
    delete batch succeeds."""

    def insert_batch(table: Table) -> None:
        keys = (_shard_keys(table, 0, 1000, 3)
                + _shard_keys(table, 1, 1000, 3))
        try:
            table.insert_batch(keys, [7] * len(keys))
        except SpaceExhausted:
            pass

    def update_batch(table: Table) -> None:
        keys = _shard_keys(table, 0, 1, 2) + _shard_keys(table, 1, 1, 7)
        try:
            table.update_batch(keys, [9] * len(keys))
        except SpaceExhausted:
            pass

    def delete_batch(table: Table) -> None:
        table.delete_batch(
            _shard_keys(table, 0, 1, 3) + _shard_keys(table, 1, 1, 3)
        )

    return [
        FaultCase(name=f"{op.__name__}-sharded", build=_sharded_table,
                  operate=op)
        for op in (insert_batch, update_batch, delete_batch)
    ]


def _bulk_load_case() -> FaultCase:
    def operate(table: Table) -> None:
        keys, values = _batch_payload(24)
        table.bulk_load(list(zip(keys, values)))

    return FaultCase(
        name="bulk_load-scalar",
        build=lambda: _seeded_table(prefill=8),
        operate=operate,
    )


def _reconstruct_case() -> FaultCase:
    return FaultCase(
        name="reconstruct-scalar",
        build=lambda: _seeded_table(prefill=24),
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

    def operate(table: Table) -> None:
        spec = share_table(table)
        try:
            reader = SharedPlanes.attach(spec.planes)
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
        build=lambda: _seeded_table(prefill=24),
        operate=operate,
    )


def default_cases() -> List[FaultCase]:
    """The canned sweep: single-key insert, update and delete; batch
    insert (also across a mid-batch reconstruction), update and delete;
    the three batches across two shards; bulk load and reconstruct; and
    the shared-memory plane lifecycle (promote, reader reads,
    insert-through-shared, demote). The suffix names the table: one
    unsharded table (``-scalar``, after the one write engine every case
    runs, :mod:`repro.core.engine`) or two shards (``-sharded``)."""
    return [
        *_scalar_cases(),
        _insert_batch_case(),
        _reconstructing_batch_case(),
        _update_batch_case(),
        _delete_batch_case(),
        *_sharded_cases(),
        _bulk_load_case(),
        _reconstruct_case(),
        _shared_planes_case(),
    ]

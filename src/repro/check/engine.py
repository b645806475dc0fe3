"""The ``repro.check`` engine: file model, rule registries, orchestration.

A :class:`CheckedFile` bundles everything a rule needs — the parsed AST
with parent links, the raw source lines, and the file's pragma index. The
engine parses each file once, runs every registered rule, applies ``noqa``
suppressions, and reports suppressions that never fired (R003) so stale
escapes cannot accumulate.

Two rule registries exist:

- :data:`RULES` — per-file rules ``(CheckedFile, CheckConfig) ->
  Iterable[Violation]``; see the ``rules_*`` modules.
- :data:`PROJECT_RULES` — project rules ``(ProjectModel, CheckConfig) ->
  Iterable[Violation]`` that see every checked file at once through the
  interprocedural model of :mod:`repro.check.dataflow` (call graph +
  transitive cell-write effects). The R5xx invariant-dataflow rules live
  here: a single file cannot show whether ``self._run_update(...)``
  eventually XORs value-table cells three calls down.

Checking is therefore two-phase: every file is parsed and run through the
per-file rules first, then the project model is built over all parsed
files and the project rules run, and only then is the single suppression
pass applied — so a ``noqa[R501]`` works exactly like a ``noqa[R101]``
and unused suppressions (R003) are judged against the *complete* finding
set. docs/static_analysis.md has the catalogue.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.check.pragmas import PragmaIndex, parse_pragmas
from repro.check.violations import Violation

__all__ = [
    "CheckConfig",
    "CheckedFile",
    "RULES",
    "PROJECT_RULES",
    "check_source",
    "check_sources",
    "check_paths",
    "iter_python_files",
    "module_relpath",
]


@dataclass(frozen=True)
class CheckConfig:
    """Tunable knobs of the rule set (defaults encode repo policy)."""

    #: modules allowed to write value-table cell storage directly (R101).
    #: The storage owners themselves plus the sanctioned write paths of
    #: PAPER.md §update; baselines own independent storage (prefix below).
    value_table_writers: Tuple[str, ...] = (
        "repro/core/value_table.py",
        "repro/core/packed_table.py",
        "repro/core/update.py",
        "repro/core/static_build.py",
        "repro/core/embedder.py",
        "repro/core/sharded.py",
        "repro/core/shared_planes.py",
    )
    value_table_writer_prefixes: Tuple[str, ...] = ("repro/baselines/",)
    #: private attributes holding raw cell storage
    storage_attrs: Tuple[str, ...] = ("_cells", "_words")
    #: mutating methods of the value-table surface
    storage_mutators: Tuple[str, ...] = (
        "xor", "set", "load_dense", "clear", "fill",
    )
    #: classes whose bodies may call raw acquire_*/release_* (R301) —
    #: the lock implementations and their context-manager helpers,
    #: including the instrumented variants (lockset discipline checker,
    #: vector-clock tracer, cooperative-scheduler lock).
    lock_owner_classes: Tuple[str, ...] = (
        "RWLock", "LocksetRWLock", "ClockedRWLock", "CooperativeRWLock",
    )
    raw_lock_methods: Tuple[str, ...] = (
        "acquire_read", "release_read", "acquire_write", "release_write",
    )
    #: function names in which ``assert`` is a sanctioned debug validator
    assert_allowed_pattern: str = r"check|invariant|consisten|verify"
    #: test modules are skipped entirely when scanning a tree
    skip_dir_names: Tuple[str, ...] = ("__pycache__",)
    #: modules whose suffix matches may call print() (R404); everything
    #: else routes output through repro.obs hooks/exporters.
    print_allowed_suffixes: Tuple[str, ...] = ("cli.py", "__main__.py")
    #: the modules whose public mutation paths the R5xx invariant-dataflow
    #: rules hold to the two-phase update protocol (PAPER.md §update).
    invariant_modules: Tuple[str, ...] = (
        "repro/core/update.py",
        "repro/core/embedder.py",
        "repro/core/static_build.py",
    )
    #: assistant-table methods that *register* a key/value (the slow-space
    #: half of the invariant); a cell write after one of these must be
    #: rollback-protected (R501).
    assistant_registrations: Tuple[str, ...] = (
        "add", "add_batch_arrays", "set_value",
    )
    #: assistant-table methods an exception handler may use to roll the
    #: registration back (restoring A1^A2^A3 == value on the error edge).
    assistant_rollbacks: Tuple[str, ...] = ("remove", "set_value", "clear")
    #: the public mutation API of the embedder surface: calls resolved to
    #: these *methods* are the sanctioned way into the write path, so R502
    #: does not treat them as raw write-machinery escapes.
    public_mutation_api: Tuple[str, ...] = (
        "insert", "update", "delete", "insert_batch", "insert_many",
        "bulk_load", "reconstruct", "from_pairs", "update_batch",
        "delete_batch",
    )
    #: functions sanctioned to apply per-cell writes in a loop (R503):
    #: the deferred-plan applier (all cells XOR one fixed V_delta) and the
    #: reverse-peel assigners (each write lands in a still-unconstrained
    #: cell, see static_build.py) are all-or-nothing by construction.
    partial_write_appliers: Tuple[str, ...] = (
        "UpdatePlan.apply", "assign_in_reverse", "assign_in_reverse_flat",
    )
    #: modules whose ``async def``\ s are held to the R6xx asyncio
    #: discipline (blocking-call reachability, sanctioned table access).
    async_scope_prefixes: Tuple[str, ...] = ("repro/serve/",)
    #: dotted call names that block the calling thread (R601). An entry
    #: matches the exact callee or any deeper attribute under it
    #: (``subprocess`` covers ``subprocess.run``).
    blocking_calls: Tuple[str, ...] = (
        "time.sleep", "subprocess", "os.system", "os.waitpid",
        "socket.create_connection", "urllib.request.urlopen", "open",
    )
    #: method names that block when called un-awaited on a receiver whose
    #: last segment matches :attr:`blocking_receiver_pattern` (R601) —
    #: ``self._lock.acquire()`` blocks, ``await lock.acquire()`` is the
    #: asyncio variant and is fine.
    blocking_methods: Tuple[str, ...] = ("acquire", "wait", "join")
    blocking_receiver_pattern: str = (
        r"lock|mutex|sem|cond|barrier|event|thread|proc"
    )
    #: functions (``Class.method`` or bare name) sanctioned to touch the
    #: table's data API from serve-scope modules (R604): the batch
    #: executor chain that the micro-batcher runs inline on the event
    #: loop. Everything else must go through the batcher.
    serve_table_executors: Tuple[str, ...] = (
        "TableServer._execute_batch",
        "TableServer._run_lookups",
        "TableServer._run_writes",
        "TableServer._write_per_key",
        "WorkerPool._apply_write",
    )
    #: the table's data-plane API (R604 judges method *calls*; attribute
    #: reads like ``len(self.table)`` or ``table.metrics`` stay free).
    table_data_api: Tuple[str, ...] = (
        "lookup", "lookup_many", "lookup_batch", "insert", "insert_batch",
        "insert_many", "update", "delete", "bulk_load", "reconstruct",
        "from_pairs", "update_batch", "delete_batch",
    )
    #: modules that own plane storage and may mutate views of it in place
    #: (R701). Narrower than :attr:`value_table_writers`: update and
    #: sharded go through the table's mutation API, they do not alias its
    #: planes.
    plane_writer_modules: Tuple[str, ...] = (
        "repro/core/value_table.py",
        "repro/core/packed_table.py",
        "repro/core/assistant_table.py",
        "repro/core/shared_planes.py",
    )
    #: methods that derive a *view* (aliasing memory) from an array —
    #: taint propagates through these (R701/R703).
    view_methods: Tuple[str, ...] = (
        "reshape", "ravel", "view", "transpose", "swapaxes", "squeeze",
    )
    #: methods that materialise fresh memory — taint stops here.
    copy_methods: Tuple[str, ...] = ("copy", "astype", "tolist")
    #: modules whose *public* functions must declare their escapable
    #: exceptions with a ``raises(...)`` pragma (R801).
    exception_contract_modules: Tuple[str, ...] = (
        "repro/core/embedder.py",
        "repro/core/sharded.py",
        "repro/core/persist.py",
    )
    #: the module holding the serve error table R802 checks, and the
    #: table's name inside it.
    serve_protocol_module: str = "repro/serve/protocol.py"
    serve_error_table_name: str = "_ERROR_TABLE"
    #: table classes whose wire-reachable methods feed the R802
    #: escapable-exception set (the serve executors call them through
    #: ``self.table.<method>``, which name-based resolution cannot see).
    serve_table_classes: Tuple[str, ...] = (
        "VisionEmbedder", "ShardedEmbedder",
    )
    #: the table methods the serve layer invokes on behalf of the wire.
    serve_wire_methods: Tuple[str, ...] = (
        "insert", "insert_batch", "update", "delete", "lookup_many",
        "update_batch", "delete_batch",
    )
    #: call names an exception handler / finally block may use to roll a
    #: partially-applied mutation back (R803) — assistant rollbacks plus
    #: the table-level restore paths, the write-journal undo
    #: (``_rollback``) and the before-image writer (``write_back``).
    atomic_rollbacks: Tuple[str, ...] = (
        "remove", "set_value", "clear", "_restore_state", "load_dense",
        "restore", "xor", "_rollback", "write_back",
    )
    #: dotted callee names that acquire an OS resource needing close()
    #: (R804). An entry matches the exact callee or its last attribute
    #: segment (``ThreadPoolExecutor`` covers
    #: ``concurrent.futures.ThreadPoolExecutor``).
    resource_factories: Tuple[str, ...] = (
        "open", "socket.socket", "mmap.mmap", "ThreadPoolExecutor",
        "ProcessPoolExecutor", "HTTPConnection", "Popen",
    )
    #: method names that release such a resource.
    resource_closers: Tuple[str, ...] = ("close", "shutdown", "terminate")
    #: exception names whose silent swallowing hides table corruption
    #: (R805): a bare ``pass``-style handler for these masks a broken
    #: A1^A2^A3 invariant or a half-read snapshot.
    corruption_exceptions: Tuple[str, ...] = (
        "AssertionError", "ReconstructionFailed", "CorruptSnapshotError",
    )

    def is_contract_module(self, rel: str) -> bool:
        """True if ``rel``'s public functions need raises contracts."""
        return any(rel.endswith(mod)
                   for mod in self.exception_contract_modules)

    def is_resource_factory(self, callee: str) -> bool:
        """True if the dotted callee acquires a closable resource (R804)."""
        last = callee.rsplit(".", 1)[-1]
        return any(callee == name or last == name.rsplit(".", 1)[-1]
                   for name in self.resource_factories)

    def is_assistant_receiver(self, text: str) -> bool:
        """True if a dotted receiver looks like an assistant-table handle."""
        return text.rsplit(".", 1)[-1].lstrip("_").endswith("assistant")

    def is_invariant_module(self, rel: str) -> bool:
        """True if ``rel`` is held to the R5xx invariant protocol."""
        return any(rel.endswith(mod) for mod in self.invariant_modules)

    def allows_table_writes(self, rel: str) -> bool:
        """True if ``rel`` is a sanctioned value-table write-path module."""
        return (
            any(rel.endswith(mod) for mod in self.value_table_writers)
            or any(prefix in rel
                   for prefix in self.value_table_writer_prefixes)
        )

    def in_async_scope(self, rel: str) -> bool:
        """True if ``rel`` is held to the R6xx asyncio discipline."""
        return any(rel.startswith(prefix) or f"/{prefix}" in rel
                   for prefix in self.async_scope_prefixes)

    def owns_planes(self, rel: str) -> bool:
        """True if ``rel`` may mutate plane-storage views in place (R701)."""
        return (
            any(rel.endswith(mod) for mod in self.plane_writer_modules)
            or any(prefix in rel
                   for prefix in self.value_table_writer_prefixes)
        )

    def is_blocking_callee(self, callee: str) -> bool:
        """True if the dotted callee text names a blocking call (R601)."""
        return any(callee == name or callee.startswith(name + ".")
                   for name in self.blocking_calls)


class CheckedFile:
    """One parsed source file with everything the rules consume."""

    def __init__(self, rel: str, source: str, tree: ast.Module,
                 pragmas: PragmaIndex) -> None:
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.pragmas = pragmas
        self._parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    # -- navigation ----------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_classes(self, node: ast.AST) -> List[str]:
        """Names of the classes lexically enclosing ``node``, innermost
        first."""
        return [
            ancestor.name for ancestor in self.ancestors(node)
            if isinstance(ancestor, ast.ClassDef)
        ]

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef | ast.AsyncFunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    # -- pragma helpers ------------------------------------------------

    def _def_pragma_lines(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> "set[int]":
        """Lines where a def-scoped pragma may sit: the contiguous run of
        ``# repro:`` comment lines above the def (or its first decorator)
        plus every *signature* line — a multi-line signature carries
        trailing pragmas on its closing paren, not on the ``def`` line.
        The comment run lets several directives stack on one def
        (``raises(...)`` above ``atomic`` above the signature)."""
        first_line = (
            node.decorator_list[0].lineno if node.decorator_list
            else node.lineno
        )
        body_start = node.body[0].lineno if node.body else node.lineno + 1
        candidates = set(range(node.lineno, max(body_start,
                                                node.lineno + 1)))
        above = first_line - 1
        candidates.add(above)
        while (above >= 1 and above <= len(self.lines)
               and re.match(r"\s*#\s*repro:", self.lines[above - 1])):
            candidates.add(above)
            above -= 1
        return candidates

    def is_hotpath(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """True if the def carries a ``# repro: hotpath`` pragma."""
        return bool(
            self._def_pragma_lines(node) & self.pragmas.hotpath_lines
        )

    def arrays_contract(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Optional[Tuple[str, ...]]:
        """The ``# repro: arrays(...)`` dtype allowlist on a def, if any."""
        for line in sorted(self._def_pragma_lines(node)):
            contract = self.pragmas.arrays_lines.get(line)
            if contract is not None:
                return contract
        return None

    def is_atomic(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """True if the def carries a ``# repro: atomic`` pragma."""
        return bool(
            self._def_pragma_lines(node) & self.pragmas.atomic_lines
        )

    def raises_contract(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Optional[Tuple[str, ...]]:
        """The ``# repro: raises(...)`` contract on a def, if any.

        Several ``raises(...)`` lines stacked above one def union into a
        single contract (a long exception list does not have to fit one
        comment line)."""
        names: List[str] = []
        found = False
        for line in sorted(self._def_pragma_lines(node)):
            contract = self.pragmas.raises_lines.get(line)
            if contract is not None:
                found = True
                names.extend(n for n in contract if n not in names)
        return tuple(names) if found else None

    def hotpath_functions(
        self,
    ) -> List[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            node for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and self.is_hotpath(node)
        ]

    # -- reporting helpers ---------------------------------------------

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Violation(
            rule=rule, path=self.rel, line=line, col=col,
            message=message, snippet=self.snippet(line),
        )


Rule = Callable[[CheckedFile, CheckConfig], Iterable[Violation]]

#: the registered per-file rule set, populated by the ``rules_*`` modules.
RULES: List[Rule] = []

# A project rule receives the interprocedural model built over *every*
# checked file (repro.check.dataflow.ProjectModel); typed loosely here to
# keep engine <-> dataflow imports acyclic.
ProjectRule = Callable[[object, CheckConfig], Iterable[Violation]]

#: the registered project-wide rule set (``rules_invariant``).
PROJECT_RULES: List[ProjectRule] = []


def register(rule: Rule) -> Rule:
    """Decorator adding a per-file rule function to :data:`RULES`."""
    RULES.append(rule)
    return rule


def register_project(rule: ProjectRule) -> ProjectRule:
    """Decorator adding a project-wide rule to :data:`PROJECT_RULES`."""
    PROJECT_RULES.append(rule)
    return rule


def _load_rules() -> None:
    # Imported for their ``@register`` side effects; at the bottom so the
    # rule modules can import ``register`` from here.
    from repro.check import (  # noqa: F401  (registration side effect)
        rules_arrays,
        rules_async,
        rules_exceptions,
        rules_hotpath,
        rules_hygiene,
        rules_invariant,
        rules_locks,
        rules_resources,
        rules_writes,
    )


def check_sources(
    sources: "Dict[str, str]",
    config: Optional[CheckConfig] = None,
) -> List[Violation]:
    """Run the full two-phase check over a set of in-memory files.

    ``sources`` maps module-relative posix paths (``repro/core/update.py``)
    to source text. Phase one parses every file and runs the per-file
    rules; phase two builds the interprocedural project model over all
    files that parsed and runs the project rules. Suppression is a single
    pass at the end so a ``noqa[R501]`` on a call site works exactly like
    a ``noqa[R101]``, and unused suppressions (R003) are judged against
    the complete finding set. Returns violations sorted by location.
    """
    if config is None:
        config = CheckConfig()
    if not RULES:
        _load_rules()
    found: List[Violation] = []
    checked_files: List[CheckedFile] = []
    by_rel: Dict[str, CheckedFile] = {}
    for rel in sorted(sources):
        source = sources[rel]
        pragmas = parse_pragmas(source, rel)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            found.append(Violation(
                rule="R000", path=rel, line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            ))
            continue
        checked = CheckedFile(rel, source, tree, pragmas)
        checked_files.append(checked)
        by_rel[rel] = checked
        found.extend(pragmas.problems)
        for rule in RULES:
            found.extend(rule(checked, config))
    if checked_files:
        from repro.check.dataflow import build_project
        model = build_project(checked_files, config)
        for project_rule in PROJECT_RULES:
            found.extend(project_rule(model, config))
    surviving: List[Violation] = []
    for violation in found:
        checked_file = by_rel.get(violation.path)
        if (
            checked_file is not None
            and violation.rule[1] != "0"
            and checked_file.pragmas.suppresses(
                violation.rule, violation.line
            )
        ):
            continue
        surviving.append(violation)
    for checked in checked_files:
        for suppression in checked.pragmas.unused():
            surviving.append(Violation(
                rule="R003", path=checked.rel, line=suppression.line, col=1,
                message=(
                    "suppression never fired (noqa"
                    f"[{','.join(suppression.codes)}]) — remove it"
                ),
                snippet=checked.snippet(suppression.line),
            ))
    return sorted(surviving, key=lambda v: (v.path, v.line, v.rule))


def check_source(
    source: str,
    rel: str,
    config: Optional[CheckConfig] = None,
) -> List[Violation]:
    """Run every rule over one in-memory source file.

    ``rel`` is the module-relative posix path (``repro/core/update.py``);
    the R101/R301 allowlists match against it. A single file still gets
    the project rules — its project model just has one module in it.
    Returns the surviving violations sorted by location — pragma problems
    first-class among them, suppressed findings removed, unused
    suppressions added (R003).
    """
    return check_sources({rel: source}, config)


def module_relpath(path: Path) -> str:
    """Normalise a filesystem path to the module-relative form.

    Everything up to and including a leading ``src/`` component is
    dropped, so ``src/repro/core/update.py`` and an absolute variant both
    become ``repro/core/update.py`` (what the allowlists match against).
    """
    posix = path.as_posix()
    marker = "src/"
    index = posix.rfind(marker)
    if index != -1:
        return posix[index + len(marker):]
    return posix.lstrip("./")


def iter_python_files(
    paths: Iterable[Path], config: CheckConfig
) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to check."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in config.skip_dir_names
                       for part in candidate.parts):
                    continue
                yield candidate
        else:
            yield path


def check_paths(
    paths: Iterable[Path],
    config: Optional[CheckConfig] = None,
) -> List[Violation]:
    """Check every python file under ``paths`` (files or directories)."""
    if config is None:
        config = CheckConfig()
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths, config):
        sources[module_relpath(path)] = path.read_text(encoding="utf-8")
    return check_sources(sources, config)

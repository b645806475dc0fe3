"""R7xx — numpy aliasing and dtype contracts.

The batched plane kernels trade safety for speed by working on *views*
of the value-table planes (``_cells``/``_words``) instead of copies. A
view is an alias: mutate it anywhere and you have mutated the table,
bypassing the XOR bookkeeping that R101/R5xx guard on the sanctioned
write path. Three rules police the alias boundary:

- **R701** — no in-place mutation (``+=``, slice-assign, ``np.add.at``)
  of an array *derived from* plane storage outside the plane-owner
  modules (:attr:`CheckConfig.plane_writer_modules`). Derivation is a
  function-local taint pass: reading ``._cells``/``._words`` seeds the
  taint; ``reshape``/``ravel``/``view``/``.T``/slicing propagate it;
  ``.copy()``/``astype``/``tolist`` (materialising calls) break it.
- **R702** — dtype contracts: a ``# repro: arrays(int64, bool)`` pragma
  on a def is an allowlist; every *literal* ``dtype=`` kwarg and literal
  ``.astype(...)`` argument in the body must name one of the listed
  dtypes. This pins the hash-family width assumptions (uint64 planes,
  int64 index math) where the kernels rely on them.
- **R703** — hotpath functions must not let a storage view *escape*:
  returning a tainted array without an explicit ``.copy()`` hands an
  alias of live table memory to arbitrary callers.

Like every rule family, ``noqa[R7...]`` with a justification sanctions a
site; the plane-owner modules are exempt from R701 wholesale because
mutating their own storage is their job.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.engine import CheckConfig, CheckedFile, register
from repro.check.violations import Violation

__all__ = ["analysis_summary"]


# ---------------------------------------------------------------------------
# taint: which expressions are (views of) plane storage?
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class _Taint:
    """Function-local view-provenance: is this expression storage-derived?"""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.names: Set[str] = set()

    def tainted(self, node: ast.expr) -> bool:
        config = self.config
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            if node.attr in config.storage_attrs:
                return True
            if node.attr == "T":  # transpose property is a view
                return self.tainted(node.value)
            return False
        if isinstance(node, ast.Subscript):
            return self.tainted(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in config.copy_methods:
                    return False  # materialising call breaks the alias
                if func.attr in config.view_methods:
                    return self.tainted(func.value)
                return False
            dotted = _dotted(func) or ""
            if dotted.endswith("asarray") or dotted.endswith("ascontiguousarray"):
                # asarray of an ndarray is a no-copy passthrough
                return bool(node.args) and self.tainted(node.args[0])
            return False
        if isinstance(node, ast.IfExp):
            return self.tainted(node.body) or self.tainted(node.orelse)
        return False

    def absorb_assignments(self, scope: ast.AST) -> None:
        """Fixed-point taint propagation through simple assignments."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    value, targets = node.value, [node.target]
                else:
                    continue
                if not self.tainted(value):
                    continue
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id not in self.names):
                        self.names.add(target.id)
                        changed = True


def _function_scopes(
    checked: CheckedFile,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Top-level functions/methods; nested defs are folded into their
    parent's walk (a flat-namespace approximation, same as dataflow)."""
    for node in ast.walk(checked.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        parent = checked.parent(node)
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node


# ---------------------------------------------------------------------------
# R701 — in-place mutation of storage views outside plane owners
# ---------------------------------------------------------------------------


def _mutations(
    scope: ast.AST, taint: _Taint
) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(scope):
        if isinstance(node, ast.AugAssign):
            if taint.tainted(node.target):
                yield node, "augmented assignment to a storage view"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and taint.tainted(target.value)):
                    yield node, "slice-assignment into a storage view"
                    break
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "at"
                    and node.args and taint.tainted(node.args[0])):
                ufunc = _dotted(func.value) or "ufunc"
                yield node, f"{ufunc}.at() scatters into a storage view"


@register
def rule_view_mutation(
    checked: CheckedFile, config: CheckConfig
) -> Iterator[Violation]:
    """R701: only plane owners mutate plane storage in place."""
    if config.owns_planes(checked.rel):
        return
    for scope in _function_scopes(checked):
        taint = _Taint(config)
        taint.absorb_assignments(scope)
        for node, how in _mutations(scope, taint):
            yield checked.violation(
                "R701", node,
                f"{how} — this array aliases value-table plane storage "
                "(derived from a ._cells/._words read); mutate through "
                "the table's write API or .copy() first",
            )


# ---------------------------------------------------------------------------
# R702 — literal dtypes against the arrays(...) contract
# ---------------------------------------------------------------------------


def _literal_dtype_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr          # np.int64 -> "int64"
    if isinstance(node, ast.Name):
        return node.id            # bool, int
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value         # dtype="uint64"
    return None


def _dtype_sites(scope: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg != "dtype":
                continue
            name = _literal_dtype_name(kw.value)
            if name is not None:
                yield kw.value, name
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "astype"
                and node.args):
            name = _literal_dtype_name(node.args[0])
            if name is not None:
                yield node, name


@register
def rule_dtype_contract(
    checked: CheckedFile, config: CheckConfig
) -> Iterator[Violation]:
    """R702: literal dtypes must be on the def's arrays(...) allowlist."""
    for scope in _function_scopes(checked):
        contract = checked.arrays_contract(scope)
        if contract is None:
            continue
        allowed = set(contract)
        for node, name in _dtype_sites(scope):
            if name in allowed:
                continue
            yield checked.violation(
                "R702", node,
                f"dtype {name!r} is not in {scope.name}'s arrays contract "
                f"({', '.join(contract)}) — widen the pragma or fix the "
                "width",
            )


# ---------------------------------------------------------------------------
# R703 — storage views escaping hotpath functions
# ---------------------------------------------------------------------------


@register
def rule_view_escape(
    checked: CheckedFile, config: CheckConfig
) -> Iterator[Violation]:
    """R703: hotpath returns must not alias live plane storage."""
    for scope in _function_scopes(checked):
        if not checked.is_hotpath(scope):
            continue
        taint = _Taint(config)
        taint.absorb_assignments(scope)
        for node in ast.walk(scope):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if not taint.tainted(node.value):
                continue
            yield checked.violation(
                "R703", node,
                f"hotpath {scope.name} returns a view of plane storage — "
                "callers get an alias of live table memory; return an "
                "explicit .copy()",
            )


# ---------------------------------------------------------------------------
# CLI section (--arrays)
# ---------------------------------------------------------------------------


def analysis_summary(
    sources: Dict[str, str], config: Optional[CheckConfig] = None
) -> Dict[str, Any]:
    """Aggregate array-analysis statistics for the ``--arrays`` JSON
    section. Violations flow through the normal engine pipeline; this
    reports the coverage: contracts seen, dtype literals checked, taint
    seeds found."""
    from repro.check.engine import CheckedFile as _CheckedFile
    from repro.check.pragmas import parse_pragmas

    if config is None:
        config = CheckConfig()
    contracts = 0
    dtype_literals = 0
    taint_seeds = 0
    hotpaths = 0
    files_scanned = 0
    for rel in sorted(sources):
        try:
            tree = ast.parse(sources[rel])
        except SyntaxError:
            continue
        files_scanned += 1
        checked = _CheckedFile(rel, sources[rel],
                               tree, parse_pragmas(sources[rel], rel))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in config.storage_attrs):
                taint_seeds += 1
        for scope in _function_scopes(checked):
            if checked.arrays_contract(scope) is not None:
                contracts += 1
                dtype_literals += sum(1 for _ in _dtype_sites(scope))
            if checked.is_hotpath(scope):
                hotpaths += 1
    return {
        "files_scanned": files_scanned,
        "dtype_contracts": contracts,
        "dtype_literals_checked": dtype_literals,
        "storage_reads": taint_seeds,
        "hotpath_functions": hotpaths,
        "plane_writer_modules": list(config.plane_writer_modules),
    }

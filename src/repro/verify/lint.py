"""Repo-specific AST lint rules, runnable as ``python -m repro.verify``.

Rules (all locations are ``path:line``):

* ``lint-unseeded-random`` — ``np.random.default_rng()`` called without a
  seed, or any legacy ``np.random.<fn>`` global-state call.  Outside the
  matrix generators (``sparse/generators.py``) every random stream in
  this repo must be explicitly seeded: the simulator's determinism
  guarantee (and every regression baseline) depends on it.
* ``lint-csc-mutation`` — in-place mutation of CSC index arrays
  (``x.indptr[...] = ...``, ``x.indices.sort()``, ...).  ``SymCSC`` /
  ``LowerCSC`` are frozen contracts shared across the symbolic, mapping
  and numeric layers; mutating their index arrays invalidates every
  derived structure (etree, supernodes, layouts) silently.
* ``lint-bare-assert`` — ``assert`` without a message in library code.
  Asserts vanish under ``python -O`` and a bare one gives no diagnostic;
  hot-path invariants must either use :func:`repro.util.validation.require`
  or carry a message.  Test code is exempt — a bare ``assert`` is how
  pytest states a check and reports it: a file under a ``tests``
  directory, a ``conftest.py``, or a module pytest collects
  (``test_*.py``, ``*_test.py``, and this repo's ``bench_*.py``).
* ``lint-unused-import`` (warning) — imported name never referenced
  (names re-exported via ``__all__`` and ``__future__`` imports are
  exempt; a trailing ``# noqa`` comment suppresses any rule on its line).

The checker is a plain :mod:`ast` walk — no third-party linter needed —
so the repo-wide gate runs anywhere the package itself runs.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

from repro.verify.findings import Report, Severity

#: Legacy ``np.random`` attributes that use (or seed) hidden global state.
_LEGACY_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "normal",
        "uniform",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "RandomState",
    }
)

#: ndarray methods that mutate in place when called on an index array.
_MUTATING_METHODS = frozenset({"sort", "fill", "put", "resize", "partition", "setfield"})

#: Attribute names that hold CSC index arrays across this codebase.
_CSC_INDEX_ATTRS = frozenset({"indptr", "indices"})

#: Modules allowed to draw from np.random freely (they own the seeds).
_RANDOM_EXEMPT_SUFFIXES = ("sparse/generators.py",)


def _is_test_file(filename: str) -> bool:
    """True for the test code the bare-assert rule leaves alone."""
    path = PurePosixPath(filename.replace("\\", "/"))
    return (
        "tests" in path.parts[:-1]
        or path.name == "conftest.py"
        or path.name.startswith(("test_", "bench_"))
        or path.name.endswith("_test.py")
    )


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _stored(targets: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """The objects an assignment stores into, tuple targets unpacked."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _stored(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _stored([target.value])
        else:
            yield target


class _Linter(ast.NodeVisitor):
    def __init__(self, filename: str, source: str, report: Report):
        self.filename = filename
        self.report = report
        self.lines = source.splitlines()
        self.numpy_aliases: set[str] = {"np", "numpy"}
        self.random_exempt = filename.replace("\\", "/").endswith(_RANDOM_EXEMPT_SUFFIXES)
        self.test_file = _is_test_file(filename)
        # import tracking for the unused-import rule
        self.imported: dict[str, tuple[int, str]] = {}  # alias -> (line, shown name)
        self.used_names: set[str] = set()
        self.exported: set[str] = set()

    # ------------------------------------------------------------- helpers
    def _suppressed(self, line: int) -> bool:
        if 1 <= line <= len(self.lines):
            return "# noqa" in self.lines[line - 1]
        return False

    def _add(self, rule: str, line: int, message: str, *, warning: bool = False) -> None:
        if self._suppressed(line):
            return
        self.report.add(
            rule,
            message,
            location=f"{self.filename}:{line}",
            severity=Severity.WARNING if warning else Severity.ERROR,
        )

    # ------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name in ("numpy",):
                self.numpy_aliases.add(name)
            self.imported[name] = (node.lineno, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.imported[name] = (node.lineno, f"{node.module or ''}.{alias.name}")

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used_names.add(node.id)
        self.generic_visit(node)

    def _collect_annotation_names(self, annotation: ast.AST | None) -> None:
        """Count names inside string ('forward-reference') annotations as used."""
        if annotation is None:
            return
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(expr):
                    if isinstance(name, ast.Name):
                        self.used_names.add(name.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect_annotation_names(node.returns)
        for arg in (
            node.args.args
            + node.args.posonlyargs
            + node.args.kwonlyargs
            + [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
        ):
            self._collect_annotation_names(arg.annotation)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._collect_annotation_names(node.annotation)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # __all__ = [...] marks re-exports as used.
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                self.exported.update(
                    elt.value
                    for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
        self._check_store_mutation(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_mutation([node.target], node.lineno)
        self.generic_visit(node)

    # ------------------------------------------------------ rule: np.random
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if len(chain) >= 3 and chain[0] in self.numpy_aliases and chain[1] == "random":
            tail = chain[2]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    self._add(
                        "lint-unseeded-random",
                        node.lineno,
                        "np.random.default_rng() without a seed breaks the "
                        "simulator's determinism guarantee; pass an explicit seed",
                    )
            elif tail in _LEGACY_RANDOM and not self.random_exempt:
                self._add(
                    "lint-unseeded-random",
                    node.lineno,
                    f"np.random.{tail} uses hidden global random state; use a "
                    "seeded np.random.default_rng(seed) generator",
                )
        # x.indices.sort() and friends
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in _CSC_INDEX_ATTRS
        ):
            self._add(
                "lint-csc-mutation",
                node.lineno,
                f"in-place .{node.func.attr}() on a CSC '{node.func.value.attr}' "
                "array; CSC structures are immutable contracts — rebuild via "
                "repro.sparse.build instead",
            )
        self.generic_visit(node)

    # -------------------------------------------------- rule: csc mutation
    def _check_store_mutation(self, targets: Sequence[ast.AST], line: int) -> None:
        # Only the chain of the stored object counts: ``data[a.indptr[k]] = v``
        # stores into ``data`` and merely reads ``indptr``.
        for store in _stored(targets):
            while isinstance(store, ast.Subscript):
                if isinstance(store.value, ast.Attribute) and store.value.attr in _CSC_INDEX_ATTRS:
                    self._add(
                        "lint-csc-mutation",
                        line,
                        f"element store into a CSC '{store.value.attr}' array; "
                        "CSC structures are immutable contracts — rebuild via "
                        "repro.sparse.build instead",
                    )
                    break
                store = store.value

    # ---------------------------------------------------- rule: bare assert
    def visit_Assert(self, node: ast.Assert) -> None:
        if node.msg is None and not self.test_file:
            self._add(
                "lint-bare-assert",
                node.lineno,
                "bare assert in library code (vanishes under -O and gives no "
                "diagnostic); use repro.util.validation.require(cond, msg) "
                "or add a message",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------ finishing
    def finish(self) -> None:
        for name, (line, shown) in self.imported.items():
            if name.startswith("_"):
                continue
            if name in self.used_names or name in self.exported:
                continue
            self._add(
                "lint-unused-import",
                line,
                f"'{shown}' imported but unused",
                warning=True,
            )


def lint_source(source: str, filename: str = "<string>") -> Report:
    """Lint one source string; *filename* is used for rule exemptions and
    finding locations."""
    report = Report()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(
            "lint-syntax-error",
            f"cannot parse: {exc.msg}",
            location=f"{filename}:{exc.lineno or 0}",
        )
        return report
    linter = _Linter(filename, source, report)
    linter.visit(tree)
    linter.finish()
    return report


def lint_file(path: str | Path) -> Report:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | Path]) -> Report:
    """Lint every ``.py`` file under the given files/directories."""
    report = Report()
    for entry in paths:
        p = Path(entry)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            report.extend(lint_file(f))
    return report

"""API quality gates: docstrings everywhere, clean exports, no cycles, live doc paths."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.sparse",
    "repro.graph",
    "repro.ordering",
    "repro.symbolic",
    "repro.numeric",
    "repro.machine",
    "repro.mapping",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.exec",
    "repro.serve",
    "repro.verify",
]


def all_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                out.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return out


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [m.__name__ for m in all_modules() if not (m.__doc__ or "").strip()]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_function_documented(self):
        missing = []
        for mod in all_modules():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{mod.__name__}.{name}")
        assert not missing, f"undocumented public functions: {missing}"

    def test_every_public_class_documented(self):
        missing = []
        for mod in all_modules():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{mod.__name__}.{name}")
        assert not missing, f"undocumented public classes: {missing}"


class TestExports:
    def test_package_all_lists_resolve(self):
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name}"

    def test_top_level_api(self):
        for name in ("ParallelSparseSolver", "MachineSpec", "cray_t3d", "analyze"):
            assert hasattr(repro, name)

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestOptionSurface:
    """Every independently settable value on the solve/serve/exec surface.

    An option added here doubles what tests and benchmarks must cover, so
    it has to show up as a diff of this table.
    """

    def test_parameters_and_backends_are_exactly_these(self):
        from repro.core.solver import ParallelSparseSolver
        from repro.exec import (
            REAL_BACKENDS,
            plan_for,
            program_for,
            solve_exec,
            solve_fused,
        )
        from repro.serve import SolveService

        expected = {
            ParallelSparseSolver.solve: ["self", "bvec", "check", "refine", "backend"],
            SolveService.__init__: [
                "self", "max_batch", "max_wait", "idle_wait", "max_queue", "clock",
            ],
            SolveService.register: ["self", "name", "target"],
            plan_for: ["stree"],
            program_for: ["stree", "certify"],
            solve_exec: ["factor", "b", "workers", "plan"],
            solve_fused: ["factor", "b", "program"],
        }
        for func, names in expected.items():
            assert list(inspect.signature(func).parameters) == names, func.__qualname__
        assert REAL_BACKENDS == ("serial", "fused")
        assert not hasattr(ParallelSparseSolver, "serving")
        init_fields = [f.name for f in dataclasses.fields(ParallelSparseSolver) if f.init]
        assert init_fields == [
            "a", "p", "spec", "b", "ordering", "variant", "relax", "verify",
        ]

    def test_default_relax_gives_fewer_levels_than_fundamental_supernodes(self):
        from repro.core.solver import ParallelSparseSolver
        from repro.exec import program_for
        from repro.sparse.generators import grid3d_laplacian

        a = grid3d_laplacian(8)
        default = ParallelSparseSolver(a, verify=False).prepare()
        fundamental = ParallelSparseSolver(a, relax=0, verify=False).prepare()
        assert (program_for(default.symbolic.stree).nlevels
                < program_for(fundamental.symbolic.stree).nlevels)


class TestImportHygiene:
    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_all_modules_importable_in_isolation(self):
        # importing any module must not raise (no hidden cycles)
        assert len(all_modules()) > 40

    def test_no_private_scipy_sparse_import(self):
        # ``scipy.sparse._sparsetools`` and friends move between releases.
        # The one licensed use is the fused tapes' direct calls of the loops
        # ``@`` runs, and ``test_exec_fused.py::TestDirectCalls`` pins them
        # bytewise to ``@`` at the dependency floors; nothing else may lean
        # on scipy's private modules.
        private = re.compile(r"^\s*(?:from|import)\s+scipy\.sparse\._.*|"
                             r"^\s*from\s+scipy\.sparse\s+import\s+[^#\n]*\b_.*", re.M)
        found = sorted(
            (str(path.relative_to(self.SRC)), line.strip())
            for path in self.SRC.rglob("*.py")
            for line in private.findall(path.read_text())
        )
        licensed = [("repro/exec/fused.py",
                     "from scipy.sparse import _sparsetools, csc_array, csr_array")]
        assert found == licensed, f"private scipy.sparse imports: {found}"

    def test_no_replay_round_left(self):
        # Replace, not fork: a level's extend-add is its replay operator; the
        # duplicate-free rounds and their vectors are gone.
        words = ("round_starts", "scatter_dst", "scatter_src", "_replay_rounds")
        offenders = sorted(
            f"{path.relative_to(self.SRC)}: {word}"
            for path in self.SRC.rglob("*.py")
            for word in words
            if word in path.read_text()
        )
        assert not offenders, f"replay-round code left in {offenders}"

    def test_fused_backend_has_no_term_stack_reduction_left(self):
        # Replace, not fork: the per-bucket take / multiply / reduce path is gone.
        text = (self.SRC / "repro" / "exec" / "fused.py").read_text()
        for word in ("reduceat", "sum_terms"):
            assert word not in text, f"exec/fused.py still mentions {word}"


class TestModuleCensus:
    """Every module names a user outside the tests, or it goes.

    A module is used when a file under ``src/``, ``benchmarks/`` or
    ``examples/`` other than itself imports it, or imports one of the
    public names it defines (also through a package).  Package
    ``__init__`` files do not count: a re-export only makes a name
    reachable, it does not use it.
    """

    ROOT = Path(__file__).resolve().parent.parent
    SRC = ROOT / "src"
    #: Modules that stay without such a user, each with the reason.
    ALLOWED = {
        "repro.numeric.condest": "the condition estimate that accuracy reporting "
        "(ROADMAP item 4) prints next to the residual",
        "repro.numeric.simplicial": "the reference oracle the supernodal factor "
        "is tested against",
    }

    @staticmethod
    def _module_name(path: Path, root: Path) -> str:
        parts = list(path.relative_to(root).with_suffix("").parts)
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    @staticmethod
    def _defined_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        return {n for n in names if not n.startswith("_")}

    @staticmethod
    def _imports(path: Path, module: str):
        """``(module, name)`` pairs that *path* imports; name None for ``import m``."""
        package = module.split(".")[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: anchor at the importing file's package
                    anchor = package[: len(package) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    yield base, alias.name

    def test_every_module_has_a_user_outside_the_tests(self):
        modules = {}  # dotted name -> public names it defines
        for path in sorted((self.SRC / "repro").rglob("*.py")):
            if path.name not in ("__init__.py", "__main__.py"):
                modules[self._module_name(path, self.SRC)] = self._defined_names(
                    ast.parse(path.read_text())
                )
        used: set[str] = set()
        for root, top in ((self.SRC, "repro"), (self.ROOT, "benchmarks"), (self.ROOT, "examples")):
            for path in sorted((root / top).rglob("*.py")):
                if path.name == "__init__.py":
                    continue
                me = self._module_name(path, root)
                for base, name in self._imports(path, me):
                    hits = {base} if name is None else {base, f"{base}.{name}"}
                    if name is not None and base.startswith("repro"):
                        package = importlib.import_module(base)
                        if hasattr(package, "__path__") and hasattr(package, name):
                            obj = getattr(package, name)
                            hits.update(
                                m for m, defined in modules.items()
                                if m.startswith(base + ".") and name in defined
                                and getattr(importlib.import_module(m), name) is obj
                            )
                    used.update(hits - {me})
        unused = sorted(set(modules) - used - set(self.ALLOWED))
        assert not unused, f"modules with no user outside tests/ (delete or allowlist): {unused}"
        stale = sorted(m for m in self.ALLOWED if m in used or m not in modules)
        assert not stale, f"allowlist entries that are used or gone: {stale}"


class TestNameCensus:
    """Every public function, class, method and keyword-only option names a
    user outside the tests, or it goes.

    A reference is an identifier in a file under ``src/``, ``benchmarks/``
    or ``examples/``: a name or import of a top-level function or class; an
    attribute access of a method or property (matched by attribute name;
    dunders and ``ast.NodeVisitor`` ``visit_*`` hooks are exempt); for a
    keyword-only option (one with a default), a ``name=`` keyword in a call
    from another module (exact: such an option can only be passed by name;
    one only its own module sets is that module's detail).  The name's own
    definition, package ``__init__`` re-exports and ``__all__``, and the
    checkers' known-bad corpus (whose cases exist only to trip them) do not
    count.
    """

    ROOT = Path(__file__).resolve().parent.parent
    SRC = ROOT / "src"
    CORPUS = SRC / "repro" / "verify" / "corpus.py"
    #: Names that stay without such a user, each with the reason.
    ALLOWED = {
        "repro.numeric.simplicial.cholesky_simplicial": "the reference oracle the "
        "supernodal factor is tested against",
        "repro.numeric.trisolve.forward_simplicial": "the reference oracle the "
        "supernodal forward sweep is tested against",
        "repro.numeric.trisolve.backward_simplicial": "the reference oracle the "
        "supernodal backward sweep is tested against",
        "repro.numeric.condest.condest": "the condition estimate that accuracy "
        "reporting (ROADMAP item 4) prints next to the residual",
        "repro.sparse.build.from_dense": "input constructor: how a user's own "
        "dense matrix gets in",
        "repro.sparse.build.from_dense(tol=)": "input constructor's drop tolerance; "
        "test_tolerance_drops_noise asserts its effect",
        "repro.sparse.build.from_scipy": "input constructor: how a user's own "
        "sparse matrix gets in",
        "repro.serve.clock.FakeClock": "the fake-clock harness that makes every "
        "flush decision reproducible in tests",
        "repro.serve.clock.FakeClock.advance": "the fake-clock harness",
        "repro.serve.service.SolveService.pump_until_idle": "the fake-clock harness",
        "repro.serve.service.SolveService(clock=)": "the fake-clock harness",
        "repro.serve.service.SolveService(idle_wait=)": "a coalescer flush knob; "
        "ROADMAP item 10 derives the flush policy from a measured curve",
        "repro.machine.spmd.Env.barrier": "the SPMD layer's collective; "
        "test_barrier_synchronises and test_barrier_skip_mismatch assert what "
        "run_spmd and lint_spmd do with it",
        "repro.machine.collectives.all_to_all_personalized_time(algorithm=)":
        "test-only: test_alltoall_hypercube asserts its effect",
        "repro.verify.comm.lint_spmd(max_steps=)": "test-only: "
        "test_step_limit_aborts_runaway_programs asserts its effect",
        "repro.ordering.nested_dissection.nested_dissection(leaf_size=)": "test-only: "
        "test_leaf_size_hands_small_graphs_to_minimum_degree asserts its effect",
        "repro.ordering.nested_dissection.nested_dissection(max_depth=)": "test-only: "
        "test_max_depth_limits_recursion asserts its effect",
        "repro.sparse.generators.anisotropic_laplacian(epsilon=)": "generator family "
        "parameter; test_anisotropic_weak_direction asserts its effect",
        "repro.sparse.generators.graded_mesh_2d(grading=)": "generator family "
        "parameter; test_graded_coords_skewed asserts its effect",
        "repro.sparse.generators.random_spd(density=)": "generator family "
        "parameter; test_density_controls_fill asserts its effect",
    }

    def _definitions(self):
        """``{key: (path, def node, kind, identifier)}`` for every public name.

        Keys: ``mod.func``, ``mod.Class``, ``mod.Class.method`` and
        ``mod.func(opt=)`` / ``mod.Class(opt=)`` / ``mod.Class.method(opt=)``;
        *kind* is the reference that uses it: ``name``, ``attr`` or ``keyword``.
        """
        out = {}
        for path in sorted((self.SRC / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            mod = ".".join(path.relative_to(self.SRC).with_suffix("").parts)
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                public = not node.name.startswith("_")
                if public:
                    out[f"{mod}.{node.name}"] = (path, node, "name", node.name)
                methods = [node] if isinstance(node, ast.FunctionDef) else [
                    fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                ]
                visitor = isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith("NodeVisitor") for base in node.bases
                )
                for fn in methods:
                    if fn is node or fn.name == "__init__":
                        owner = f"{mod}.{node.name}"
                    elif fn.name.startswith("_") or (visitor and fn.name.startswith("visit_")):
                        continue
                    else:
                        owner = f"{mod}.{node.name}.{fn.name}"
                        out[owner] = (path, fn, "attr", fn.name)
                    if public:
                        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                            if default is not None:  # a required one is no option
                                out[f"{owner}({arg.arg}=)"] = (path, fn, "keyword", arg.arg)
        return out

    def _references(self):
        """Per file: ``(kind, identifier, node)`` for every name, attribute and keyword."""
        refs = {}
        for root, top in ((self.SRC, "repro"), (self.ROOT, "benchmarks"), (self.ROOT, "examples")):
            for path in sorted((root / top).rglob("*.py")):
                if path.name == "__init__.py":
                    continue
                found = []
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name):
                        found.append(("name", node.id, node))
                    elif isinstance(node, ast.alias):
                        found.append(("name", node.name.rsplit(".", 1)[-1], node))
                    elif isinstance(node, ast.Attribute):
                        found.append(("attr", node.attr, node))
                    elif isinstance(node, ast.keyword) and node.arg:
                        found.append(("keyword", node.arg, node))
                refs[path] = found
        return refs

    def test_every_public_name_has_a_user_outside_the_tests(self):
        definitions = self._definitions()
        refs = self._references()
        used = set()
        for key, (home, node, kind, ident) in definitions.items():
            own = {id(n) for n in ast.walk(node)}
            for path, found in refs.items():
                if path == self.CORPUS and home != self.CORPUS:
                    continue
                if kind == "keyword" and path == home:
                    continue
                if any(k == kind and i == ident and id(n) not in own for k, i, n in found):
                    used.add(key)
                    break
        unused = sorted(set(definitions) - used - set(self.ALLOWED))
        assert not unused, (
            f"public names with no user outside tests/ (delete or allowlist): {unused}"
        )
        stale = sorted(k for k in self.ALLOWED if k in used or k not in definitions)
        assert not stale, f"allowlist entries that are used or gone: {stale}"


class TestDocReferences:
    """A document that quotes a deleted file keeps describing it."""

    ROOT = Path(__file__).resolve().parent.parent
    #: Backticked repo paths: under a source directory (globs allowed) or root JSON.
    REPO_PATH = re.compile(r"`((?:benchmarks|src|tests|examples)/[^`\s]*|\w+\.json)`")

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_quoted_repo_paths_exist(self, doc):
        paths = set(self.REPO_PATH.findall((self.ROOT / doc).read_text()))
        assert paths, f"{doc} quotes no repo paths — the pattern stopped matching"
        missing = sorted(p for p in paths if not any(self.ROOT.glob(p.rstrip("/"))))
        assert not missing, f"{doc} quotes paths that do not exist: {missing}"

    #: Backticked dotted names under the package: `repro.verify.schedule`,
    #: `repro.exec.plan_for`, also when a line break follows a dot.
    DOTTED = re.compile(r"`(repro(?:\.\s*\w+)+)")
    #: Backticked source files quoted relative to `src/` or `src/repro/`.
    SOURCE_FILE = re.compile(r"`((?:\w+/)+\w+\.py)`")

    @staticmethod
    def _resolves(dotted: str) -> bool:
        """Longest importable module prefix, then attributes for the rest."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            for attr in parts[cut:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        return False

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_quoted_modules_and_source_files_resolve(self, doc):
        text = (self.ROOT / doc).read_text()
        names = {re.sub(r"\s+", "", m) for m in self.DOTTED.findall(text)}
        files = set(self.SOURCE_FILE.findall(text))
        assert names and files, f"{doc}: the patterns stopped matching"
        unresolved = sorted(n for n in names if not self._resolves(n))
        bases = (self.ROOT, self.ROOT / "src", self.ROOT / "src" / "repro")
        unresolved += sorted(f for f in files if not any((b / f).exists() for b in bases))
        assert not unresolved, f"{doc} quotes modules/files that do not exist: {unresolved}"

"""Every module-level import in the package and in the tests is used by its
module, the layers below the compressor do not import it, importing a
module loads only the package modules it uses, and one function holds the
package's HTTP client."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxdistill

PACKAGE = Path(ctxdistill.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    TESTS.glob("*.py")
)


def _imported_names(module: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for stmt in module.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                names[alias.asname or alias.name] = stmt.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(module).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def _imported_modules(module: ast.Module) -> set[str]:
    """Every module an import statement anywhere in ``module`` may load."""
    found: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ctxdistill" if node.level else "", node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name", ["oracle.py", "dataset.py", "instance.py"])
def test_the_query_readers_do_not_import_the_compressor(name):
    """The query and the fault resolver live in ``instance``, so the oracle,
    the corpus and the instance layer need nothing of the compressor."""
    module = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert "ctxdistill.compressor" not in _imported_modules(module)


def _loaded_by(module: str, package: str = "ctxdistill") -> set[str]:
    """The modules of ``package`` a fresh interpreter holds after
    ``import module``."""
    code = f"import sys, {module}; print(*(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_the_package_root_imports_no_module():
    """The instance layer loads only what it reads: the package root
    re-exports nothing, so it pulls in no other module."""
    expected = {"ctxdistill", "ctxdistill.code_model", "ctxdistill.priority", "ctxdistill.instance"}
    assert _loaded_by("ctxdistill.instance") == expected


def test_the_compressor_loads_no_distillation_module():
    distill = {"oracle", "ga_search", "hdd", "dataset", "pipeline", "config", "cli"}
    assert not _loaded_by("ctxdistill.compressor") & {f"ctxdistill.{name}" for name in distill}


def test_ddmin_does_not_load_the_ga():
    assert "ctxdistill.ga_search" not in _loaded_by("ctxdistill.hdd")


def _imports_requests(node: ast.AST) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) and any(
        name.split(".")[0] == "requests" for name in _imported_modules(node)
    )


def test_one_function_imports_requests():
    """Both remote clients speak HTTP through ``priority.http_json``, which
    imports ``requests`` in its own body; no other statement imports it."""
    imports, homes = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        imports += sum(map(_imports_requests, ast.walk(module)))
        homes += [
            (path.name, node.name)
            for node in ast.walk(module)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_imports_requests, node.body))
        ]
    assert (imports, homes) == (1, [("priority.py", "http_json")])


def test_the_cli_starts_without_loading_requests():
    assert _loaded_by("ctxdistill.cli", "requests") == set()

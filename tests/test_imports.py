"""Every module-level import in the package and in the tests is used by its
module, and the layers below the compressor do not import it."""

import ast
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

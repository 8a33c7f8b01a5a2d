"""numpy stays the only runtime dependency: every module of the package
imports nothing but the standard library, numpy and the package itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vrm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vrm"}


def imported_modules(path):
    """(line, module) of each absolute import in the source file ``path``;
    a relative import is the package itself."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    outside = [f"{path.name}:{line} imports {module}" for path in sources
               for line, module in imported_modules(path)
               if module.partition(".")[0] not in ALLOWED]
    assert not outside, "; ".join(outside)

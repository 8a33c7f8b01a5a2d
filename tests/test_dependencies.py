"""numpy stays the only runtime dependency: every module of the package
imports nothing but the standard library, numpy and the package itself."""
import ast
import os
import subprocess
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


def names_imported_from(path, module):
    """(line, name) of each name the source file ``path`` imports from the
    package's ``module``, relatively or absolutely."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, module), (0, f"vrm.{module}")):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_training_imports_no_private_name_of_data():
    # an AugmentPlan's format stays behind data.py: training carries the
    # plan's arrays across the worker's pipe without reading them
    private = [f"training.py:{line} imports {name}" for line, name
               in names_imported_from(PACKAGE / "training.py", "data") if name.startswith("_")]
    assert not private, "; ".join(private)


def test_importing_the_cli_loads_no_process_pool_module():
    # a vrm run forks its one worker itself: importing multiprocessing alone
    # raises a process's peak resident memory by about 1 MiB
    code = ("import sys, vrm.cli; print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"

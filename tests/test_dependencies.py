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


# the functions that carry a teacher side's arrays between the worker and the loop
TRANSPORT = ("_pack_step", "_unpack", "_read_message", "_write_steps", "_drawn_ahead")


def test_the_workers_transport_names_nothing_of_data():
    # it moves arrays and knows nothing of the views some of them make
    path = PACKAGE / "training.py"
    from_data = {name for _, name in names_imported_from(path, "data")}
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(TRANSPORT) <= set(functions)
    named = [f"{name}:{node.lineno} names {node.id}" for name in TRANSPORT
             for node in ast.walk(functions[name])
             if isinstance(node, ast.Name) and node.id in from_data]
    assert not named, "; ".join(named)


def exp_calls(path):
    """Lines of the ``np.exp`` (or ``numpy.exp``) calls in the source file ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            yield node.lineno


def test_every_exp_call_is_in_autodiff():
    # the stabilized softmax is written once, in autodiff's array helpers
    sources = sorted(PACKAGE.glob("*.py"))
    assert list(exp_calls(PACKAGE / "autodiff.py"))
    outside = [f"{path.name}:{line}" for path in sources if path.name != "autodiff.py"
               for line in exp_calls(path)]
    assert not outside, "np.exp outside autodiff.py: " + "; ".join(outside)


def test_importing_the_cli_loads_no_process_pool_module():
    # a vrm run forks its one worker itself: importing multiprocessing alone
    # raises a process's peak resident memory by about 1 MiB
    code = ("import sys, vrm.cli; print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"

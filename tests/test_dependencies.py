"""The runtime needs numpy and the standard library only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_imports_are_stdlib_numpy_or_the_package():
    """Every import in the package, at module level or inside a function,
    names a standard-library module, numpy, or a module of the package
    itself by a relative import."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted((SRC / "uatrack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_cli_import_leaves_numpy_random_out():
    """Importing the command line does not import numpy.random: in a fresh
    process that import costs 0.4 MB of resident memory, so `embed` takes
    what it needs of it on first use (`embed._pcg64_seeds`)."""
    code = "import sys, uatrack.cli; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", "False"]

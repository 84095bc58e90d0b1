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


def _fresh(code: str) -> str:
    """What code prints in a fresh interpreter that imports the package
    from source."""
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_numpy_random_out():
    """Importing the command line does not import numpy.random: in a fresh
    process that import costs 0.4 MB of resident memory, and only network
    initialisation and triplet sampling need it."""
    code = "import sys, uatrack.cli; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    assert _fresh(code).split() == ["True", "False"]


CROP_SCENE = """
import sys
import numpy as np
from uatrack import embed
from uatrack.core import Box7, Detection, FrameRecord, PointCloud, Sequence

n = 8
box = Box7(0.0, 0.0, 0.0, 0.3, 4.0, 2.0, 1.5)
# a line of points through the box, 0.2 m apart; the last two lie outside
line = [[0.2 * k - 1.5, 0.0, 0.0] for k in range(16)] + [[9.0, 0.0, 0.0], [0.0, 9.0, 0.0]]
clouds = {"sparse": line[:3] + line[-2:], "full": line[:n] + line[-2:],
          "dense": line, "empty": line[-2:]}
dets = tuple(Detection(frame=0, box=box, score=1.0, cloud_ref=ref) for ref in clouds)
seq = Sequence(frames=(FrameRecord(index=0, detections=dets),),
               clouds={ref: PointCloud(np.array(pts)) for ref, pts in clouds.items()})
stack = embed.canonicalize(seq, dets, n)
print(np.diff(np.append(stack.starts, len(stack.points))).tolist(), "numpy.random" in sys.modules)
"""


def test_crop_draws_no_random_numbers():
    """Cropping a scene of sparse, full, dense and empty crops, built
    without numpy.random, leaves numpy.random unimported: a crop is a fixed
    function of its cloud, its box and n, and draws nothing."""
    assert _fresh(CROP_SCENE).split() == ["[3,", "8,", "8,", "1]", "False"]

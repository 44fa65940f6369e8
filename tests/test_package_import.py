"""What ``import repro`` loads.

Every CLI call and every spawned pool worker pays the package import, so
heavy optional SciPy modules must not come in with it.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_repro_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; assert 'scipy.stats' not in sys.modules, "
         "sorted(m for m in sys.modules if m.startswith('scipy.stats'))"],
        env=env, check=True)

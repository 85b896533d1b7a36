"""``import rhoperp`` loads no optimizer.

No rhoperp code calls scipy.optimize.  ``rhoperp.verify`` registers it
lazily, so that perfbench/tracer.py still finds it in sys.modules, and
scipy runs its code only on the first attribute read.  Each check runs in
a fresh interpreter, as the import state of this one depends on the order
of the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_import_loads_no_optimizer():
    _run("""
import sys
import rhoperp, rhoperp.cli
loaded = {"scipy.optimize._optimize", "scipy.spatial"} & set(sys.modules)
assert not loaded, loaded
# the lookups perfbench/tracer.py makes, in its order
sys.modules["scipy.optimize"].minimize_scalar
sys.modules["scipy.spatial"].ConvexHull
""")


def test_optimizer_imported_first_stays_the_real_module():
    _run("""
import sys, types
import scipy.optimize
real = sys.modules["scipy.optimize"]
import rhoperp
assert sys.modules["scipy.optimize"] is real and type(real) is types.ModuleType
""")

"""hatt runs on numpy alone: scipy and the other test dependencies are
never imported by the package, so a shortcut through one of them (say
scipy.linalg.lapack for the QR) fails here rather than on a bare install."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hatt

SRC = Path(hatt.__file__).resolve().parents[1]

# what `import hatt` adds to a fresh interpreter (site hooks run before it),
# as top-level names that are not in the standard library
PROBE = """
import json, sys
before = set(sys.modules)
import hatt
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_loads_no_third_party_module_but_numpy():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == ["hatt", "numpy"]

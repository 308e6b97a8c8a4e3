"""hatt runs on numpy alone: scipy and the other test dependencies are
never imported by the package, so a shortcut through one of them (say
scipy.linalg.lapack for the QR) fails here rather than on a bare install.
Every name a module of the package imports is also used in that module, so
a helper whose last use is deleted does not linger as an import."""

import ast
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


def unused_imports(path):
    """Names that the module at `path` imports and never reads; a line marked
    ``# noqa: F401`` (a deliberate re-export) is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    modules = sorted(p for p in (SRC / "hatt").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []

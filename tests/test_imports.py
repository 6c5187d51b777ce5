"""Every name a module imports is read somewhere in that module, and
every name its ``__all__`` exports is bound there.

An import nothing reads is dead code that still claims a dependency.  The
scan covers ``src/hubnet/`` and ``tests/``; ``__future__`` imports and the
package ``__init__.py``, whose imports exist to load the modules, are
exempt.  An export nothing binds is a stale name left behind by a
deletion: ``from module import *`` fails on it.  And ``import hubnet``
leaves the process-pool machinery to the ``compare`` runs that use it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "hubnet").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """``name (line N)`` for each imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def stale_exports(source: str) -> list[str]:
    """Each name the source's ``__all__`` lists but its top level never binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_the_scan_finds_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "from typing import Optional, Union\n"
              "import numpy as np\n"
              "x: Optional[int] = np.zeros(1)\n")
    assert unread_imports(source) == ["Union (line 4)", "os (line 3)"]


def test_no_module_or_test_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in MODULES + TESTS for name in unread_imports(path.read_text())]
    assert found == []


def test_the_scan_finds_stale_exports():
    source = ("from math import pi\n"
              "__all__ = ['pi', 'gone', 'f', 'C', 'X', 'Y', 'Z']\n"
              "X, Y = 1, 2\n"
              "Z: int = 3\n"
              "def f(): pass\n"
              "class C: pass\n")
    assert stale_exports(source) == ["gone"]


def test_every_exported_name_is_bound():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in MODULES for name in stale_exports(path.read_text())]
    assert found == []


def test_importing_the_package_loads_no_process_pool():
    """``workbench`` imports ``concurrent.futures`` (and with it
    ``multiprocessing``) only inside the functions that start a pool, so
    a fresh ``import hubnet`` does not pay for them."""
    code = ("import sys, hubnet; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"

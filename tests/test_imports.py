"""Every name a module imports is read somewhere in that module.

An import nothing reads is dead code that still claims a dependency.  The
scan covers ``src/hubnet/`` and ``tests/``; ``__future__`` imports and the
package ``__init__.py``, whose imports exist to load the modules, are
exempt.
"""

import ast
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

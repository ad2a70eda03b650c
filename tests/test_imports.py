"""Every import in src/stringalg/ is used by the module that makes it.

The package's __init__.py is its public API: its imports are exports, so
it is not checked.  A name read only through another module's alias is
listed in ALLOWED with its reader.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stringalg"

# perfbench/test_perfbench.py patches and calls verify.hom_basis
ALLOWED = {("verify", "hom_basis")}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .homalg import CoverData, Ext1Context\n"
        "def f(x: Ext1Context) -> int:\n"
        "    return np.int64(os.path.sep)\n"
    )
    assert unused_imports(source) == ["CoverData"]


def test_no_unused_imports_in_src():
    unused = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert unused - ALLOWED == set()
    # an allowed name that is read again leaves the list
    assert ALLOWED <= unused

"""Static checks of the package sources that need no external linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(path: Path) -> list:
    """(line, name) of each module-level import whose bound name the module
    never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
                      "x = np.zeros(1)\ny = loads\n", encoding="utf-8")
    assert unused_imports(module) == [(2, "os"), (4, "dumps")]


def test_no_unused_module_level_imports():
    # package __init__ modules import to re-export
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert found == []

"""Every import in a library module or a test module is used (the
package __init__ is a re-export list and is left out).  The library
modules checked are those of the imported package, wherever it was
imported from, and the test modules those beside this file."""
import ast
from pathlib import Path

import pytest

import dyadlab

SRC = Path(dyadlab.__file__).resolve().parent
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(Path(__file__).resolve().parent.glob("*.py")))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\n\ndef f(y: a):\n    return os\n"
    assert unused_imports(src) == [(3, "c")]

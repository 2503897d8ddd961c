"""Every import of a library module is used: the stand-in for a linter's unused-import rule."""

import ast
from pathlib import Path

import gptpurity

PACKAGE = Path(gptpurity.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no other line of it reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    planted = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
               "from .statespace import SpaceDescriptor, check_memory\n"
               "def f(x: SpaceDescriptor) -> float:\n    return np.sqrt(x)\n")
    assert unused_imports(planted) == ["line 2: math", "line 4: check_memory"]
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}

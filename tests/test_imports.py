"""Import hygiene: every import of a library module is used (the stand-in for a
linter's unused-import rule), and importing a module loads only what it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gptpurity

PACKAGE = Path(gptpurity.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
CHILD = PACKAGE.parents[1] / "perfbench" / "child.py"


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
    assert len(found) >= 11
    assert {name: names for name, names in found.items() if names} == {}


def _loaded_by(module: str) -> set[str]:
    """The ``gptpurity`` modules a fresh interpreter holds after ``import module``."""
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gptpurity'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(proc.stdout.split())


def _child_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple of the benchmark's child process, read without running it."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


def test_statespace_loads_only_the_package_and_its_errors():
    assert _loaded_by("gptpurity.statespace") == {
        "gptpurity", "gptpurity.errors", "gptpurity.statespace"}


def test_randomize_loads_neither_faces_nor_boxworld():
    loaded = _loaded_by("gptpurity.randomize")
    assert "gptpurity.randomize" in loaded
    assert not loaded & {"gptpurity.faces", "gptpurity.boxworld"}


def test_cli_loads_every_traced_layer():
    # The benchmark's tracer looks each layer up in sys.modules right after
    # ``import gptpurity.cli``; a lazy import in cli would break it.
    layers = _child_layers()
    assert "cli" in layers and len(layers) >= 8
    assert {f"gptpurity.{name}" for name in layers} <= _loaded_by("gptpurity.cli")

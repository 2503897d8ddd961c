"""Import hygiene: every import of a library or test module is used (the stand-in
for a linter's unused-import rule), importing a module loads only what it needs, and a
command runs only the layers it reads."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gptpurity

PACKAGE = Path(gptpurity.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
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
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in TEST_MODULES}
    assert len(found) >= 13 and "conftest.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_descriptors_and_pauli_maps_are_dataclasses():
    # SpaceDescriptor (frozen arrays, a cached basis) and PauliMap (a derived
    # frozen covector) are dataclasses; every other record is a NamedTuple.
    planted = "import numpy.linalg\nfrom dataclasses import dataclass\nfrom . import errors\n"
    assert imported_modules(planted) == {"numpy", "dataclasses"}
    found = {p.name for p in MODULES
             if "dataclasses" in imported_modules(p.read_text(encoding="utf-8"))}
    assert found == {"statespace.py", "purity.py"}


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}


def _loaded_by(module: str) -> set[str]:
    """The ``gptpurity`` modules a fresh interpreter holds after ``import module``."""
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gptpurity'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    return set(proc.stdout.split())


def _child_constant(name: str):
    """A literal module constant of the benchmark's child process, read without running it."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def _child_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple of the benchmark's child process."""
    return _child_constant("LAYERS")


def test_statespace_loads_only_the_package_and_its_errors():
    assert _loaded_by("gptpurity.statespace") == {
        "gptpurity", "gptpurity.errors", "gptpurity.statespace"}


def test_randomize_loads_neither_faces_nor_boxworld():
    loaded = _loaded_by("gptpurity.randomize")
    assert "gptpurity.randomize" in loaded
    assert not loaded & {"gptpurity.faces", "gptpurity.boxworld"}


def test_cli_loads_every_traced_layer():
    # The benchmark's tracer looks each layer up in sys.modules right after
    # ``import gptpurity.cli``.  cli registers every layer there, lazily: a
    # layer runs on its first attribute access, and the tracer's ``vars``
    # of it is one (``test_traced_child_sees_the_layers_it_runs``).
    layers = _child_layers()
    assert "cli" in layers and len(layers) >= 8
    assert {f"gptpurity.{name}" for name in layers} <= _loaded_by("gptpurity.cli")


# Standard-library modules that no level-count or face command needs.
_UNNEEDED = ("fractions", "dataclasses")


def _executed_by(argv: list[str]) -> set[str]:
    """The ``gptpurity`` layers a fresh interpreter has run after ``cli.main(argv)``,
    and those of ``_UNNEEDED`` it has imported.

    A lazily registered layer that never ran is still a ``_LazyModule``.
    """
    code = ("import contextlib, io, sys, types\n"
            "from gptpurity import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(n for n, m in sys.modules.items()\n"
            "              if n.startswith('gptpurity.') and type(m) is types.ModuleType))\n"
            f"print(*(n for n in {_UNNEEDED!r} if n in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    return {name.split(".", 1)[-1] for name in proc.stdout.split()}


@pytest.mark.parametrize("argv", [
    ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"],
    ["predict", "general", "--theory", "quantum", "--na", "8", "--nb", "8", "--p0", "1"],
    ["estimate", "--theory", "quantum", "--na", "2", "--nb", "8", "--p0", "1",
     "--samples", "100", "--seed", "1", "--histogram"],
    ["estimate", "--theory", "classical", "--na", "2", "--nb", "8", "--p0", "0.3",
     "--samples", "100", "--seed", "1"],
    ["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1",
     "--samples", "100", "--seed", "1"],
], ids=["predict-main", "predict-general", "estimate-quantum", "estimate-classical",
        "estimate-real-quantum"])
def test_level_count_commands_run_no_descriptor_layer(argv):
    # No descriptor, Gram, face, suite or boxworld layer runs: only the front
    # end and the estimators; verify's choices are read only by verify.
    assert _executed_by(argv) == {"cli", "errors", "randomize"}


@pytest.mark.parametrize("argv,checks", [
    (["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", "100", "--seed", "1"],
     False),
    (["estimate", "--face", "antisym", "--n", "4", "--trp", "0.3", "--samples", "100",
      "--seed", "1"], False),
    (["predict", "symm", "--n", "3", "--sign", "+", "--trp", "1"], False),
    (["predict", "qface", "--n", "4", "--sign", "-", "--trp", "0.3"], False),
    (["coin-record", "--s0", "4", "--samples", "100", "--seed", "1"], True),
], ids=["estimate-sym", "estimate-antisym", "predict-symm", "predict-qface", "coin-record"])
def test_face_commands_run_no_descriptor_layer(argv, checks):
    # A face holds level counts, so no composite, state space or group layer
    # runs; coin-record's verdict is a checks.Check.
    expected = {"cli", "errors", "randomize", "faces"} | ({"checks"} if checks else set())
    assert _executed_by(argv) == expected


@pytest.mark.parametrize("k", ["1", "2"])
def test_two_design_runs_no_descriptor_layer(k):
    # The Clifford group and its frame potential are plain unitary stacks, so
    # no state space runs; the verdict is a checks.Check.
    assert _executed_by(["two-design", "--k", k]) == {"cli", "errors", "checks", "grouprep"}


def test_verify_boxworld_runs_boxworld_and_the_module_entry_point_works():
    assert {"boxworld", "checks"} <= _executed_by(["verify", "boxworld"])
    proc = subprocess.run([sys.executable, "-m", "gptpurity.cli", "predict", "nonlocaltomo",
                           "--ma", "2", "--mb", "2", "--p0", "1"],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 2 / 3


@pytest.mark.parametrize("argv,layer", [
    (["estimate", "--theory", "quantum", "--na", "2", "--nb", "2", "--p0", "1",
      "--samples", "200", "--seed", "5"], "randomize"),
    (["verify", "boxworld"], "boxworld"),
], ids=["estimate", "verify"])
def test_traced_child_sees_the_layers_it_runs(argv, layer):
    # The benchmark's child process, run as it is, with tracing on.
    proc = subprocess.run([sys.executable, str(CHILD), repr(time.monotonic()), "1", "--", *argv],
                          capture_output=True, text=True, env=_env(), timeout=120,
                          cwd=CHILD.parents[1])
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    marker = _child_constant("META_MARKER")
    metas = [line for line in proc.stderr.splitlines() if line.startswith(marker)]
    assert len(metas) == 1
    trace = json.loads(metas[0][len(marker):])["trace"]
    assert any(name.startswith(f"{layer}.") for name in trace), sorted(trace)

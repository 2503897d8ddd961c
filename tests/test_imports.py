"""Import hygiene: every import of a library or test module is used (the stand-in
for a linter's unused-import rule), importing a module loads only what it needs, and a
command runs only the layers it reads."""

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import gptpurity
from gptpurity import cli, randomize
from reference import grouprep

PACKAGE = Path(gptpurity.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
# The test modules, and the float references of the exact suite layers.
REFERENCE_MODULES = sorted(TESTS.glob("reference/*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py")) + REFERENCE_MODULES
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


# numpy names that reach BLAS or LAPACK (or, for einsum, may).
_BLAS_NAMES = ("matmul", "dot", "vdot", "inner", "tensordot", "linalg", "einsum")


def blas_entry_points(source: str) -> list[str]:
    """Each ``@`` of ``source`` and each name, attribute or import in ``_BLAS_NAMES``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            found += [(node.lineno, part) for name in names for part in name.split(".")
                      if part in _BLAS_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


_CAP_CHECKS = ("check_memory", "check_work")


def cap_checks(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing def, check) of each call of ``source`` to a cap check, in order.

    A call by attribute (``errors.check_work``) counts, and one outside any
    def is charged to ``<module>``.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in _CAP_CHECKS:
                found.append((node.lineno, owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return [(owner, name) for _, owner, name in sorted(found)]


def test_only_the_driver_checks_a_draw_against_the_caps():
    planted = ("from . import errors\nfrom .errors import check_memory\n"
               "check_memory(1, 'x')\n"
               "def f(n):\n    def g():\n        errors.check_work(n, 'y')\n"
               "    check_memory(n, 'z')\n    return g\n")
    assert cap_checks(planted) == [("<module>", "check_memory"), ("g", "check_work"),
                                   ("f", "check_memory")]
    # A draw is priced in one place and one order: the per-sample arrays,
    # the first block's bytes, then the whole request's work.
    read = {name: cap_checks((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            for name in ("blocks", "faces", "randomize")}
    assert read == {"blocks": [], "faces": [], "randomize": [
        ("_estimate", "check_memory"), ("_estimate", "check_memory"), ("_estimate", "check_work")]}


def test_clifford_makes_no_blas_call():
    # The trace oracle of two-design is exact Gaussian-integer arithmetic: the
    # module imports no numpy, only the standard library and the package's errors.
    source = (Path(__file__).parent / "reference" / "clifford.py").read_text(encoding="utf-8")
    assert imported_modules(source) == {"__future__", "collections", "functools", "gptpurity",
                                        "math", "typing"}
    assert blas_entry_points(source) == []


@pytest.mark.parametrize("name,modules", [
    ("boxworld.py", {"__future__", "functools", "typing"}),
    ("checks.py", {"__future__", "math"}),
])
def test_boxworld_suite_makes_no_blas_call(name, modules):
    # Bipartite boxworld is exact rational arithmetic on signed permutations
    # (``grouprep`` maps with r = 2), and the suite registry reaches every
    # numpy layer through module aliases.
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert imported_modules(source) == modules
    assert blas_entry_points(source) == []


def test_conjugation_makes_no_blas_call():
    planted = ("import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import dot\n"
               "def f(a, b):\n    a @= b\n    return np.einsum('ij,jk', a @ b, a.T.dot(b))\n")
    assert blas_entry_points(planted) == [
        "line 2: linalg", "line 3: dot", "line 5: @", "line 6: @", "line 6: dot",
        "line 6: einsum"]
    source = "".join(inspect.getsource(f) for f in (
        grouprep.conjugation_matrix, grouprep.invariance_deviation, grouprep._product,
        grouprep._sum_of_products))
    assert "def _sum_of_products" in source
    assert blas_entry_points(source) == []


def test_invariant_form_elimination_makes_no_blas_call():
    source = "".join(inspect.getsource(f) for f in (
        grouprep.invariant_form_dimension, grouprep._invariance_system, grouprep._rank))
    assert "def _rank" in source
    assert blas_entry_points(source) == []


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
    # frozen covector) are dataclasses, and both are float references; every
    # other record is a NamedTuple.
    planted = "import numpy.linalg\nfrom dataclasses import dataclass\nfrom . import errors\n"
    assert imported_modules(planted) == {"numpy", "dataclasses"}
    found = {str(p.relative_to(p.parents[1])) for p in MODULES + REFERENCE_MODULES
             if "dataclasses" in imported_modules(p.read_text(encoding="utf-8"))}
    assert found == {"reference/statespace.py", "reference/purity.py"}


def compile_peak(source: str) -> int:
    """The peak memory that ``compile`` of ``source`` allocates, as ``tracemalloc`` traces it.

    Tracing that is already on (``-X tracemalloc``) is kept on, and the
    peak is counted from what it held before the compile.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compile(source, "<source>", "exec")
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


# The traced compile peak that no module of the package may reach.  Without
# written bytecode a command compiles every module it runs from source, and the
# largest compile's heap lies under the command's peak RSS.  The peak moves in
# steps of about 8 KiB (AST arena blocks) and by a few hundred bytes with the
# measuring process, so the budget is more than 16 KiB above the largest module
# (options, 683 KiB; formulas is 567 KiB since its probe became one fixed sum).
# Joined, randomize and its kernels peak at 969 KiB, and cli and options at 1.24 MiB.
COMPILE_BUDGET = 720 * 1024


def test_every_module_compiles_below_the_budget():
    def source(name):
        return (PACKAGE / f"{name}.py").read_text(encoding="utf-8")

    peaks = {path.stem: compile_peak(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {"blocks", "randomize", "options", "usage"} <= peaks.keys()
    assert {name: peak for name, peak in peaks.items() if peak >= COMPILE_BUDGET} == {}
    for first, second in (("randomize", "blocks"), ("options", "cli")):
        joined = source(first) + source(second).replace("from __future__ import annotations\n", "")
        assert compile_peak(joined) > COMPILE_BUDGET, (first, second)


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


def test_options_loads_no_layer():
    # The option table reads verify's SUITE choices from checks only when a
    # verify command line is parsed.
    assert _loaded_by("gptpurity.options") == {"gptpurity", "gptpurity.options"}


# Command lines without -h, the last a usage error, then one with -h, in one
# interpreter; after each it prints whether the help module is loaded.
_HELP_ON_DEMAND = """
import contextlib, io, sys
from gptpurity import cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv.split())
        except SystemExit:
            pass
    print("gptpurity.usage" in sys.modules)
"""


def test_no_command_without_help_loads_the_help_module():
    argvs = ["predict main --ka 4 --kb 4 --na 2 --nb 2 --p0 1",
             "estimate --theory quantum --na 2 --nb 2 --p0 1 --samples 100 --seed 1",
             "estimate --face sym --n 2 --trp 1 --samples 100 --seed 1",
             "coin-record --s0 4 --samples 100 --seed 1",
             "two-design --k 1",
             "verify classical-subsystem",
             "estimate --theory quantum --na 2",
             "verify -h"]
    proc = subprocess.run([sys.executable, "-c", _HELP_ON_DEMAND, *argvs], capture_output=True,
                          text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * (len(argvs) - 1) + ["True"]


def test_randomize_loads_neither_faces_nor_boxworld():
    # Nor any descriptor, Gram or purity layer: only its kernels and the
    # closed forms' checks.
    assert _loaded_by("gptpurity.randomize") == {
        "gptpurity", "gptpurity.blocks", "gptpurity.errors", "gptpurity.formulas",
        "gptpurity.randomize"}


def test_blocks_loads_only_the_package():
    # The kernels check no cap: ``randomize._estimate`` checks their counts.
    assert _loaded_by("gptpurity.blocks") == {"gptpurity", "gptpurity.blocks"}


def test_no_module_imports_the_haar_references():
    # The Haar samplers and the group-averaged Gram are test references:
    # no package module imports them, and cli registers no such layer.
    assert not (PACKAGE / "haar.py").exists()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                assert "haar" not in {p for n in names for p in n.split(".")}, path.name
    layers = ("errors", "cli", "options", "statespace", "grouprep", "composite", "purity",
              "boxworld", "formulas", "blocks", "randomize", "faces", "checks")
    assert _loaded_by("gptpurity.cli") == {"gptpurity", *(f"gptpurity.{n}" for n in layers)}


def test_cli_loads_every_traced_layer():
    # The benchmark's tracer looks each layer up in sys.modules right after
    # ``import gptpurity.cli``.  cli registers every layer there, lazily: a
    # layer runs on its first attribute access, and the tracer's ``vars``
    # of it is one (``test_traced_child_sees_the_layers_it_runs``).
    layers = _child_layers()
    assert "cli" in layers and len(layers) >= 8
    assert {f"gptpurity.{name}" for name in layers} <= _loaded_by("gptpurity.cli")


# Standard-library modules that no level-count or face command needs: the
# command line is read by cli's option table, with no argparse (whose help
# and messages load gettext, and gettext locale).
_UNNEEDED = ("fractions", "dataclasses", "argparse", "gettext", "locale")
# What no exact prediction needs: numpy and every one of its submodules.
_NUMPY = ("numpy",)
# The layers of an exact prediction.
_FORMULAS = {"cli", "errors", "options", "formulas"}


# SHA-256 of b"abc" (FIPS 180-2, appendix B.1).
_SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _executed_by(argv: list[str], unneeded: tuple[str, ...] = _UNNEEDED) -> set[str]:
    """The ``gptpurity`` layers a fresh interpreter has run after ``cli.main(argv)``,
    and the modules it has imported that are, or lie under, a name in ``unneeded``.

    A lazily registered layer that never ran is still a ``_LazyModule``, and
    a module blocked by a ``None`` entry in ``sys.modules`` is not imported.
    The same interpreter then checks that ``hashlib`` still gives the
    standard SHA-256 digest.
    """
    code = ("import contextlib, io, sys, types\n"
            "from gptpurity import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(n for n, m in sys.modules.items()\n"
            "              if n.startswith('gptpurity.') and type(m) is types.ModuleType))\n"
            f"print(*(n for n, m in sys.modules.items() if m is not None\n"
            f"        and any(n == u or n.startswith(u + '.') for u in {unneeded!r})))\n"
            "import hashlib\n"
            f"assert hashlib.sha256(b'abc').hexdigest() == {_SHA256_ABC!r}\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    return {name.removeprefix("gptpurity.") for name in proc.stdout.split()}


_PREDICT_MAIN = ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"]
_PREDICT_GENERAL = ["predict", "general", "--theory", "quantum", "--na", "8", "--nb", "8",
                    "--p0", "1"]
_PREDICT_SYMM = ["predict", "symm", "--n", "3", "--sign", "+", "--trp", "1"]
_PREDICT_QFACE = ["predict", "qface", "--n", "4", "--sign", "-", "--trp", "0.3"]


# The layers of an estimate of two parts: the estimators and their kernels.
_DRAWING = _FORMULAS | {"randomize", "blocks"}


@pytest.mark.parametrize("argv,layers", [
    (_PREDICT_MAIN, _FORMULAS),
    (_PREDICT_GENERAL, _FORMULAS),
    (["estimate", "--theory", "quantum", "--na", "2", "--nb", "8", "--p0", "1",
      "--samples", "100", "--seed", "1", "--histogram"], _DRAWING),
    (["estimate", "--theory", "classical", "--na", "2", "--nb", "8", "--p0", "0.3",
      "--samples", "100", "--seed", "1"], _DRAWING),
    (["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1",
      "--samples", "100", "--seed", "1"], _DRAWING),
], ids=["predict-main", "predict-general", "estimate-quantum", "estimate-classical",
        "estimate-real-quantum"])
def test_level_count_commands_run_no_descriptor_layer(argv, layers):
    # No descriptor, Gram, face, suite or boxworld layer runs: only the front
    # end, the closed forms and the estimators; verify's choices are read only
    # by verify.
    assert _executed_by(argv) == layers


@pytest.mark.parametrize("argv", [
    _PREDICT_MAIN,
    _PREDICT_GENERAL,
    ["predict", "power-law", "--r", "3", "--na", "2", "--nb", "2", "--p0", "1"],
    ["predict", "nonlocaltomo", "--ma", "2", "--mb", "2", "--p0", "1"],
    _PREDICT_SYMM,
    _PREDICT_QFACE,
], ids=["main", "general", "power-law", "nonlocaltomo", "symm", "qface"])
def test_exact_predictions_import_no_numpy(argv):
    assert _executed_by(argv, _UNNEEDED + _NUMPY) == _FORMULAS


_FACE_LAYERS = _DRAWING | {"faces"}


@pytest.mark.parametrize("argv,layers", [
    (["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", "100", "--seed", "1"],
     _FACE_LAYERS),
    (["estimate", "--face", "antisym", "--n", "4", "--trp", "0.3", "--samples", "100",
      "--seed", "1"], _FACE_LAYERS),
    (_PREDICT_SYMM, _FORMULAS),
    (_PREDICT_QFACE, _FORMULAS),
    (["coin-record", "--s0", "4", "--samples", "100", "--seed", "1"], _FACE_LAYERS),
], ids=["estimate-sym", "estimate-antisym", "predict-symm", "predict-qface", "coin-record"])
def test_face_commands_run_no_descriptor_layer(argv, layers):
    # A face holds level counts, so no composite, state space or group layer
    # runs; neither face prediction (the closed form and the index sums)
    # needs a face at all, and coin-record's verdict is an errors.Check, so
    # no suite runs.
    assert _executed_by(argv) == layers


# What a draw leaves in sys.modules of numpy.random: the helpers that its PCG64
# Generator and SeedSequence import.  The three extension modules that hold
# those types are dropped from it with the placeholder package, so that a later
# ``import numpy.random`` binds them on the package.
_PCG64_HELPERS = {"numpy.random._common", "numpy.random._bounded_integers"}
# What no draw needs: the package itself, the legacy RandomState, the other
# bit generators, their unpickling helpers, and secrets with what it loads.
_NOT_DRAWN = {"numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
              "numpy.random._philox", "numpy.random._sfc64", "numpy.random._pickle",
              "secrets", "hmac", "hashlib", "_hashlib"}


@pytest.mark.parametrize("argv", [
    ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2", "--p0", "1",
     "--samples", "100", "--seed", "1"],
    ["estimate", "--theory", "classical", "--na", "2", "--nb", "3", "--p0", "0.3",
     "--samples", "100", "--seed", "1"],
    ["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1",
     "--samples", "100", "--seed", "1"],
    ["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", "100", "--seed", "1"],
    ["coin-record", "--s0", "4", "--samples", "100", "--seed", "1"],
], ids=["estimate-quantum", "estimate-classical", "estimate-real-quantum", "estimate-sym",
        "coin-record"])
def test_drawing_commands_load_only_the_pcg64_generator(argv):
    # randomize.sample_rng imports three extension modules of numpy.random,
    # not the package, and gives bit_generator a placeholder secrets, so
    # neither secrets nor its hmac, hashlib and _hashlib (OpenSSL) is
    # loaded; hashlib still gives its digests afterwards (_executed_by checks).
    loaded = _executed_by(argv, ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib"))
    assert {n for n in loaded if n.startswith("numpy")} == _PCG64_HELPERS
    assert not loaded & _NOT_DRAWN


# After a draw in a fresh interpreter: secrets is the standard library's, and
# unseeded SeedSequences, whose entropy comes from the placeholder's randbits,
# still differ.
_SECRETS_AFTER_A_DRAW = """
import sys
from gptpurity import randomize as rnd
assert "secrets" not in sys.modules
rnd.sample_rng(1, 0).random()
assert "secrets" not in sys.modules
import secrets
assert secrets.__file__.endswith("secrets.py") and secrets.token_bytes(4) is not None
import numpy.random
assert numpy.random.bit_generator.randbits is rnd._randbits
entropies = {numpy.random.SeedSequence().entropy for _ in range(2)}
assert len(entropies) == 2 and all(0 < e < 2**128 for e in entropies), entropies
print("ok")
"""


def test_a_draw_leaves_secrets_and_unseeded_entropy_as_they_were():
    proc = subprocess.run([sys.executable, "-c", _SECRETS_AFTER_A_DRAW], capture_output=True,
                          text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


@pytest.mark.parametrize("k", [0, 1, 7, 8, 64, 128])
def test_placeholder_randbits_gives_at_most_k_bits(k):
    values = [randomize._randbits(k) for _ in range(64)]
    assert all(isinstance(v, int) and 0 <= v < 2**k for v in values)
    if k >= 7:
        # 64 draws of k random bits: a fixed value or a short top is 2^-63 likely.
        assert len(set(values)) > 1 and max(values).bit_length() == k


# The benchmark's exact-identities commands, seeded as it seeds them.
_EXACT_IDENTITIES = {
    "two-design-2": ["two-design", "--k", "2"],
    "two-design-1": ["two-design", "--k", "1"],
    "verify-pauli-identities": ["verify", "pauli-identities", "--samples", "10000",
                                "--seed", "3"],
    "verify-gram-invariance": ["verify", "gram-invariance", "--seed", "3"],
    "verify-classical-subsystem": ["verify", "classical-subsystem", "--seed", "3"],
    "verify-boxworld": ["verify", "boxworld", "--seed", "3"],
    "predict-nonlocaltomo": ["predict", "nonlocaltomo", "--ma", "3", "--mb", "3", "--p0", "1"],
    "predict-qface": _PREDICT_QFACE,
    "predict-main": _PREDICT_MAIN,
}


@pytest.mark.parametrize("argv", list(_EXACT_IDENTITIES.values()), ids=list(_EXACT_IDENTITIES))
def test_exact_identity_commands_load_no_numpy_random(argv):
    # Exact group sums, generators and fixed states: nothing is drawn, so
    # no module of numpy.random (2.7 MB of extension modules) is imported.
    assert not {n for n in _executed_by(argv, ("numpy.random",)) if n.startswith("numpy")}


@pytest.mark.parametrize("suite", ["pauli-identities", "gram-invariance", "classical-subsystem",
                                   "boxworld"])
def test_exact_suites_give_the_same_checks_for_any_seed(suite):
    # The whole report but its echoed configuration, byte for byte, under two
    # seeds and two sample counts.
    outs = []
    for seed, samples in (("0", "2"), ("4119606545", "10000")):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["verify", suite, "--seed", seed, "--samples", samples]) == 0
        doc = json.loads(out.getvalue())
        assert doc.pop("config")["seed"] == int(seed)
        outs.append(json.dumps(doc, sort_keys=True, indent=2).encode())
    assert outs[0] == outs[1]


# The exact-identities commands that read no group: two-design, pauli-identities,
# gram-invariance and boxworld take theirs from grouprep as monomial maps.
_NO_GROUP = ("verify-classical-subsystem", "predict-nonlocaltomo", "predict-qface",
             "predict-main")


@pytest.mark.parametrize("name", list(_EXACT_IDENTITIES))
def test_exact_identity_commands_run_no_haar_layer(name):
    # The Haar draws, the group-averaged Gram and the Clifford trace oracle are
    # test references that no command runs; a command that reads no group runs
    # no grouprep either.
    executed = _executed_by(_EXACT_IDENTITIES[name])
    assert not {"haar", "clifford"} & executed
    assert ("grouprep" in executed) == (name not in _NO_GROUP)


@pytest.mark.parametrize("k", ["1", "2"])
def test_two_design_runs_no_descriptor_layer(k):
    # The frame potential is grouprep's form count on the Clifford generators'
    # signed permutations, whose phases are +-1, so only grouprep runs: no exact
    # statespace, float descriptor, purity or suite layer, and neither numpy nor
    # fractions is imported; the verdict is an errors.Check.
    assert _executed_by(["two-design", "--k", k], _UNNEEDED + _NUMPY) == {
        "cli", "errors", "options", "grouprep"}


@pytest.mark.parametrize("suite,layers", [
    ("pauli-identities", {"statespace", "grouprep", "purity"}),
    ("gram-invariance", {"statespace", "grouprep"}),
    ("classical-subsystem", {"statespace", "composite"}),
    ("boxworld", {"statespace", "grouprep", "boxworld"}),
])
def test_exact_suites_run_only_their_exact_layers(suite, layers):
    # Exact coordinates, monomial maps and form counts over int coefficients:
    # neither numpy nor fractions nor dataclasses is imported, and no Haar,
    # face or estimator layer runs (boxworld only in its own suite).
    assert _executed_by(["verify", suite], _UNNEEDED + _NUMPY) == {"cli", "errors", "options",
                                                                   "checks", *layers}


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

"""Reach: every def in ``src/gptpurity`` serves a command or is a named test reference.

A fresh interpreter turns on ``sys.setprofile`` before ``import gptpurity.cli``
and runs ``ARGV`` in-process through ``cli.main``: every command and formula,
every ``verify`` suite, a histogram and a CSV estimate, ``coin-record --s0 1``
and two usage errors.  A def (methods and nested defs included) that no argv
calls fails the test, unless ``ALLOWLIST`` names the test that uses it as a
reference.  The same interpreter then runs the named tests under the profiler,
and an entry fails when its test does not call the def, when an argv does, or
when the def no longer exists.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from gptpurity import checks

PACKAGE = Path(checks.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

# Each argv with the exit code it must end in.
ARGV = [
    (["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"], 0),
    (["predict", "general", "--theory", "quantum", "--na", "2", "--nb", "3", "--p0", "0.5"], 0),
    (["predict", "power-law", "--r", "3", "--na", "2", "--nb", "2", "--p0", "1"], 0),
    (["predict", "nonlocaltomo", "--ma", "2", "--mb", "2", "--p0", "1"], 0),
    (["predict", "symm", "--n", "3", "--sign", "+", "--trp", "1"], 0),
    (["predict", "qface", "--n", "3", "--sign", "-", "--trp", "1"], 0),
    (["estimate", "--theory", "quantum", "--na", "2", "--nb", "3", "--p0", "1",
      "--samples", "50", "--seed", "1", "--histogram"], 0),
    (["estimate", "--theory", "classical", "--na", "2", "--nb", "3", "--p0", "0.3",
      "--samples", "50", "--seed", "1", "--histogram", "--format", "csv"], 0),
    (["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1",
      "--samples", "50", "--seed", "1"], 0),
    (["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", "50", "--seed", "1"], 0),
    (["estimate", "--face", "antisym", "--n", "3", "--trp", "1", "--samples", "50",
      "--seed", "1"], 0),
    (["verify", "pauli-identities", "--samples", "50"], 0),
    (["verify", "gram-invariance"], 0),
    (["verify", "classical-subsystem"], 0),
    (["verify", "markov-tail", "--samples", "50"], 0),
    (["verify", "boxworld"], 0),
    (["two-design", "--k", "1"], 0),
    (["two-design", "--k", "2"], 0),
    (["coin-record", "--s0", "1", "--samples", "50", "--seed", "1"], 0),
    (["coin-record", "--s0", "3", "--samples", "50", "--seed", "1"], 0),
    (["verify", "nosuch"], 1),
    (["estimate", "--theory", "quantum", "--seed", "1"], 1),
]

# Tests that several entries name.
_CRIT_06 = "tests/test_acceptance.py::test_criterion_06_purity_pure_times_maxmixed"
_CRIT_14 = "tests/test_acceptance.py::test_criterion_14_property_suite"
_SUPPORT_FACE = "tests/test_faces.py::test_classical_support_face_validates_support"
_PER_STATE = "tests/test_checks.py::test_batched_pauli_identities_match_the_per_state_route"
# Defs that no command runs, each with the test that uses it as a reference.
ALLOWLIST = {
    "boxworld.boxworld_purity": "tests/test_boxworld.py::test_pr_state_purity_is_exactly_one_third",
    "composite.CompositeDescriptor.kind": _SUPPORT_FACE,
    "composite.compose": _CRIT_14,
    "composite.marginal_a": "tests/test_composite.py::test_marginal_of_correlated_classical_pair",
    "composite._reference_pure": _CRIT_06,
    "composite.purity_pure_times_maxmixed": _CRIT_06,
    "faces.FaceDescriptor.comp": "tests/test_faces.py::test_face_ket_kernel_matches_explicit_route",
    "faces.FaceDescriptor.mu_face": "tests/test_faces.py::test_face_max_mixed_is_valid_state",
    "faces.subspace_face": "tests/test_faces.py::test_maximally_entangled_singleton_face_smoke",
    "faces.face_bloch_projector":
        "tests/test_faces.py::test_face_bloch_projector_fixes_in_face_traceless",
    "faces.classical_support_face": _SUPPORT_FACE,
    "faces.face_restricted_purity":
        "tests/test_faces.py::test_coin_with_record_prediction_equals_face_restricted_purity",
    "grouprep.GroupSampler.draw": _CRIT_14,
    "grouprep.sampler_for.draw_many":
        "tests/test_grouprep.py::test_large_permutation_sampler_draws_as_single_permutations",
    "grouprep.GramMatrix.matrix":
        "tests/test_grouprep.py::test_square_gram_is_euclidean_on_bloch_plane",
    "grouprep.check_irreducible": "tests/test_grouprep.py::test_check_irreducible_pentagon_exact",
    "grouprep._rank_one_deviation": _CRIT_06,
    "grouprep.invariant_gram": _CRIT_06,
    "purity.purity_from_tr2": "tests/test_randomize.py::test_qubit_oracle_consistency_triangle",
    "purity.tr2_from_purity":
        "tests/test_acceptance.py::test_criterion_12_real_quantum_nonlocal_tomography",
    "purity.fixed_purity_state": _CRIT_14,
    "purity.PauliMap.__call__": "tests/test_purity.py::test_classical_pauli_values_on_pure_state",
    "purity.pauli_from_direction": _PER_STATE,
    "purity.max_collision_probability": _PER_STATE,
    "randomize.predict_nonlocaltomo":
        "tests/test_randomize.py::test_predict_nonlocaltomo_reduces_to_general_when_tomographic",
    "randomize._conjugated_block": _CRIT_14,
    "statespace.SpaceDescriptor.unit": _CRIT_14,
    "statespace.SpaceDescriptor.bloch_projector": _CRIT_06,
    "statespace.SpaceDescriptor.cone_contains": _CRIT_14,
    "statespace.validate_state": _CRIT_14,
}

# argv[1]: the argv list, argv[2]: the test ids, argv[3]: the output path.  The
# profiler keeps the code object of every Python call; a test's calls are
# those made while pytest runs its body.
_CHILD = """
import contextlib, io, json, os, sys

class Recorder:
    def __init__(self):
        self.codes = set()

    def __call__(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

commands = Recorder()
sys.setprofile(commands)
from gptpurity import cli
exit_codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            exit_codes.append(cli.main(argv))
        except SystemExit as exc:
            exit_codes.append(exc.code)
sys.setprofile(None)

import pytest

class PerTest:
    def __init__(self):
        self.hits = {}

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        rec = Recorder()
        sys.setprofile(rec)
        try:
            yield
        finally:
            sys.setprofile(None)
        self.hits.setdefault(item.nodeid.split("[")[0], set()).update(rec.codes)

per_test = PerTest()
rc = pytest.main(["-q", "-p", "no:cacheprovider", *json.loads(sys.argv[2])], plugins=[per_test])
package = os.path.join(os.path.dirname(cli.__file__), "")

def keys(codes):
    return sorted({(c.co_filename[len(package):-3], c.co_firstlineno) for c in codes
                   if c.co_filename.startswith(package)})

with open(sys.argv[3], "w") as fh:
    json.dump({"exit_codes": exit_codes, "pytest": int(rc), "commands": keys(commands.codes),
               "tests": {t: keys(codes) for t, codes in per_test.hits.items()}}, fh)
"""


def defs_of(source: str, module: str) -> dict[str, frozenset]:
    """Every def of ``source`` by qualified name (``module.Class.method``,
    ``module.outer.inner``), with the (module, line) keys its code object may
    start on: the ``def`` line, or the first decorator's line of a decorated def."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if name in found:
                    raise ValueError(f"two defs named {name}")
                lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                found[name] = frozenset((module, line) for line in lines)
                walk(child, name)
            else:
                walk(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    walk(ast.parse(source), module)
    return found


def reach_failures(defs: dict[str, frozenset], commands: set, tests: dict[str, set],
                   allowlist: dict[str, str]) -> list[str]:
    """Each way ``defs`` break the reach rule, given the keys the commands ran
    and those each named test ran."""
    failures = [f"{name}: no command runs it" for name, keys in sorted(defs.items())
                if not keys & commands and name not in allowlist]
    for name, test in sorted(allowlist.items()):
        if name not in defs:
            failures.append(f"{name}: allowlisted, but no such def")
        elif defs[name] & commands:
            failures.append(f"{name}: allowlisted, but a command runs it")
        elif not defs[name] & tests.get(test, set()):
            failures.append(f"{name}: allowlisted for {test}, which does not run it")
    return failures


def test_reach_rule_fails_on_an_unrun_def_and_a_stale_allowlist_entry():
    planted = ("import functools\n"
               "def run():\n"
               "    def inner():\n"
               "        pass\n"
               "@functools.lru_cache\n"
               "@functools.wraps(run)\n"
               "def cached():\n"
               "    pass\n"
               "class C:\n"
               "    @property\n"
               "    def prop(self):\n"
               "        pass\n"
               "def unrun():\n"
               "    pass\n"
               "def reference():\n"
               "    pass\n")
    defs = defs_of(planted, "m")
    assert {name: sorted(line for _, line in keys) for name, keys in defs.items()} == {
        "m.run": [2], "m.run.inner": [3], "m.cached": [5, 7], "m.C.prop": [10, 11],
        "m.unrun": [13], "m.reference": [15]}
    # Decorated defs start on their first decorator's line.
    commands = {("m", 2), ("m", 3), ("m", 5), ("m", 10)}
    tests = {"t::ref": {("m", 15)}}
    assert reach_failures(defs, commands, tests, {"m.reference": "t::ref"}) == [
        "m.unrun: no command runs it"]
    stale = {"m.gone": "t::ref", "m.run": "t::ref", "m.reference": "t::other",
             "m.unrun": "t::ref"}
    assert reach_failures(defs, commands, tests, stale) == [
        "m.gone: allowlisted, but no such def",
        "m.reference: allowlisted for t::other, which does not run it",
        "m.run: allowlisted, but a command runs it",
        "m.unrun: allowlisted for t::ref, which does not run it"]


def test_every_def_serves_a_command_or_a_named_test(tmp_path):
    suites = {argv[1] for argv, code in ARGV if argv[0] == "verify" and code == 0}
    assert suites == set(checks.SUITES)
    out = tmp_path / "reach.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([argv for argv, _ in ARGV]),
         json.dumps(sorted(set(ALLOWLIST.values()))), str(out)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    got = json.loads(out.read_text(encoding="utf-8"))
    assert got["exit_codes"] == [code for _, code in ARGV]
    assert got["pytest"] == 0, proc.stdout[-3000:]
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(defs_of(path.read_text(encoding="utf-8"), path.stem))
    assert len(defs) > 100
    tests = {test: {tuple(k) for k in keys} for test, keys in got["tests"].items()}
    failures = reach_failures(defs, {tuple(k) for k in got["commands"]}, tests, ALLOWLIST)
    assert failures == [], "\n".join(failures)

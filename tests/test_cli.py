import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptpurity import checks, cli, errors
from reference import argparse_cli

DATA = Path(__file__).parent / "data"


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_predict_main_value(capsys):
    code, out = _run(capsys, ["predict", "main", "--ka", "4", "--kb", "4",
                              "--na", "2", "--nb", "2", "--p0", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.6, abs=1e-12)
    assert doc["formula_id"] == "main"
    assert doc["config"]["ka"] == 4


def test_predict_golden_file_freezes_schema(capsys):
    argv = ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    golden = (DATA / "golden_predict_main.json").read_text()
    assert out == golden

GOLDEN_ESTIMATES = json.loads((DATA / "golden_estimates.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN_ESTIMATES, ids=lambda e: " ".join(e["argv"]))
def test_monte_carlo_reports_match_golden_hashes(capsys, entry):
    # The exact stdout of whole reports, one line per list item: the
    # benchmark's mc-acceptance and large-composite commands at workload
    # seed 1, `verify markov-tail`, `coin-record --s0 1`, `verify boxworld`,
    # `verify pauli-identities`, `verify gram-invariance` and
    # `verify classical-subsystem`, exact over rational and cyclotomic
    # coordinates, `two-design --k 1` and `--k 2`, whose frame potential is an
    # integer count of the forms that signed permutations fix, and the
    # benchmark's `predict qface`, whose ingredient is the closed form (n - 2)/4.
    # A change of any Monte Carlo value, down to one ulp, shows here as a
    # diff of its field.
    code, out = _run(capsys, entry["argv"])
    assert code == 0
    assert out == "".join(entry["stdout"])


# numpy's x86-64-v2 SIMD dispatch and OpenBLAS's oldest x86-64 kernel: the two
# settings under which the golden reports once changed.  Both act only on the
# child that reads them.
DISPATCH_SETTINGS = {
    "numpy-x86-64-v2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}
_GOLDEN_CHILD = """
import contextlib, io, json, sys
from gptpurity import cli
outs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.parametrize("setting", sorted(DISPATCH_SETTINGS))
def test_golden_reports_do_not_depend_on_cpu_dispatch(setting):
    # Every golden argv in a fresh interpreter under the setting gives the
    # stored bytes.  OPENBLAS_CORETYPE selects a kernel only in an OpenBLAS
    # built with DYNAMIC_ARCH.
    if setting == "openblas-prescott" and not _dynamic_arch_openblas():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **DISPATCH_SETTINGS[setting],
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD, json.dumps([e["argv"] for e in GOLDEN_ESTIMATES])],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outs = json.loads(proc.stdout)
    for entry, out in zip(GOLDEN_ESTIMATES, outs, strict=True):
        assert out == "".join(entry["stdout"]), " ".join(entry["argv"])


# A fresh interpreter in which numpy.random's PCG64 module cannot be imported
# on its own, as if numpy's layout had changed: the finder refuses it unless
# the package itself (which has a __file__, unlike sample_rng's placeholder)
# is importing it.
_PACKAGE_ONLY_CHILD = """
import sys
class RefusePcg64:
    refused = 0
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "numpy.random._pcg64" and not hasattr(sys.modules.get("numpy.random"),
                                                         "__file__"):
            cls.refused += 1
            raise ImportError(name)
        return None
sys.meta_path.insert(0, RefusePcg64)
""" + _GOLDEN_CHILD + """
assert RefusePcg64.refused >= 1
assert sys.modules["numpy.random"].__file__.endswith("__init__.py")
"""


def test_golden_draws_fall_back_to_the_numpy_random_package():
    # sample_rng's narrow import fails, so it takes the package's types: the
    # drawing commands give the stored bytes, and no placeholder is left in
    # sys.modules (the real package is there instead).
    cases = [e for e in GOLDEN_ESTIMATES if e["argv"][0] in ("estimate", "coin-record")
             or e["argv"][:2] == ["verify", "markov-tail"]]
    assert len(cases) >= 5
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PACKAGE_ONLY_CHILD, json.dumps([e["argv"] for e in cases])],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for entry, out in zip(cases, json.loads(proc.stdout), strict=True):
        assert out == "".join(entry["stdout"]), " ".join(entry["argv"])


# A fresh interpreter in which any import of numpy raises.
_NUMPY_FREE_CHILD = 'import sys\nsys.modules["numpy"] = None\n' + _GOLDEN_CHILD


def _numpy_free_outputs(argvs):
    """The stdout of each argv, run in one fresh interpreter in which importing numpy raises."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_golden_predictions_run_without_numpy():
    # The golden exact predictions print their stored bytes without numpy.
    golden_main = (DATA / "golden_predict_main.json").read_text()
    cases = [(json.loads(golden_main)["config"]["argv"], golden_main)]
    cases += [(e["argv"], "".join(e["stdout"])) for e in GOLDEN_ESTIMATES
              if e["argv"][0] == "predict"]
    assert len(cases) == 4
    for (argv, stored), out in zip(cases, _numpy_free_outputs([a for a, _ in cases]), strict=True):
        assert out == stored, " ".join(argv)


def test_golden_exact_groups_run_without_numpy():
    # The Clifford frame potentials and the boxworld suite are exact integer
    # and rational arithmetic: they print their stored bytes without numpy.
    cases = [(e["argv"], "".join(e["stdout"])) for e in GOLDEN_ESTIMATES
             if e["argv"][0] == "two-design" or e["argv"] == ["verify", "boxworld"]]
    assert len(cases) == 3
    for (argv, stored), out in zip(cases, _numpy_free_outputs([a for a, _ in cases]), strict=True):
        assert out == stored, " ".join(argv)


def test_golden_exact_suites_run_without_numpy():
    # pauli-identities, gram-invariance and classical-subsystem hold their
    # spaces, groups and Grams exactly: they print their stored bytes, every
    # value and bound 0, without numpy.
    suites = ("pauli-identities", "gram-invariance", "classical-subsystem")
    cases = [(e["argv"], "".join(e["stdout"])) for e in GOLDEN_ESTIMATES
             if e["argv"][0] == "verify" and e["argv"][1] in suites]
    assert len(cases) == 3
    for (argv, stored), out in zip(cases, _numpy_free_outputs([a for a, _ in cases]), strict=True):
        assert out == stored, " ".join(argv)
        assert all(c["value"] == c["bound"] == 0.0 for c in json.loads(out)["checks"])


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2",
            "--p0", "1", "--samples", "300", "--seed", "42", "--histogram"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_report_roundtrips_and_carries_config(capsys):
    argv = ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2",
            "--p0", "1", "--samples", "400", "--seed", "42"]
    code, out = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["config"]["seed"] == 42
    assert doc["config"]["argv"] == argv
    assert set(doc["result"]) == {"mean", "stderr", "n_samples", "seed",
                                  "realized_global_purity"}
    assert abs(doc["result"]["mean"] - 0.6) <= 3 * doc["result"]["stderr"]
    assert doc["prediction"]["value"] == pytest.approx(0.6, abs=1e-10)


def test_estimate_two_qubit_pure_band(capsys):
    code, out = _run(capsys, ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2",
                              "--p0", "1", "--samples", "10000", "--seed", "42"])
    doc = json.loads(out)
    assert abs(doc["result"]["mean"] - 0.6) <= 3 * doc["result"]["stderr"]


def test_estimate_face_subcommand(capsys):
    code, out = _run(capsys, ["estimate", "--face", "antisym", "--n", "2",
                              "--trp", "1", "--samples", "100", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mean"] == pytest.approx(0.5, abs=1e-12)
    assert doc["prediction"]["value"] == 0.5


def test_estimate_real_quantum_subcommand(capsys):
    code, out = _run(capsys, ["estimate", "--theory", "real-quantum", "--ma", "2",
                              "--mb", "2", "--p0", "1", "--samples", "2000", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["mean"] - doc["prediction"]["value"]) <= (
        3 * doc["result"]["stderr"]
    )


def test_csv_histogram_output(capsys):
    argv = ["estimate", "--theory", "classical", "--na", "2", "--nb", "4", "--p0", "0.5",
            "--samples", "200", "--seed", "9", "--histogram", "--format", "csv"]
    code, out = _run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 101
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 200


def test_csv_without_histogram_is_usage_error(capsys):
    code = cli.main(["estimate", "--theory", "classical", "--na", "2", "--nb", "2",
                     "--p0", "1", "--samples", "50", "--seed", "1", "--format", "csv"])
    assert code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "main", "--bogus", "1"])
    assert exc.value.code == 1


def test_missing_required_option_exits_one(capsys):
    code = cli.main(["estimate", "--theory", "quantum", "--na", "2",
                     "--p0", "1", "--samples", "10", "--seed", "1"])
    assert code == 1


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["predict", "power-law", "--r", "3", "--na", "2", "--nb", "2",
                     "--p0", "1", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["value"] == pytest.approx(1 / 3, abs=1e-12)


def test_verify_boxworld_passes(capsys):
    code, out = _run(capsys, ["verify", "boxworld"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "pr-purity-one-third" in names


def test_verify_classical_subsystem_passes(capsys):
    code, out = _run(capsys, ["verify", "classical-subsystem"])
    assert code == 0


def test_verify_gram_invariance_passes(capsys):
    code, out = _run(capsys, ["verify", "gram-invariance"])
    assert code == 0


def test_two_design_cli(capsys):
    code, out = _run(capsys, ["two-design", "--k", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["frame_potential"] == 2.0
    assert doc["max_deviation"] == doc["bound"] == 0.0


def test_real_quantum_estimate_builds_the_pair_once(capsys, monkeypatch):
    # Each level-count estimate makes one prediction call, real quantum's too.
    from gptpurity import formulas

    calls = []
    predict = formulas.predict_general

    def counted(*args):
        calls.append(args)
        return predict(*args)

    monkeypatch.setattr(formulas, "predict_general", counted)
    for theory, a, b in (("quantum", "--na", "--nb"), ("classical", "--na", "--nb"),
                         ("real-quantum", "--ma", "--mb")):
        calls.clear()
        code, _ = _run(capsys, ["estimate", "--theory", theory, a, "2", b, "2",
                                "--p0", "1", "--samples", "200", "--seed", "3"])
        assert code == 0
        assert calls == [(theory, 2, 2, 1.0)]


def test_coin_record_cli(capsys):
    code, out = _run(capsys, ["coin-record", "--s0", "4", "--samples", "4000", "--seed", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["prediction"]["value"] == pytest.approx(1 / 7, abs=1e-12)
    assert doc["passed"] is True


def test_coin_record_with_one_string_passes_at_zero_stderr(capsys):
    # Every sample is the pure coin, so the band is the exact tolerance.
    code, out = _run(capsys, ["coin-record", "--s0", "1", "--samples", "50", "--seed", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["result"]["stderr"] == 0.0 and doc["result"]["mean"] == 1.0


def test_coin_record_band_holds_when_few_samples_coincide():
    # Two samples of s0 = 2 often coincide (sample stderr 0); the band is the
    # exact sigma / sqrt(n), so no such run may fail.
    for seed in range(300):
        with redirect_stdout(io.StringIO()):
            code = cli.main(["coin-record", "--s0", "2", "--samples", "2", "--seed", str(seed)])
        assert code == 0, seed


def test_failed_verification_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(checks.SUITES, "boxworld",
                        lambda seed, samples: [errors.Check("forced", 1.0, 0.0)])
    code = cli.main(["verify", "boxworld"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def _run_module(argv, code=None):
    """Run ``python -m gptpurity.cli argv`` (or ``python -c code argv``) in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    head = ["-m", "gptpurity.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def test_verify_usage_lists_the_suites_of_the_registry():
    # checks.SUITES is the one list of suite names; the parser reads it only
    # when a verify command is parsed.
    proc = _run_module(["verify", "no-such-suite"])
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert all(repr(name) in lines[0] for name in checks.SUITES)
    proc = _run_module(["verify", "-h"])
    assert proc.returncode == 0, proc.stderr
    assert len(checks.SUITES) == 5
    assert all(name in proc.stdout for name in checks.SUITES)


_TOKENS = re.compile(r"[\s{},]+")


@pytest.mark.parametrize("argv,words", [
    (["-h"], ["predict", "estimate", "verify", "two-design", "coin-record", "--help"]),
    (["predict", "-h"], ["main", "general", "power-law", "nonlocaltomo", "symm", "qface"]),
    (["predict", "main", "-h"], ["--ka", "--kb", "--na", "--nb", "--p0", "--out", "--format",
                                 "json", "csv", "--help"]),
    (["estimate", "-h"], ["--theory", "quantum", "classical", "real-quantum", "--face", "sym",
                          "antisym", "--na", "--nb", "--ma", "--mb", "--n", "--p0", "--trp",
                          "--samples", "--seed", "--histogram", "--out", "--format", "json",
                          "csv"]),
    (["two-design", "-h"], ["--k", "1", "2", "--out", "--format", "json", "csv"]),
    (["coin-record", "-h"], ["--s0", "--samples", "--seed", "--out", "--format", "json", "csv"]),
], ids=["top", "predict", "predict-main", "estimate", "two-design", "coin-record"])
def test_help_lists_every_word_of_its_level(argv, words):
    proc = _run_module(argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: gptpurity")
    assert set(words) <= set(_TOKENS.split(proc.stdout)), proc.stdout


# Registered before cli's exit hook, so it runs after it: atexit is last in, first out.
_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"freeze count at exit: {gc.get_freeze_count()}\\n"))
from gptpurity import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"],
    ["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", "100", "--seed", "1"],
], ids=["predict", "estimate-face"])
def test_exit_hook_freezes_the_collector_before_the_final_sweeps(argv):
    proc = _run_module(argv, code=_EXIT_PROBE)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("freeze count at exit: ")
    assert int(last.rsplit(" ", 1)[1]) > 0


def test_in_process_main_leaves_the_collector_alone(capsys):
    # Freezing inside main would keep every call's garbage cycles for good.
    assert gc.get_freeze_count() == 0
    code, _ = _run(capsys, ["estimate", "--face", "sym", "--n", "2", "--trp", "1",
                            "--samples", "100", "--seed", "1"])
    assert code == 0
    assert gc.get_freeze_count() == 0


def test_out_file_holds_the_whole_report_once_the_process_has_ended(tmp_path):
    argv = ["estimate", "--theory", "quantum", "--na", "2", "--nb", "8", "--p0", "1",
            "--samples", "2000", "--seed", "7", "--histogram"]
    path = tmp_path / "report.json"
    to_stdout = _run_module(argv)
    to_file = _run_module(argv + ["--out", str(path)])
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == "" and to_file.stderr == ""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    # The reports differ only in the echoed argv.
    assert text == to_stdout.stdout.replace(
        '"--histogram"\n', f'"--histogram",\n      "--out",\n      {json.dumps(str(path))}\n')


_EST = ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2", "--p0", "1"]
# One estimate per target with options that the target does not read, and those options.
_STRAY = [
    (_EST + ["--n", "5", "--trp", "0.3", "--ma", "7", "--samples", "4", "--seed", "0"],
     ["--ma", "--n", "--trp"]),
    (["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1", "--nb", "3",
      "--seed", "1"], ["--nb"]),
    (["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--p0", "1", "--na", "2",
      "--seed", "1"], ["--na", "--p0"]),
]
# Integers past Python's 4300-digit string limit once squared (D) and on their own (H).
_D, _H = "9" * 2200, "9" * 4299


@pytest.mark.parametrize("argv", [
    _EST + ["--samples", "1", "--seed", "3"],
    _EST + ["--samples", "0", "--seed", "3"],
    _EST + ["--samples", "-5", "--seed", "3"],
    _EST + ["--samples", "100", "--seed", "-1"],
    ["coin-record", "--s0", "4", "--samples", "1", "--seed", "3"],
    ["verify", "pauli-identities", "--samples", "1"],
    ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1",
     "--out", "{missing}/report.json"],
    ["verify", "pauli-identities", "--seed", "-1"],
    ["verify", "gram-invariance", "--seed", "-1"],
    ["predict", "symm", "--n", "3", "--sign", "+", "--trp", "nan"],
    ["predict", "symm", "--n", "3", "--sign", "+", "--trp", "inf"],
    ["predict", "symm", "--n", "3", "--sign", "+", "--trp", "5"],
    ["estimate", "--face", "sym", "--n", "3", "--trp", "nan", "--seed", "1"],
    ["estimate", "--face", "sym", "--n", "3", "--trp=-inf", "--seed", "1"],
    ["verify", "boxworld", "--seed", "-1"],
    ["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "0", "--p0", "1", "--seed", "1"],
    ["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "-1", "--p0", "1", "--seed", "1"],
    ["predict", "general", "--theory", "quantum", "--na", _D, "--nb", "2", "--p0", "1"],
    ["predict", "qface", "--n", _D, "--sign", "+", "--trp", "1"],
    ["predict", "qface", "--n", str(2**63), "--sign", "+", "--trp", "1"],
    ["predict", "nonlocaltomo", "--ma", _D, "--mb", "2", "--p0", "1"],
    ["coin-record", "--s0", _H, "--seed", "1"],
    ["estimate", "--theory", "classical", "--na", _H, "--nb", "2", "--p0", "0.3", "--seed", "0"],
    ["predict", "symm", "--n", _H, "--sign", "+", "--trp", "1"],
    ["predict", "power-law", "--r", "3", "--na", _D, "--nb", "2", "--p0", "1"],
    _EST,
    ["predict", "main", "--ka", "x", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"],
    ["verify", "no-such-suite"],
    ["no-such-command"],
    ["two-design", "--k", "3"],
    ["coin-record", "--s0", "4", "--seed"],
    *(argv for argv, _ in _STRAY),
])
def test_bad_input_exits_one_with_one_line(argv, tmp_path):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "gptpurity.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("n", [10**9, 2**63 - 1])
def test_predict_qface_answers_every_count_that_symm_answers(n, capsys):
    # The ingredient is a closed form, so qface needs no work cap and refuses
    # only the counts of 2^63 or more that every command refuses.
    values = []
    for formula in ("qface", "symm"):
        code, out = _run(capsys, ["predict", formula, "--n", str(n), "--sign", "+", "--trp", "1"])
        assert code == 0
        values.append(json.loads(out, parse_constant=_reject_constant)["value"])
    assert abs(values[0] - values[1]) <= 1e-15 * values[1]


@pytest.mark.parametrize("argv,bound", [
    (["predict", "qface", "--n", "2", "--sign", "-", "--trp", "0.3"], "[1/1, 1]"),
    (["predict", "qface", "--n", "3", "--sign", "+", "--trp", "1.5"], "[1/6, 1]"),
    (["predict", "symm", "--n", "2", "--sign", "-", "--trp", "0.3"], "[1/1, 1]"),
    (["predict", "symm", "--n", "4", "--sign", "-", "--trp", "0.125"], "[1/6, 1]"),
    (["estimate", "--face", "antisym", "--n", "2", "--trp", "0.3", "--seed", "1"], "[1/1, 1]"),
    (["estimate", "--face", "sym", "--n", "3", "--trp", "0.125", "--seed", "1"], "[1/6, 1]"),
], ids=["qface-antisym-2", "qface-sym-3", "symm-antisym-2", "symm-antisym-4",
        "estimate-antisym-2", "estimate-sym-3"])
def test_face_purity_out_of_range_names_the_value_and_the_bound(argv, bound, capsys):
    # One rule, Tr rho^2 in [1/N_S, 1], refused with one message by every face command.
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert f"got {argv[argv.index('--trp') + 1]}" in lines[0] and bound in lines[0]


@pytest.mark.parametrize("argv,stray", _STRAY, ids=["quantum", "real-quantum", "face"])
def test_estimate_refuses_the_options_its_target_does_not_read(argv, stray, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.strip().splitlines()
    assert line.endswith(" does not read " + ", ".join(stray)), line


# -- generated argument vectors ---------------------------------------------------------

# Sizes stay small: every draw runs in-process, and a classical part is
# refused only beyond 10^7 outcomes.
_DIM = st.integers(-1, 4)
_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0, 0.3, 1.0, 1.5, 7.0]),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SAMPLES = st.integers(-1, 64)
_SEED = st.integers(-1, 2**32)
_OPTIONS = {
    ("predict", "main"): {"ka": _DIM, "kb": _DIM, "na": _DIM, "nb": _DIM, "p0": _FLOAT},
    ("predict", "general"): {"theory": st.sampled_from(["quantum", "classical"]),
                             "na": _DIM, "nb": _DIM, "p0": _FLOAT},
    ("predict", "power-law"): {"r": _DIM, "na": _DIM, "nb": _DIM, "p0": _FLOAT},
    ("predict", "nonlocaltomo"): {"ma": _DIM, "mb": _DIM, "p0": _FLOAT},
    ("predict", "symm"): {"n": _DIM, "sign": st.sampled_from("+-"), "trp": _FLOAT},
    ("predict", "qface"): {"n": _DIM, "sign": st.sampled_from("+-"), "trp": _FLOAT},
    ("estimate", "--theory=quantum"): {"na": _DIM, "nb": _DIM, "p0": _FLOAT},
    ("estimate", "--theory=classical"): {"na": _DIM, "nb": _DIM, "p0": _FLOAT},
    ("estimate", "--theory=real-quantum"): {"ma": _DIM, "mb": _DIM, "p0": _FLOAT},
    ("estimate", "--face=sym"): {"n": _DIM, "trp": _FLOAT},
    ("estimate", "--face=antisym"): {"n": _DIM, "trp": _FLOAT},
    ("coin-record",): {"s0": _DIM},
    ("two-design",): {"k": st.integers(0, 3)},
    **{("verify", suite): {} for suite in checks.SUITES},
}


@st.composite
def _argv(draw):
    head = draw(st.sampled_from(sorted(_OPTIONS)))
    options = dict(_OPTIONS[head])
    if head[0] not in ("predict", "two-design"):
        options.update(samples=_SAMPLES, seed=_SEED)
    argv = list(head)
    for name, values in options.items():
        value = draw(values)
        text = repr(value) if isinstance(value, float) else str(value)
        # Both spellings; a value that begins with a dash is always written
        # --name=value, which argparse read too.
        if text.startswith("-") or draw(st.booleans()):
            argv.append(f"--{name}={text}")
        else:
            argv += [f"--{name}", text]
    if head[0] == "estimate" and draw(st.booleans()):
        argv.append("--histogram")
    if draw(st.booleans()):
        argv.append("--format=csv")
    out = draw(st.sampled_from([None, "{tmp}/report", "{tmp}/missing/report"]))
    if out is not None:
        argv.append(f"--out={out}")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_generated_argv_ends_in_strict_json_or_exit_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        path = next((Path(a.split("=", 1)[1]) for a in argv if a.startswith("--out=")), None)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        if path is not None and path.parent.name == "missing":
            assert code == 1, argv
        if code == 1:
            assert out.getvalue() == "", argv
            assert err.getvalue(), argv
            assert path is None or not path.exists(), argv
            return
        if path is None:
            text = out.getvalue()
        else:
            assert out.getvalue() == "", argv
            text = path.read_text(encoding="utf-8")
    if "--format=csv" not in argv:
        json.loads(text, parse_constant=_reject_constant)
        return
    header, *rows = text.splitlines()
    assert header == "bin_lo,bin_hi,count", argv
    assert rows, argv
    for row in rows:
        lo, hi, count = row.split(",")
        assert math.isfinite(float(lo)) and math.isfinite(float(hi)) and int(count) >= 0, argv


# -- the option table against argparse ----------------------------------------------------

# Every option of every command, the words that lead to it, and the texts a
# generated value is drawn from: valid and invalid ones, over-long ints (_D,
# _H and one past Python's 4300-digit limit), and values that begin with a dash.
_INT_TEXTS = ["0", "1", "2", "3", "01", "-1", "-5", "x", "1.5", " 4", "1_0", "",
              _D, _H, "9" * 4301]
_FLOAT_TEXTS = ["0", "0.5", "1", "-0.5", ".5", "-.5", "1e-3", "-1e-3", "nan", "inf", "-inf", "x"]
_VALUE_TEXTS = {
    **dict.fromkeys(["ka", "kb", "na", "nb", "ma", "mb", "n", "r", "s0", "samples", "seed", "k"],
                    _INT_TEXTS),
    **dict.fromkeys(["p0", "trp"], _FLOAT_TEXTS),
    "theory": ["quantum", "classical", "real-quantum", "bogus"],
    "face": ["sym", "antisym", "bogus"],
    "sign": ["+", "-", "0"],
    "format": ["json", "csv", "xml"],
    "out": ["report.json", "-", "-o", "a b"],
    "bogus": ["1"],
}
# Each command or formula, with a valid value of each option it needs, and its other options.
_LEAVES = {
    ("predict", "main"): ({"ka": "4", "kb": "4", "na": "2", "nb": "2", "p0": "1"}, ""),
    ("predict", "general"): ({"theory": "quantum", "na": "2", "nb": "3", "p0": "0.5"}, ""),
    ("predict", "power-law"): ({"r": "3", "na": "2", "nb": "2", "p0": "1"}, ""),
    ("predict", "nonlocaltomo"): ({"ma": "2", "mb": "2", "p0": "1"}, ""),
    ("predict", "symm"): ({"n": "3", "sign": "+", "trp": "1"}, ""),
    ("predict", "qface"): ({"n": "3", "sign": "-", "trp": "1"}, ""),
    ("estimate",): ({"theory": "quantum", "na": "2", "nb": "2", "p0": "1", "seed": "1"},
                    "face ma mb n trp samples histogram"),
    ("verify",): ({}, "seed samples"),
    ("two-design",): ({"k": "2"}, ""),
    ("coin-record",): ({"s0": "2", "seed": "1"}, "samples"),
}
_EXTRAS = ["-h", "--help", "--he", "--h", "-x", "stray", "--"]


@st.composite
def _table_argv(draw):
    """A generated command line, and the same one with every value written
    apart written ``--name=value``."""
    path = draw(st.sampled_from(sorted(_LEAVES)))
    needed, others = _LEAVES[path]
    names = [*needed, *others.split(), "out", "format", "bogus", "histogram", "na"]
    # Most needed options, with a valid value or not, then any options, in any order.
    options = [(name, text) for name, text in needed.items() if draw(st.integers(0, 9))]
    options += [(draw(st.sampled_from(names)), None) for _ in range(draw(st.integers(0, 4)))]
    groups, joined = [], []
    for name, text in draw(st.permutations(options)):
        # The whole name or any prefix: unique, ambiguous or naming another option.
        spelled = "--" + name[:draw(st.integers(1, len(name)))] if draw(
            st.integers(0, 2)) == 0 else "--" + name
        if name == "histogram":
            item = draw(st.sampled_from([spelled, spelled + "=1"]))
            groups.append([item])
            joined.append([item])
            continue
        if text is None or draw(st.integers(0, 3)) == 0:
            text = draw(st.sampled_from(_VALUE_TEXTS[name]))
        groups.append([f"{spelled}={text}"] if draw(st.booleans()) else [spelled, text])
        joined.append([f"{spelled}={text}"])
    extras = []
    if path == ("verify",):
        extras = [draw(st.sampled_from(sorted(checks.SUITES)))] if draw(st.integers(0, 9)) else []
        extras += draw(st.lists(st.sampled_from([*checks.SUITES, "no-such-suite", "--"]),
                                max_size=2))
    if draw(st.integers(0, 4)) == 0:
        extras.append(draw(st.sampled_from(_EXTRAS)))
    for extra in extras:
        at = draw(st.integers(0, len(groups)))
        groups.insert(at, [extra])
        joined.insert(at, [extra])
    head = list(path)
    if draw(st.integers(0, 19)) == 0:
        # A missing or unknown word, or help before the words end.
        head = draw(st.sampled_from([head[:-1], head[:-1] + ["nosuch"], head[:-1] + ["-h"],
                                     ["--he"] + head]))
    return [head + sum(groups, []), head + sum(joined, [])]


def _outcome(parse, argv):
    """("ok", the repr of each value of the namespace), (0, None) for help, or (1, the
    text after ``error: ``), with its output checked; a repr tells 1 from 1.0 and True,
    and nan equals nan.  argparse names each subcommand in its prefix, the table does not."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return "ok", {k: repr(v) for k, v in vars(parse(argv)).items()}
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("usage: "), argv
        return 0, None
    assert code == 1 and out.getvalue() == "", argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, argv
    return 1, lines[0].split(": error: ", 1)[1]


def _argparse(argv):
    return argparse_cli.build_parser().parse_args(argv)


@settings(max_examples=1500, deadline=None)
@given(argvs=_table_argv())
def test_table_parser_reads_argv_as_argparse_did(argvs):
    _check_like_argparse(*argvs)


@pytest.mark.parametrize("argv,joined", [
    # Values written apart that begin with a dash.
    (["predict", "symm", "--n", "3", "--sign", "+", "--trp", "-inf"],
     ["predict", "symm", "--n=3", "--sign=+", "--trp=-inf"]),
    (["verify", "boxworld", "--out", "-o"], ["verify", "boxworld", "--out=-o"]),
    # Both targets of an estimate; "--" next to SUITE or not; negative
    # numbers and items with a space, which argparse read as positionals;
    # help after an error that argparse found first, or before one it did not.
    *([argv, argv] for argv in [
        ["estimate", "--theory", "quantum", "--face=sym", "--na=2", "--nb=2", "--p0=1",
         "--seed=1"],
        ["verify", "boxworld", "--"], ["verify", "--", "boxworld"], ["verify", "--", "--seed=1"],
        ["verify", "boxworld", "--seed=1", "--"], ["verify", "-5", "-h"], ["verify", "-.5", "-h"],
        ["verify", "-1.5.1", "-h"], ["verify", "--x y", "-h"], ["--s0= 4", "--h"],
        ["predict", "main", "-h", "--n=3"], ["predict", "main", "--bogus", "-h"],
        ["predict", "main", "--help=1"], ["-hx", "predict"], ["two-design", "-h=1"],
        # An option that takes a value, last and without one.
        ["coin-record", "--s0", "4", "--seed"]]),
])
def test_table_parser_reads_edge_cases_as_argparse_did(argv, joined):
    _check_like_argparse(argv, joined)


def _check_like_argparse(argv, joined):
    # The same namespace, or both refuse with the same message, or both print
    # help.  The one difference: a value written apart that begins with a
    # dash, which argparse took for an option and refused; the table reads it
    # as the value, as argparse read it written --name=value.
    got = _outcome(cli.parse_args, argv)
    want = _outcome(_argparse, argv)
    if got != want:
        assert want[0] == 1, (argv, got, want)
        assert any(a.startswith("--") and "=" not in a and b.startswith("-")
                   for a, b in zip(argv, argv[1:])), (argv, got, want)
        # Refusals are compared by outcome alone: one may echo items as
        # written apart, the other as written joined.
        joined_outcome = _outcome(_argparse, joined)
        assert got == joined_outcome or got[0] == joined_outcome[0] == 1, (argv, got, want)


_SUITES = "'pauli-identities', 'gram-invariance', 'classical-subsystem', 'markov-tail', 'boxworld'"


@pytest.mark.parametrize("argv,line", [
    (["estimate", "--h"], "ambiguous option: --h could match --help, --histogram"),
    (["coin-record", "--s0", "4", "--seed"], "argument --seed: expected one argument"),
    (["two-design", "--h=1"], "argument -h/--help: ignored explicit argument '1'"),
    (["two-design", "-h=1"], "argument -h/--help: ignored explicit argument '1'"),
    (["estimate", "--histogram=1"], "argument --histogram: ignored explicit argument '1'"),
    (["estimate", "--theory", "quantum", "--face", "sym"],
     "argument --face: not allowed with argument --theory"),
    (["two-design", "--k", "3"], "argument --k: invalid choice: 3 (choose from 1, 2)"),
    # argparse converts a value before it refuses the other target.
    (["estimate", "--theory", "quantum", "--face", "bogus"],
     "argument --face: invalid choice: 'bogus' (choose from 'sym', 'antisym')"),
    (["verify", "no-such-suite"],
     f"argument SUITE: invalid choice: 'no-such-suite' (choose from {_SUITES})"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from "
                          "'predict', 'estimate', 'verify', 'two-design', 'coin-record')"),
    (["predict", "main", "--ka", "x"], "argument --ka: invalid int value: 'x'"),
    (["predict", "symm", "--trp", "x"], "argument --trp: invalid float value: 'x'"),
    ([], "the following arguments are required: command"),
    (["predict"], "the following arguments are required: formula"),
    (["predict", "symm", "--n", "3"], "the following arguments are required: --sign, --trp"),
    (["estimate", "--seed", "1"], "one of the arguments --theory --face is required"),
    (["two-design", "stray", "-x"], "unrecognized arguments: stray -x"),
])
def test_table_parser_refusals_read_as_argparse_wrote_them(argv, line, capsys):
    # Every form of the table parser's refusal, by its whole line.
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"gptpurity: error: {line}"]
    assert _outcome(_argparse, argv) == (1, line)

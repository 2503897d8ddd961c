"""Bounded memory: large composites run in little memory, oversized ones are refused up front."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gptpurity import composite as cm
from gptpurity import errors, faces, grouprep, randomize as rnd, statespace as ss
from gptpurity.errors import RangeError
from gptpurity.purity import complete_pauli_set, pauli_haar_average

SRC = str(Path(cm.__file__).resolve().parents[1])
# The child runs one CLI command and writes its own peak RSS (KiB) to a file,
# so stdout and stderr stay exactly what the CLI wrote.  It reads VmHWM where
# the kernel reports it: Linux carries the spawning process's peak into the
# child's ru_maxrss across exec, so under a large pytest process ru_maxrss
# reads that process's peak instead of the child's.  A nonzero second
# argument caps the child's address space, so an allocation the guard
# misses ends in a MemoryError instead of exhausting the machine.
_CHILD = """
import resource, sys
limit = int(sys.argv[2])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gptpurity.cli import main
rc = main(sys.argv[3:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
with open(sys.argv[1], "w") as fh:
    fh.write(str(peak))
sys.exit(rc)
"""
MAX_RSS_MB = 200


def _run_cli(tmp_path, argv, address_limit=0):
    rss_file = tmp_path / "maxrss"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(rss_file), str(address_limit),
                           *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    # A child that dies before writing its peak reports an infinite one.
    return proc, int(rss_file.read_text()) / 1024 if rss_file.exists() else math.inf


def test_quantum_16x16_predict_and_estimate_run_in_bounded_memory(tmp_path):
    seed = "16016"
    proc, rss = _run_cli(tmp_path, ["predict", "general", "--theory", "quantum",
                                    "--na", "16", "--nb", "16", "--p0", "1"])
    assert proc.returncode == 0, proc.stderr
    assert rss < MAX_RSS_MB
    exact = rnd.predict_main(256, 256, 16, 16, 1.0).value
    assert abs(json.loads(proc.stdout)["value"] - exact) <= 1e-12

    proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", "16", "--nb", "16",
                                    "--p0", "1", "--samples", "2000", "--seed", seed])
    assert proc.returncode == 0, proc.stderr
    assert rss < MAX_RSS_MB
    doc = json.loads(proc.stdout)
    assert abs(doc["prediction"]["value"] - exact) <= 1e-12
    assert abs(doc["result"]["mean"] - exact) <= 3 * doc["result"]["stderr"]


@pytest.mark.parametrize("na,nb", [("64", "64"), ("1000000", "1000000")])
def test_quantum_predictions_need_only_the_level_counts(tmp_path, na, nb):
    # No descriptor is built, so any level counts below 2^63 give the closed
    # form (n_A + 1)/(n_A n_B + 1) at P0 = 1, correctly rounded.
    proc, rss = _run_cli(tmp_path, ["predict", "general", "--theory", "quantum", "--na", na,
                                    "--nb", nb, "--p0", "1"], address_limit=4 << 30)
    assert proc.returncode == 0, proc.stderr
    assert rss < MAX_RSS_MB
    n_a, n_b = int(na), int(nb)
    assert json.loads(proc.stdout)["value"] == (n_a + 1) / (n_a * n_b + 1)


def test_oversized_classical_estimate_exits_one_before_allocating(tmp_path):
    proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "classical", "--na", "4096",
                                    "--nb", "4096", "--p0", "0.3", "--samples", "10000",
                                    "--seed", "0"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "bytes" in lines[0]
    assert rss < MAX_RSS_MB


@pytest.mark.parametrize("argv", [
    # The support face's index arrays and a block of 1024 permutations of it.
    (["coin-record", "--s0", "100000000", "--seed", "1"],
     "200000000-outcome support face and a block of 1024 permutations of it would need "
     "1651200016384 bytes"),
    # The 4e8-outcome distribution and a block of 1024 permutations of it.
    (["estimate", "--theory", "classical", "--na", "2", "--nb", "200000000", "--p0", "0.3",
      "--seed", "0"],
     "400000000-outcome distribution and a block of 1024 permutations of it would need "
     "3280000016384 bytes"),
    (["predict", "general", "--theory", "classical", "--na", "2", "--nb", "200000000",
      "--p0", "0.3"], None),
])
def test_huge_classical_parts_are_refused_before_they_are_built(tmp_path, argv):
    # A 2e8-outcome part alone would need two 1.6 GB vectors, and its
    # descriptor check keeps 96 bytes per coordinate (kept, not re-measured,
    # since descriptors hold no labels), but no command builds one.  The coin record's support and the
    # estimate's distribution are refused before they are allocated; the
    # prediction needs only the level counts and is the classical
    # cancellation, P0 itself.
    argv, refusal = argv
    proc, rss = _run_cli(tmp_path, argv, address_limit=4 << 30)
    assert "Traceback" not in proc.stderr
    assert rss < MAX_RSS_MB
    if refusal is None:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == 0.3
        return
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert refusal in lines[0]


@pytest.mark.parametrize("argv,nbytes", [
    (["estimate", "--face", "sym", "--n", "100", "--trp", "1", "--seed", "1"], 5204000000),
    (["predict", "qface", "--n", "100", "--sign", "+", "--trp", "1"], 5204000000),
    (["estimate", "--face", "antisym", "--n", "100", "--trp", "1", "--seed", "1"], 5196000000),
])
def test_oversized_faces_are_refused_before_they_are_built(tmp_path, argv, nbytes):
    # A face holds level counts and builds no joint descriptor; its 10^4 x 10^4
    # projector, eigh's buffers and the isometry are counted before any exists.
    proc, rss = _run_cli(tmp_path, argv, address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert (f"subspace of C^10000, its eigendecomposition and isometry would need {nbytes} "
            "bytes") in lines[0]
    assert rss < MAX_RSS_MB


def test_two_design_k2_closure_runs_in_bounded_memory(tmp_path):
    # The closure keeps no stacked product alive; its peak was 42 MB before
    # the closure was batched.
    proc, rss = _run_cli(tmp_path, ["two-design", "--k", "2"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert doc["max_deviation"] == abs(doc["frame_potential"] - 2.0) < 1e-11
    assert rss < 46


def test_estimator_blocks_are_refused_beyond_the_cap():
    # The 262144-outcome distribution, the (1024, 262144) float block and its
    # (1024, 256) marginal.
    with pytest.raises(RangeError, match="2151677952 bytes"):
        rnd.estimate_expected_local_purity("classical", 256, 1024, 0.3, 2000, 0)
    # The (1024, 2^17) complex kets, their conjugate copy and the 2 x 2 Grams.
    with pytest.raises(RangeError, match="4295032832 bytes"):
        rnd.estimate_expected_local_purity("quantum", 2, 65536, 1.0, 2000, 0)


def test_dense_joint_structures_are_derived_only_within_the_cap(monkeypatch):
    joint = cm.compose(ss.build_quantum(16), ss.build_quantum(16)).joint
    assert joint.factor_levels == (16, 16)
    with pytest.raises(RangeError, match="bytes"):
        joint.hermitian_basis
    with pytest.raises(RangeError, match="bytes"):
        grouprep.analytic_gram(joint).matrix
    with pytest.raises(RangeError, match="bytes"):
        joint.bloch_projector()
    # A local level needs no stacked basis and the estimator no marginal;
    # only its descriptor and the estimator's ket blocks grow with it.
    assert ss.build_quantum(128).K == 16384
    with pytest.raises(RangeError, match="4096-level quantum space"):
        ss.build_quantum(4096)
    # A 256x2 block holds 1024 complex kets of 512 entries, their conjugates
    # and 2 x 2 Grams: 16 * 1024 * (2 * 512 + 4) = 16842752 bytes.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 16842751)
    with pytest.raises(RangeError, match="16842752 bytes"):
        rnd.estimate_expected_local_purity("quantum", 256, 2, 1.0, 2000, 0)
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 16842752)
    rep = rnd.estimate_expected_local_purity("quantum", 256, 2, 1.0, 2000, 0)
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-9)


def test_oversized_local_estimate_exits_one_before_allocating(tmp_path):
    # No A marginal and no descriptor is formed, so large local levels run in
    # the memory of their ket blocks: 16 * 1024 * (2 * 8192 + 4) bytes, about
    # 268 MB, at 4096x2.
    for na, nb, max_mb in (("256", "2", MAX_RSS_MB), ("64", "4", 100), ("4096", "2", 320)):
        proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", na,
                                        "--nb", nb, "--p0", "1", "--samples", "2000",
                                        "--seed", "0"], address_limit=4 << 30)
        assert proc.returncode == 0, proc.stderr
        assert rss < max_mb
        doc = json.loads(proc.stdout)
        assert abs(doc["result"]["mean"] - doc["prediction"]["value"]) <= (
            3 * doc["result"]["stderr"])
    # At 16384x2 the ket blocks alone pass the cap, and are refused before a draw.
    proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", "16384",
                                    "--nb", "2", "--p0", "1", "--samples", "2000",
                                    "--seed", "0"], address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "kets in dimension 32768 and their Grams would need 1073807360 bytes" in lines[0]
    assert rss < MAX_RSS_MB


def test_support_face_marginal_is_counted_against_the_cap(monkeypatch):
    # A two-outcome support on a 4096 x 2 composite: the permuted block is
    # tiny, but its A marginal is (1024, 4096), 32 MB; with the block,
    # 8 * 1024 * (2 + 4096) = 33570816 bytes.
    face = faces.classical_support_face(
        cm.compose(ss.build_classical(4096), ss.build_classical(2)), [0, 1])
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 33570815)
    with pytest.raises(RangeError, match="33570816 bytes"):
        faces.estimate_face_local_purity(face, 1.0, 2000, 0)


@pytest.mark.parametrize("argv", [
    (["predict", "nonlocaltomo", "--ma", "2000", "--mb", "2", "--p0", "1"], None),
    (["estimate", "--theory", "real-quantum", "--ma", "2400", "--mb", "2", "--p0", "1",
      "--samples", "2000", "--seed", "0"], None),
    # Two blocks of 1024 real kets of 131072 entries and their 64 x 64 Grams.
    (["estimate", "--theory", "real-quantum", "--ma", "2048", "--mb", "64", "--p0", "1",
      "--samples", "2000", "--seed", "0"], "2181038080 bytes"),
])
def test_oversized_real_quantum_joint_is_refused_before_anything_is_built(tmp_path, argv):
    # The prediction needs only the level counts, so no joint descriptor is
    # built; what grows with the levels is the estimator's ket block, refused
    # by its own check.
    argv, refusal = argv
    proc, rss = _run_cli(tmp_path, argv, address_limit=4 << 30)
    assert rss < MAX_RSS_MB
    assert "Traceback" not in proc.stderr
    if refusal is not None:
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert refusal in lines[0]
        return
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"JSON constant {name}"))
    if argv[0] == "estimate":
        assert abs(doc["result"]["mean"] - doc["prediction"]["value"]) <= (
            3 * doc["result"]["stderr"])


def test_power_law_exact_integers_are_counted_against_the_cap(tmp_path):
    # K = 2^(10^10) on both parts: the exact integers alone would be gigabytes.
    proc, rss = _run_cli(tmp_path, ["predict", "power-law", "--r", "10000000000", "--na", "2",
                                    "--nb", "2", "--p0", "1"], address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "20000000000 bytes" in lines[0]
    assert rss < MAX_RSS_MB


def test_per_sample_arrays_are_refused_before_any_draw():
    with pytest.raises(RangeError, match="4800000000 bytes"):
        rnd.estimate_real_quantum_local_purity(2, 2, 1.0, 200_000_000, 0)
    qubit = ss.build_quantum(2)
    x = complete_pauli_set(qubit, grouprep.analytic_gram(qubit))[0]
    with pytest.raises(RangeError, match="3200000000 bytes"):
        pauli_haar_average(qubit, grouprep.sampler_for(qubit), x, qubit.max_mixed,
                           n_samples=200_000_000)


def test_oversized_sample_count_exits_one_before_allocating(tmp_path):
    # Three per-sample arrays of 2e8 float64 values would be 4.8 GB.
    proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2",
                                    "--p0", "1", "--samples", "200000000", "--seed", "0"],
                         address_limit=2 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert "200000000 per-sample values would need 4800000000 bytes" in lines[0]
    assert rss < MAX_RSS_MB

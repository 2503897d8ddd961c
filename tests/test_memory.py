"""Bounded memory: large composites run in little memory, oversized ones are refused up front."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gptpurity import blocks, errors, faces, formulas, randomize as rnd
from gptpurity.errors import RangeError
from reference import grouprep
from reference import statespace as ss
from reference.purity import complete_pauli_set
import haar

SRC = str(Path(formulas.__file__).resolve().parents[1])
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
    exact = formulas.predict_main(256, 256, 16, 16, 1.0).value
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
    # The coin record's 2 x 1e8 joint distribution and a block of 1024
    # permutations of it with their A marginals and 3 per-sample vectors.
    (["coin-record", "--s0", "100000000", "--seed", "1"],
     "2 x 100000000 classical joint distribution and a block of 1024 permutations of it "
     "would need 1640000040960 bytes"),
    # The 4e8-outcome distribution and a block of 1024 permutations of it.
    (["estimate", "--theory", "classical", "--na", "2", "--nb", "200000000", "--p0", "0.3",
      "--seed", "0"],
     "400000000-outcome distribution and a block of 1024 permutations of it would need "
     "3280000040960 bytes"),
    (["predict", "general", "--theory", "classical", "--na", "2", "--nb", "200000000",
      "--p0", "0.3"], None),
])
def test_huge_classical_parts_are_refused_before_they_are_built(tmp_path, argv):
    # A 2e8-outcome part alone would need two 1.6 GB vectors, and its
    # descriptor check keeps 96 bytes per coordinate (kept, not re-measured,
    # since descriptors hold no labels), but no command builds one.  The coin record's and the
    # estimate's distributions are refused before they are allocated; the
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
    (["estimate", "--face", "sym", "--n", "300", "--trp", "1", "--seed", "1"], 2037594736),
    (["predict", "qface", "--n", "200", "--sign", "+", "--trp", "1"], None),
    (["estimate", "--face", "antisym", "--n", "300", "--trp", "1", "--seed", "1"], 2033905936),
])
def test_oversized_faces_are_refused_before_they_are_built(tmp_path, argv, nbytes):
    # A face holds its level count and sign, and builds no joint descriptor.
    # The prediction builds no isometry either: its ingredient is
    # (n + 2)/4 = 50.5 in closed form.  The estimator's block of 1024 in-face kets, laid
    # out in C^90000 one slice at a time, is refused before its first draw by
    # randomize._estimate's check of the count that blocks._ket_draw gives:
    # the in-face real parts of the block, and one slice's kets in C^90000
    # with their Grams.
    proc, rss = _run_cli(tmp_path, argv, address_limit=4 << 30)
    assert "Traceback" not in proc.stderr
    assert rss < MAX_RSS_MB
    if nbytes is None:
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["inputs"]["probe_trace_sq"] == 50.5
        assert abs(doc["value"] - formulas.predict_symm(200, 1, 1.0).value) <= 1e-12
        return
    n_s = 300 * (300 + (1 if argv[2] == "sym" else -1)) // 2
    what = f"1024 kets in dimension 90000 (1024 x {n_s} real parts) and their Grams"
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert f"{what} would need {nbytes} bytes" in lines[0]


@pytest.mark.parametrize("sign", ["sym", "antisym"])
def test_face_pair_sums_beyond_the_work_cap_exit_one_before_any_draw(tmp_path, sign):
    # Both faces at n = 200 pass the memory cap (907 MB counted for sym), but
    # the default 10^4 kets would take k^2 = 40000 pair-sum products of
    # 2 x 200 values per ket: 1.6 x 10^11 products, about 8 minutes.
    proc, rss = _run_cli(tmp_path, ["estimate", "--face", sign, "--n", "200", "--trp", "1",
                                    "--seed", "1"], address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert ("the pair sums of 10000 kets' 200 x 200 Grams would take 160000000000 products, "
            "over the 5120000000-product work cap") in lines[0]
    assert rss < MAX_RSS_MB


class _NoDraws:
    """A generator stand-in that fails the test on any use."""

    def __getattr__(self, name):
        pytest.fail(f"the block used its generator's {name}")


def test_ket_block_work_is_refused_before_its_kets_are_drawn(monkeypatch):
    # The refusal comes before the first draw and before the per-sample
    # arrays are allocated.
    monkeypatch.setattr(rnd, "sample_rng", lambda seed, index: _NoDraws())
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="would take 160000000000 products"):
            faces.estimate_face_local_purity(200, 1, 1.0, 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dims,real,swap,products", [
    # Two kets, the smallest run: k(k+1)/2 real products of L values, and
    # with imaginary parts k^2 products of 2L values, per ket.
    ((2, 8), False, None, 2 * 2 * 8 * 4),
    ((8, 2), False, None, 2 * 2 * 8 * 4),
    ((2, 3), True, None, 2 * 3 * 3),
    ((3, 3), False, 1, 2 * 2 * 3 * 9),
    ((5, 5), False, -1, 2 * 2 * 5 * 25),
])
def test_ket_block_counts_its_pair_sum_products(monkeypatch, dims, real, swap, products):
    # The draw's pure count, per ket, and a request of two kets exactly at
    # the cap and one product over it.
    draw = blocks._ket_draw(1.0, dims, real=real, swap=swap)
    assert draw[1](2)[2] == products
    assert draw[1](rnd.BLOCK_SIZE)[2] == rnd.BLOCK_SIZE // 2 * products
    monkeypatch.setattr(errors, "WORK_CAP_PRODUCTS", products - 1)
    with pytest.raises(RangeError,
                       match=f"would take {products} products, over the {products - 1}-product"):
        rnd._estimate(2, 2, *draw, False)
    monkeypatch.setattr(errors, "WORK_CAP_PRODUCTS", products)
    assert rnd._estimate(2, 2, *draw, False).n_samples == 2


@pytest.mark.parametrize("run,argv,products", [
    # 80 x 80 Grams of 2 x 80 values per in-face ket: 1024000 products per ket.
    (partial(faces.estimate_face_local_purity, 80, 1, 1.0),
     ["estimate", "--face", "sym", "--n", "80", "--trp", "1"], 10_240_000_000),
    # 128 x 128 Grams of 2 x 128 values per ket: 4194304 products per ket.
    (partial(rnd.estimate_expected_local_purity, "quantum", 128, 128, 1.0),
     ["estimate", "--theory", "quantum", "--na", "128", "--nb", "128", "--p0", "1"],
     41_943_040_000),
], ids=["sym 80", "quantum 128x128"])
def test_request_work_is_refused_before_any_draw(tmp_path, monkeypatch, run, argv, products):
    # Each block of 1024 kets is under the cap (1048576000 and 4294967296
    # products), but the default 10^4 kets of the request are not.
    refusal = f"would take {products} products, over the 5120000000-product work cap"
    monkeypatch.setattr(rnd, "sample_rng", lambda seed, index: _NoDraws())
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match=refusal):
            run(10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    proc, rss = _run_cli(tmp_path, argv + ["--seed", "1"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert refusal in lines[0]
    assert rss < MAX_RSS_MB


@pytest.mark.parametrize("theory,n_samples,terms", [
    # Quantum 2 x 8: 2 x 8 x (3 + 1) = 64 pair-sum products per ket; classical
    # 2 x 8: 16 permuted elements of 8 products.  ``terms`` is the whole
    # request's count in terms of 512 products, rounded up, the unit the
    # cap once had; however its blocks split it.
    ("quantum", 2500, 313), ("quantum", 3000, 375), ("classical", 2500, 625),
    ("classical", 2501, 626),
])
def test_request_at_the_work_cap_passes_and_one_term_over_is_refused(monkeypatch, theory,
                                                                       n_samples, terms):
    # A request runs at a cap of its own product count and is refused at one
    # less.  A cap of 512 T products refuses exactly the requests of more
    # than T terms, so the cap refuses the same requests in either unit.
    products = n_samples * (64 if theory == "quantum" else 16 * 8)
    assert -(-products // 512) == terms
    for cap, runs in ((products - 1, False), (products, True), (512 * (terms - 1), False),
                      (512 * terms, True)):
        monkeypatch.setattr(errors, "WORK_CAP_PRODUCTS", cap)
        if runs:
            assert rnd.estimate_expected_local_purity(theory, 2, 8, 0.3, n_samples,
                                                      1).n_samples == n_samples
            continue
        with pytest.raises(RangeError,
                           match=f"would take {products} products, over the {cap}-product"):
            rnd.estimate_expected_local_purity(theory, 2, 8, 0.3, n_samples, 1)


@pytest.mark.parametrize("bad,refusal", [
    (["--samples", "1", "--seed", "0"], "need at least 2 samples for a standard error, got 1"),
    (["--seed", "-1"], "the seed must be non-negative, got -1"),
], ids=["samples", "seed"])
@pytest.mark.parametrize("argv", [
    ["estimate", "--theory", "classical", "--na", "2", "--nb", "200000000", "--p0", "0.3"],
    ["coin-record", "--s0", "200000000"],
], ids=["estimate", "coin-record"])
def test_classical_callers_refuse_a_bad_run_by_the_same_first_check(tmp_path, argv, bad,
                                                                     refusal):
    # Both draw 4e8-outcome distributions (3.2 GB each), which the block
    # check would refuse, but the sample count and the seed come first.
    proc, rss = _run_cli(tmp_path, argv + bad, address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"gptpurity: error: {refusal}"]
    assert rss < MAX_RSS_MB


@pytest.mark.parametrize("n_samples,seed,refusal", [
    (1, 0, "need at least 2 samples"), (10_000, -1, "the seed must be non-negative"),
], ids=["samples", "seed"])
def test_classical_callers_refuse_before_building_their_distribution(monkeypatch, n_samples,
                                                                     seed, refusal):
    # A 2e6-outcome distribution would be 16 MB: small enough to build by
    # mistake in this process, large enough for the trace to see.
    monkeypatch.setattr(rnd, "sample_rng", lambda seed, index: _NoDraws())
    for run in (partial(rnd.estimate_expected_local_purity, "classical", 2, 1_000_000, 0.3),
                partial(faces.coin_with_record, 1_000_000)):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=refusal):
                run(n_samples, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_two_design_k2_closure_runs_in_bounded_memory(tmp_path):
    # --k 2 yields its 11520 traces one at a time from the one-qubit factors
    # and never forms the group, so it peaks where --k 1 does: about 15.0 MB
    # against 14.9 MB with no numpy loaded (a list of the exact traces would
    # add about 1 MB).
    proc, rss = _run_cli(tmp_path, ["two-design", "--k", "2"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert doc["frame_potential"] == 2.0 and doc["max_deviation"] == 0.0
    assert rss < 46
    k1, rss_k1 = _run_cli(tmp_path, ["two-design", "--k", "1"])
    assert k1.returncode == 0, k1.stderr
    assert rss - rss_k1 < 1.0


@pytest.mark.parametrize("case", [
    "2x2", "2x8", "4x4", "8x2", "64x4", "real 2x3", "antisym 4", "sym 16", "9x9", "12x9",
])
def test_ket_block_peak_is_within_its_memory_count(case):
    # tracemalloc sees every numpy buffer, so a full block's traced peak
    # must not pass the bytes its draw's pure count gives.  8x2, 64x4 and 12x9
    # take W from the columns of M.  A face block also holds its in-face kets
    # until they are scattered into n x n matrices.
    if case.startswith(("sym", "antisym")):
        kind, n = case.split()
        n, sign = int(n), 1 if kind == "sym" else -1
        draw, cost = blocks._ket_draw(faces._face_interpolation_weight(n * (n + sign) // 2, 0.3),
                                      (n, n), swap=sign)
    else:
        na, nb = map(int, case.removeprefix("real ").split("x"))
        draw, cost = blocks._ket_draw(1.0, (na, nb), real=case.startswith("real"))
    draw(rnd.sample_rng(1, 0), 2)
    rng = rnd.sample_rng(1, 1)
    tracemalloc.start()
    try:
        draw(rng, rnd.BLOCK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cost(rnd.BLOCK_SIZE)[0]


@pytest.mark.parametrize("k,k_a,head", [
    (4, 2, 1), (16, 2, 1), (16, 8, 1), (64, 8, 1), (4096, 64, 1), (8, 2, 4), (66, 2, 33),
], ids=["2x2", "2x8", "8x2", "8x8", "64x64", "coin 4", "coin 33"])
def test_classical_block_peak_is_within_its_memory_count(k, k_a, head):
    # A full block's traced peak, its p, its permutations, their marginals
    # and both purity vectors, must not pass the bytes its draw's pure count
    # gives.
    draw, cost = blocks._permutation_draw(k, k_a, 0.1 / k, head, 0.9 / head + 0.1 / k, "p")
    draw(rnd.sample_rng(1, 0), 2)
    rng = rnd.sample_rng(1, 1)
    tracemalloc.start()
    try:
        draw(rng, rnd.BLOCK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = cost(rnd.BLOCK_SIZE)[0]
    assert counted == 8 * (k + rnd.BLOCK_SIZE * (k + k_a + 3))
    assert peak <= counted


@pytest.mark.parametrize("builder,n", [
    (ss.build_quantum, 2), (ss.build_quantum, 3), (ss.build_quantum, 4), (ss.build_real_quantum, 2),
], ids=["quantum K=4", "quantum K=9", "quantum K=16", "real-quantum K=3"])
def test_haar_draw_block_peak_is_within_its_memory_count(monkeypatch, builder, n):
    # One full draw_many block: the Gram-Schmidt unitaries, then their
    # conjugation superoperators.  Its traced peak must not pass the bytes
    # that draw_many's memory check counted.
    space = builder(n)
    sampler = haar.sampler_for(space)
    haar.draw_many(sampler, np.random.default_rng(0), 2)
    counted = []
    monkeypatch.setattr(errors, "check_memory", lambda nbytes, what: counted.append(nbytes))
    tracemalloc.start()
    try:
        haar.draw_many(sampler, np.random.default_rng(1), haar.DRAW_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == [haar._DRAW_BYTES_PER_ENTRY * haar.DRAW_BLOCK * space.K**2]
    assert peak <= counted[0]


def test_estimator_blocks_are_refused_beyond_the_cap():
    # The 262144-outcome distribution, the (1024, 262144) float block, its
    # (1024, 256) marginal and 3 per-sample vectors.
    with pytest.raises(RangeError, match="2151702528 bytes"):
        rnd.estimate_expected_local_purity("classical", 256, 1024, 0.3, 2000, 0)
    # The real parts of 1024 kets of 2^17 entries, and in a slice of 513 their
    # imaginary parts, their rows, the pair sums' products and the 2 x 2 Grams.
    with pytest.raises(RangeError, match="3763437632 bytes"):
        rnd.estimate_expected_local_purity("quantum", 2, 65536, 1.0, 2000, 0)


def test_dense_joint_structures_are_derived_only_within_the_cap(monkeypatch):
    # K = 65536, as for a 16 x 16 joint: the stacked basis and the dense Gram
    # are refused before anything of their size is allocated.
    space = ss.build_quantum(256)
    gram = grouprep.analytic_gram(space)
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="bytes"):
            space.hermitian_basis
        with pytest.raises(RangeError, match="bytes"):
            gram.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.K == 65536 and peak < 1 << 20
    # A local level needs no stacked basis and the estimator no marginal;
    # only its descriptor and the estimator's ket blocks grow with it.
    assert ss.build_quantum(128).K == 16384
    with pytest.raises(RangeError, match="4096-level quantum space"):
        ss.build_quantum(4096)
    # A 256x2 block holds the real parts of 1024 kets of 512 entries and 8
    # per-sample vectors, and in a slice of at most 513 samples their
    # imaginary parts, their rows, the pair sums' two products and the
    # 2 x 2 Grams: 8 * (1024 * (512 + 8) + 513 * (2 * (512 + 512 + 512) - 512 + 8))
    # = 14798912 bytes.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 14798911)
    with pytest.raises(RangeError, match="14798912 bytes"):
        rnd.estimate_expected_local_purity("quantum", 256, 2, 1.0, 2000, 0)
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 14798912)
    rep = rnd.estimate_expected_local_purity("quantum", 256, 2, 1.0, 2000, 0)
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-9)


def test_oversized_local_estimate_exits_one_before_allocating(tmp_path):
    # No A marginal and no descriptor is formed, so large local levels run in
    # the memory of their ket blocks: 235307072 bytes, about 235 MB, counted
    # at 4096x2.
    for na, nb, max_mb in (("256", "2", MAX_RSS_MB), ("64", "4", 100), ("4096", "2", 320)):
        proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", na,
                                        "--nb", nb, "--p0", "1", "--samples", "2000",
                                        "--seed", "0"], address_limit=4 << 30)
        assert proc.returncode == 0, proc.stderr
        assert rss < max_mb
        doc = json.loads(proc.stdout)
        assert abs(doc["result"]["mean"] - doc["prediction"]["value"]) <= (
            3 * doc["result"]["stderr"])
    # At 32768x2 the ket blocks alone pass the cap, and are refused before a draw.
    proc, rss = _run_cli(tmp_path, ["estimate", "--theory", "quantum", "--na", "32768",
                                    "--nb", "2", "--p0", "1", "--samples", "2000",
                                    "--seed", "0"], address_limit=4 << 30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert ("kets in dimension 65536 (1024 x 65536 real parts) and their Grams would need "
            "1881768000 bytes") in lines[0]
    assert rss < MAX_RSS_MB


@pytest.mark.parametrize("argv", [
    (["predict", "nonlocaltomo", "--ma", "2000", "--mb", "2", "--p0", "1"], None),
    (["estimate", "--theory", "real-quantum", "--ma", "2400", "--mb", "2", "--p0", "1",
      "--samples", "2000", "--seed", "0"], None),
    # 1024 real kets of 131072 entries, and in a slice of 513 their rows,
    # the pair sums' product and their 64 x 64 Grams.
    (["estimate", "--theory", "real-quantum", "--ma", "2048", "--mb", "64", "--p0", "1",
      "--samples", "2000", "--seed", "0"], "1662156800 bytes"),
])
def test_oversized_real_quantum_joint_is_refused_before_anything_is_built(tmp_path, argv):
    # The prediction needs only the level counts, so no joint descriptor is
    # built; what grows with the levels is the estimator's ket block, refused
    # before its first draw by randomize._estimate's check of the count that
    # blocks._ket_draw gives.
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
        rnd.estimate_expected_local_purity("real-quantum", 2, 2, 1.0, 200_000_000, 0)
    qubit = ss.build_quantum(2)
    x = complete_pauli_set(qubit, grouprep.analytic_gram(qubit))[0]
    with pytest.raises(RangeError, match="3200000000 bytes"):
        haar.pauli_haar_average(qubit, haar.sampler_for(qubit), x, qubit.max_mixed,
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

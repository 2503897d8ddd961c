"""Seeded command lists of the benchmark workloads.

Each workload is a fixed list of ``gptpurity`` argument vectors.  Commands
that take ``--seed`` receive one derived from the workload seed and the
command's position, so the same workload seed always yields the same
commands and, by the CLI's determinism contract, the same reports.
"""

from __future__ import annotations

import hashlib

MC = "10000"

# Why each workload exists is stated in BENCHMARK.json; perfbench/README.md
# maps the per-layer metrics onto the workload each one should move.
WORKLOADS: dict[str, list[list[str]]] = {
    # The acceptance-suite Monte Carlo mix: many cheap samples, negligible set-up.
    "mc-acceptance": [
        ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2", "--p0", "1", "--samples", MC],
        ["estimate", "--theory", "quantum", "--na", "2", "--nb", "8", "--p0", "1", "--samples", MC,
         "--histogram"],
        ["estimate", "--theory", "classical", "--na", "2", "--nb", "8", "--p0", "0.3", "--samples", MC],
        ["estimate", "--theory", "real-quantum", "--ma", "2", "--mb", "2", "--p0", "1", "--samples", MC],
        ["estimate", "--face", "sym", "--n", "2", "--trp", "1", "--samples", MC],
        ["coin-record", "--s0", "4", "--samples", MC],
    ],
    # Large joint spaces: compose, the dense Gram and K=1024 coordinates dominate.
    "large-composite": [
        ["predict", "general", "--theory", "quantum", "--na", "8", "--nb", "8", "--p0", "1"],
        ["predict", "general", "--theory", "quantum", "--na", "4", "--nb", "8", "--p0", "1"],
        ["estimate", "--theory", "quantum", "--na", "4", "--nb", "4", "--p0", "1", "--samples", "1000"],
        ["estimate", "--theory", "quantum", "--na", "4", "--nb", "8", "--p0", "0.5", "--samples", "300"],
        ["estimate", "--face", "antisym", "--n", "4", "--trp", "0.3", "--samples", "2000"],
    ],
    # Exact identities without a Haar-sampling estimator: Clifford closure,
    # second-moment superoperators, Pauli sets and boxworld.
    "exact-identities": [
        ["two-design", "--k", "2"],
        ["two-design", "--k", "1"],
        ["verify", "pauli-identities", "--samples", MC],
        ["verify", "gram-invariance"],
        ["verify", "classical-subsystem"],
        ["verify", "boxworld"],
        ["predict", "nonlocaltomo", "--ma", "3", "--mb", "3", "--p0", "1"],
        ["predict", "qface", "--n", "4", "--sign", "-", "--trp", "0.3"],
        ["predict", "main", "--ka", "4", "--kb", "4", "--na", "2", "--nb", "2", "--p0", "1"],
    ],
}

# Wall time of one pass on a 2-core x86-64 box, numpy 2.4 (see README.md).
# A run makes round(seconds / NOMINAL_PASS_S) passes, a count fixed by the
# arguments alone, so every run of a workload pools the same number of
# commands and its percentiles sit at the same rank.
NOMINAL_PASS_S = {"mc-acceptance": 7.5, "large-composite": 3.5, "exact-identities": 8.0}

SEEDED_COMMANDS = ("estimate", "coin-record", "verify")


def derive_seed(workload: str, seed: int, index: int) -> int:
    """The ``--seed`` of command ``index`` of ``workload`` under workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors of one pass of ``workload``."""
    out = []
    for i, argv in enumerate(WORKLOADS[workload]):
        argv = list(argv)
        if argv[0] in SEEDED_COMMANDS:
            argv += ["--seed", str(derive_seed(workload, seed, i))]
        out.append(argv)
    return out


def samples_of(argv: list[str]) -> int:
    """Monte Carlo samples requested by ``argv`` (0 when it takes no ``--samples``)."""
    return int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0

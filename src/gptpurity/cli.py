"""Command-line front end: predictors, estimators, and verification suites.

Reports are JSON documents with the parsed configuration echoed under
``config``; histograms can be written as CSV with columns
``bin_lo,bin_hi,count``.  Identical argument vectors (including seeds)
produce byte-identical reports.  Exit codes: 0 success, 2 verification
failure, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import boxworld as bw
from . import composite as comp_mod
from . import faces as faces_mod
from . import grouprep
from . import randomize as rnd
from . import statespace as ss
from .errors import GptPurityError, RangeError
from .purity import (
    complete_pauli_set,
    max_collision_probability,
    pauli_haar_average,
    purity,
    purity_via_pauli_set,
)

ENV_THREADS = "GPTPURITY_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get(ENV_THREADS, "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv is valid only for histogram-bearing estimates")
    common.add_argument("--threads", type=int, default=_default_threads(),
                        help=f"accepted for compatibility; no effect (default ${ENV_THREADS} or 1)")

    parser = _Parser(prog="gptpurity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="closed-form expected local purity")
    psub = predict.add_subparsers(dest="formula", required=True)

    p_main = psub.add_parser("main", parents=[common])
    p_main.add_argument("--ka", type=int, required=True)
    p_main.add_argument("--kb", type=int, required=True)
    p_main.add_argument("--na", type=int, required=True)
    p_main.add_argument("--nb", type=int, required=True)
    p_main.add_argument("--p0", type=float, required=True)

    p_gen = psub.add_parser("general", parents=[common])
    p_gen.add_argument("--theory", choices=("quantum", "classical"), required=True)
    p_gen.add_argument("--na", type=int, required=True)
    p_gen.add_argument("--nb", type=int, required=True)
    p_gen.add_argument("--p0", type=float, required=True)

    p_pow = psub.add_parser("power-law", parents=[common])
    p_pow.add_argument("--r", type=int, required=True)
    p_pow.add_argument("--na", type=int, required=True)
    p_pow.add_argument("--nb", type=int, required=True)
    p_pow.add_argument("--p0", type=float, required=True)

    p_nlt = psub.add_parser("nonlocaltomo", parents=[common])
    p_nlt.add_argument("--ma", type=int, required=True)
    p_nlt.add_argument("--mb", type=int, required=True)
    p_nlt.add_argument("--p0", type=float, required=True)

    p_symm = psub.add_parser("symm", parents=[common])
    p_symm.add_argument("--n", type=int, required=True)
    p_symm.add_argument("--sign", choices=("+", "-"), required=True)
    p_symm.add_argument("--trp", type=float, required=True)

    p_qface = psub.add_parser("qface", parents=[common])
    p_qface.add_argument("--n", type=int, required=True)
    p_qface.add_argument("--sign", choices=("+", "-"), required=True)
    p_qface.add_argument("--trp", type=float, required=True)

    est = sub.add_parser("estimate", parents=[common], help="Monte Carlo expected local purity")
    target = est.add_mutually_exclusive_group(required=True)
    target.add_argument("--theory", choices=("quantum", "classical", "real-quantum"))
    target.add_argument("--face", choices=("sym", "antisym"))
    est.add_argument("--na", type=int, help="level/outcome count of part A")
    est.add_argument("--nb", type=int, help="level/outcome count of part B")
    est.add_argument("--ma", type=int, help="real-quantum level count of part A")
    est.add_argument("--mb", type=int, help="real-quantum level count of part B")
    est.add_argument("--n", type=int, help="local level count for face estimates")
    est.add_argument("--p0", type=float, help="global generalized purity")
    est.add_argument("--trp", type=float, help="global Tr(rho^2) for face estimates")
    est.add_argument("--samples", type=int, default=10_000)
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--histogram", action="store_true",
                     help="attach a 100-bin histogram of the per-sample values")

    ver = sub.add_parser("verify", parents=[common], help="bounded verification suites")
    ver.add_argument("suite", choices=(
        "pauli-identities", "gram-invariance", "classical-subsystem",
        "markov-tail", "boxworld",
    ))
    ver.add_argument("--seed", type=int, default=2024)
    ver.add_argument("--samples", type=int, default=10_000)

    two = sub.add_parser("two-design", parents=[common], help="Clifford second-moment identity")
    two.add_argument("--k", type=int, default=1, choices=(1, 2))

    coin = sub.add_parser("coin-record", parents=[common], help="coin tossing against a recording environment")
    coin.add_argument("--s0", type=int, required=True)
    coin.add_argument("--samples", type=int, default=10_000)
    coin.add_argument("--seed", type=int, required=True)

    return parser


# -- command bodies ---------------------------------------------------------------------


def _spaces_for_theory(theory: str, na: int, nb: int):
    build = ss.build_quantum if theory == "quantum" else ss.build_classical
    a, b = build(na), build(nb)
    comp = comp_mod.compose(a, b)
    return comp, grouprep.analytic_gram(a), grouprep.analytic_gram(comp.joint)


def _run_predict(args: argparse.Namespace) -> dict:
    if args.formula == "main":
        pred = rnd.predict_main(args.ka, args.kb, args.na, args.nb, args.p0)
    elif args.formula == "general":
        comp, _, gram_ab = _spaces_for_theory(args.theory, args.na, args.nb)
        pred = rnd.predict_general(comp, gram_ab, args.p0)
    elif args.formula == "power-law":
        pred = rnd.predict_power_law(args.r, args.na, args.nb, args.p0)
    elif args.formula == "nonlocaltomo":
        pair = rnd.real_quantum_pair(args.ma, args.mb)
        pred = rnd.predict_nonlocaltomo(
            pair.k_a, pair.k_ab, args.p0, pair.p_phi_mu, pair.mu_c_norm_sq
        )
    elif args.formula == "symm":
        pred = faces_mod.predict_symm(args.n, 1 if args.sign == "+" else -1, args.trp)
    else:
        face = faces_mod.sym_face(args.n) if args.sign == "+" else faces_mod.antisym_face(args.n)
        pred = faces_mod.predict_qface(face, faces_mod.default_probe(args.n), args.trp)
    return {"value": pred.value, "formula_id": pred.formula_id, "inputs": pred.inputs}


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise GptPurityError(f"missing required options: {', '.join('--' + m for m in missing)}")


def _run_estimate(args: argparse.Namespace) -> dict:
    bins = rnd.HISTOGRAM_BINS if args.histogram else None
    if args.face is not None:
        _require(args, ["n", "trp"])
        face = faces_mod.sym_face(args.n) if args.face == "sym" else faces_mod.antisym_face(args.n)
        report = faces_mod.estimate_face_local_purity(
            face, args.trp, args.samples, args.seed, histogram_bins=bins
        )
        sign = 1 if args.face == "sym" else -1
        prediction = faces_mod.predict_symm(args.n, sign, args.trp)
    elif args.theory == "real-quantum":
        _require(args, ["ma", "mb", "p0"])
        report = rnd.estimate_real_quantum_local_purity(
            args.ma, args.mb, args.p0, args.samples, args.seed, histogram_bins=bins
        )
        pair = rnd.real_quantum_pair(args.ma, args.mb)
        prediction = rnd.predict_nonlocaltomo(
            pair.k_a, pair.k_ab, args.p0, pair.p_phi_mu, pair.mu_c_norm_sq
        )
    else:
        _require(args, ["na", "nb", "p0"])
        comp, gram_a, gram_ab = _spaces_for_theory(args.theory, args.na, args.nb)
        report = rnd.estimate_expected_local_purity(
            comp, gram_a, gram_ab, args.p0, args.samples, args.seed, histogram_bins=bins
        )
        prediction = rnd.predict_general(comp, gram_ab, args.p0)
    return {"result": report.to_json_dict(), "prediction": prediction.to_json_dict()}


def _suite_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _verify_pauli_identities(seed: int, samples: int) -> list[dict]:
    checks = []
    rng = _suite_rng(seed)
    spaces = {
        "qubit": ss.build_quantum(2),
        "classical-4": ss.build_classical(4),
        "square": ss.build_polygon(4),
        "pentagon": ss.build_polygon(5),
    }
    for name, space in spaces.items():
        gram = grouprep.analytic_gram(space)
        pset = complete_pauli_set(space, gram)
        states = ss.random_mixtures(space, 200, rng)
        dev = 0.0
        cdev = 0.0
        for omega in states:
            p = purity(space, gram, omega)
            dev = max(dev, abs(purity_via_pauli_set(pset, omega) - p))
            coll = max_collision_probability(space, gram, omega)
            cdev = max(cdev, abs(coll.value - 0.5 * (1.0 + p)))
        checks.append({"name": f"complete-set-{name}", "value": dev, "bound": 1e-10,
                       "passed": bool(dev < 1e-10)})
        checks.append({"name": f"collision-{name}", "value": cdev, "bound": 1e-10,
                       "passed": bool(cdev < 1e-10)})
    qubit = spaces["qubit"]
    gram = grouprep.analytic_gram(qubit)
    sampler = grouprep.sampler_for(qubit)
    x = complete_pauli_set(qubit, gram).maps[0]
    omega = qubit.sample_pure(rng)
    avg = pauli_haar_average(qubit, sampler, x, omega, n_samples=samples, rng=rng)
    expected = purity(qubit, gram, omega) / (qubit.K - 1)
    band = 3.0 * avg.stderr
    checks.append({"name": "haar-average-qubit", "value": abs(avg.mean - expected),
                   "bound": band, "passed": bool(abs(avg.mean - expected) <= band)})
    return checks


def _verify_gram_invariance(seed: int, samples: int) -> list[dict]:
    checks = []
    rng = _suite_rng(seed)
    spaces = [
        ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(3),
        ss.build_classical(5), ss.build_polygon(4), ss.build_polygon(5),
        ss.build_real_quantum(2),
    ]
    for space in spaces:
        gram = grouprep.analytic_gram(space)
        sampler = grouprep.sampler_for(space)
        p = space.bloch_projector()
        dev = 0.0
        for _ in range(100):
            t = sampler.draw(rng)
            x = p @ rng.normal(size=space.K)
            y = p @ rng.normal(size=space.K)
            dev = max(dev, abs(gram.inner(t @ x, t @ y) - gram.inner(x, y)))
        checks.append({"name": f"gram-invariance-{space.kind}-{space.level}",
                       "value": dev, "bound": 1e-8, "passed": bool(dev < 1e-8)})
    return checks


def _verify_classical_subsystem(seed: int, samples: int) -> list[dict]:
    checks = []
    for name, space in (
        ("classical-2", ss.build_classical(2)),
        ("classical-4", ss.build_classical(4)),
        ("classical-8", ss.build_classical(8)),
        ("qubit", ss.build_quantum(2)),
        ("square-gbit", ss.build_boxworld_local()),
    ):
        gram = grouprep.analytic_gram(space)
        witness = comp_mod.capacity_witness(space)
        report = comp_mod.verify_centered_dynamical(space, gram, witness)
        checks.append({
            "name": f"centered-{name}",
            "value": max(report.center_deviation, report.gram_offdiag_deviation),
            "bound": 1e-10,
            "passed": report.passed,
        })
    pentagon = comp_mod.capacity_witness(ss.build_polygon(5))
    checks.append({"name": "pentagon-not-centered", "value": float(pentagon.centered),
                   "bound": 0.0, "passed": bool(not pentagon.centered)})
    return checks


def _verify_markov_tail(seed: int, samples: int) -> list[dict]:
    comp, gram_a, gram_ab = _spaces_for_theory("quantum", 2, 8)
    report = rnd.estimate_expected_local_purity(
        comp, gram_a, gram_ab, 1.0, samples, seed, histogram_bins=rnd.HISTOGRAM_BINS
    )
    checks = []
    for x in (2.0, 5.0, 10.0):
        res = rnd.markov_tail_check(report, x)
        checks.append({"name": f"markov-x-{x:g}", "value": res.empirical,
                       "bound": res.bound + 3 * res.binomial_sigma, "passed": res.passed})
    return checks


def _verify_boxworld(seed: int, samples: int) -> list[dict]:
    space = bw.boxworld_space()
    prod_p, pr_p = bw.vertex_purities()
    obstruction = bw.boxworld_normalization_obstruction()
    inv = bw.gram_invariance_deviation()
    third = 1.0 / 3.0
    return [
        {"name": "vertex-count", "value": len(space.vertices), "bound": 24,
         "passed": bool(len(space.vertices) == 24)},
        {"name": "product-purity-one", "value": float(np.max(np.abs(prod_p - 1.0))),
         "bound": 1e-12, "passed": bool(np.max(np.abs(prod_p - 1.0)) < 1e-12)},
        {"name": "pr-purity-one-third", "value": float(np.max(np.abs(pr_p - third))),
         "bound": 0.0, "passed": bool(np.all(pr_p == third))},
        {"name": "obstruction-a", "value": obstruction.solution_a, "bound": 3.0,
         "passed": bool(abs(obstruction.solution_a - 3.0) < 1e-12)},
        {"name": "obstruction-b", "value": obstruction.solution_b, "bound": 0.0,
         "passed": bool(abs(obstruction.solution_b) < 1e-12)},
        {"name": "degenerate-zero-purity", "value": obstruction.zero_purity_value,
         "bound": 1e-12, "passed": bool(abs(obstruction.zero_purity_value) < 1e-12)},
        {"name": "group-invariance", "value": inv, "bound": 1e-12,
         "passed": bool(inv < 1e-12)},
        {"name": "non-transitivity-witness", "value": 1.0, "bound": 1.0,
         "passed": bw.transitivity_obstruction_witness()},
    ]


_VERIFY_SUITES = {
    "pauli-identities": _verify_pauli_identities,
    "gram-invariance": _verify_gram_invariance,
    "classical-subsystem": _verify_classical_subsystem,
    "markov-tail": _verify_markov_tail,
    "boxworld": _verify_boxworld,
}


def _run_verify(args: argparse.Namespace) -> dict:
    checks = _VERIFY_SUITES[args.suite](args.seed, args.samples)
    return {"checks": checks, "passed": bool(all(c["passed"] for c in checks))}


def _run_two_design(args: argparse.Namespace) -> dict:
    frame = grouprep.frame_potential(grouprep.clifford_unitaries(args.k))
    dev = abs(frame - 2.0)
    bound = 1e-12 if args.k == 1 else 1e-11
    return {"k": args.k, "frame_potential": frame, "max_deviation": dev, "bound": bound,
            "passed": bool(dev < bound)}


def _run_coin_record(args: argparse.Namespace) -> dict:
    res = faces_mod.coin_with_record(args.s0, args.samples, args.seed)
    slack = 3.0 * res.report.stderr if res.report.stderr > 0 else 1e-12
    passed = abs(res.report.mean - res.prediction.value) <= slack
    return {"result": res.report.to_json_dict(),
            "prediction": res.prediction.to_json_dict(),
            "passed": bool(passed)}


# -- report output -----------------------------------------------------------------------


def _config_dict(args: argparse.Namespace, argv: list[str]) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "format") and v is not None}
    cfg["argv"] = list(argv)
    return cfg


def _histogram_csv(report: dict) -> str:
    hist = report.get("result", {}).get("histogram")
    if hist is None:
        raise GptPurityError("csv format requires a histogram-bearing estimate report")
    lines = ["bin_lo,bin_hi,count"]
    edges = hist["edges"]
    for lo, hi, count in zip(edges[:-1], edges[1:], hist["counts"]):
        lines.append(f"{lo!r},{hi!r},{count}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "predict":
            body = _run_predict(args)
        elif args.command == "estimate":
            body = _run_estimate(args)
        elif args.command == "verify":
            body = _run_verify(args)
        elif args.command == "two-design":
            body = _run_two_design(args)
        else:
            body = _run_coin_record(args)
    except GptPurityError as exc:
        print(f"gptpurity: error: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, "config": _config_dict(args, argv), **body}
    if args.format == "csv":
        try:
            text = _histogram_csv(report)
        except GptPurityError as exc:
            print(f"gptpurity: error: {exc}", file=sys.stderr)
            return 1
    else:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"gptpurity: error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    if "passed" in report and not report["passed"]:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

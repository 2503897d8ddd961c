"""Command-line front end: predictors, estimators, and verification suites.

Reports are JSON documents with the parsed configuration echoed under
``config``; histograms can be written as CSV with columns
``bin_lo,bin_hi,count``.  Identical argument vectors (including seeds)
produce byte-identical reports.  Exit codes: 0 success, 2 verification
failure, 1 usage error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import json
import math
import sys

from .errors import GptPurityError


def _lazy(name: str) -> None:
    """Register layer ``name`` of this package, to run on its first attribute access.

    An already loaded module is reused.  The module is bound on the package
    too, so ``from . import name`` finds it there and does not run it.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


# Every layer is in sys.modules from here on, but a command runs only the
# layers it reads: a quantum estimate runs randomize, not the descriptors,
# Grams, faces and suites it does not need.
for _name in ("statespace", "grouprep", "composite", "purity", "boxworld", "randomize",
              "faces", "checks"):
    _lazy(_name)

# Imported after the registration, so binding a layer here does not run it.
from . import checks  # noqa: E402
from . import faces as faces_mod  # noqa: E402
from . import grouprep  # noqa: E402
from . import randomize as rnd  # noqa: E402

# The interpreter's final collections would walk every object the command
# created (numpy's included, which loads after this module).  An exit hook
# registered now runs after the report is written and --out is closed, and
# moves them all to the permanent generation, which those sweeps skip.
atexit.register(gc.freeze)


class _SuiteNames:
    """``verify``'s choices: the names of ``checks.SUITES``, read only when they are tested.

    argparse tests a value against its choices, and lists them in help and
    errors, only when a ``verify`` command is parsed, so no other command runs
    ``checks`` to build the parser.
    """

    def __contains__(self, name: object) -> bool:
        return name in checks.SUITES

    def __iter__(self):
        return iter(checks.SUITES)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 and one line on usage errors."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv is valid only for histogram-bearing estimates")

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

    # Raw help text, so no suite name is broken at its hyphen.
    ver = sub.add_parser("verify", parents=[common], help="bounded verification suites",
                         formatter_class=argparse.RawTextHelpFormatter)
    ver.add_argument("suite", choices=_SuiteNames(), metavar="SUITE",
                     help="one of: %(choices)s")
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


def _run_predict(args: argparse.Namespace) -> dict:
    if args.formula == "main":
        pred = rnd.predict_main(args.ka, args.kb, args.na, args.nb, args.p0)
    elif args.formula == "general":
        pred = rnd.predict_general(args.theory, args.na, args.nb, args.p0)
    elif args.formula == "power-law":
        pred = rnd.predict_power_law(args.r, args.na, args.nb, args.p0)
    elif args.formula == "nonlocaltomo":
        pred = rnd.predict_real_quantum(args.ma, args.mb, args.p0)
    elif args.formula == "symm":
        pred = faces_mod.predict_symm(args.n, 1 if args.sign == "+" else -1, args.trp)
    else:
        face = faces_mod.sym_face(args.n) if args.sign == "+" else faces_mod.antisym_face(args.n)
        pred = faces_mod.predict_qface(face, faces_mod.default_probe(args.n), args.trp)
    return pred.to_json_dict()


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
        prediction = rnd.predict_real_quantum(args.ma, args.mb, args.p0)
    else:
        _require(args, ["na", "nb", "p0"])
        report = rnd.estimate_expected_local_purity(
            args.theory, args.na, args.nb, args.p0, args.samples, args.seed, histogram_bins=bins
        )
        prediction = rnd.predict_general(args.theory, args.na, args.nb, args.p0)
    return {"result": report.to_json_dict(), "prediction": prediction.to_json_dict()}


def _run_verify(args: argparse.Namespace) -> dict:
    results = checks.run_suite(args.suite, args.seed, args.samples)
    return {"checks": [c.to_json_dict() for c in results],
            "passed": all(c.passed for c in results)}


def _run_two_design(args: argparse.Namespace) -> dict:
    frame = grouprep.frame_potential(grouprep.clifford_unitaries(args.k))
    check = checks.Check("two-design", abs(frame - 2.0), checks.EXACT if args.k == 1 else 1e-11)
    return {"k": args.k, "frame_potential": frame, "max_deviation": check.value,
            "bound": check.bound, "passed": check.passed}


def _run_coin_record(args: argparse.Namespace) -> dict:
    res = faces_mod.coin_with_record(args.s0, args.samples, args.seed)
    # Only a record of one string has sigma = 0: every sample is then exact.
    check = checks.Check("coin-record", abs(res.report.mean - res.prediction.value),
                         3.0 * res.sigma / math.sqrt(res.report.n_samples) if res.sigma > 0
                         else checks.EXACT)
    return {"result": res.report.to_json_dict(),
            "prediction": res.prediction.to_json_dict(),
            "passed": check.passed}


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


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse an integer option other than ``--seed`` of magnitude 2^63 or more.

    No array dimension or sample count can be that large, and such an
    integer would overflow a float or the decimal conversion of a message.
    """
    for name, value in vars(args).items():
        if name != "seed" and isinstance(value, int) and abs(value) >= 2**63:
            raise GptPurityError(f"--{name} has {value.bit_length()} bits; "
                                 "counts must be below 2^63")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
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

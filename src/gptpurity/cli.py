"""Command-line front end: predictors, estimators, and verification suites.

The command line is read by ``parse_args``, bound here from ``options``,
whose one option table also prints every level's ``-h`` help; no argparse
is loaded.  Reports are JSON documents with the parsed configuration echoed
under ``config``; histograms can be written as CSV with columns
``bin_lo,bin_hi,count``.  Identical argument vectors (including seeds)
produce byte-identical reports.  Exit codes: 0 success (and help), 2
verification failure, 1 usage error.
"""

from __future__ import annotations

import atexit
import gc
import importlib.util
import json
import math
import sys
from types import SimpleNamespace

from .errors import EXACT, Check, GptPurityError
from .options import parse_args


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
# layers it reads: an exact prediction runs formulas alone, with no numpy, a
# quantum estimate runs randomize and blocks, not the descriptors, Grams, faces
# and suites it does not need, and two-design runs grouprep alone, with no numpy.
# No command draws or enumerates a group element: grouprep walks orbits from
# generators, so no Haar sampler or closure is in the package.
for _name in ("statespace", "grouprep", "composite", "purity", "boxworld",
              "formulas", "blocks", "randomize", "faces", "checks"):
    _lazy(_name)

# Imported after the registration, so binding a layer here does not run it.
from . import checks  # noqa: E402
from . import faces as faces_mod  # noqa: E402
from . import formulas  # noqa: E402
from . import grouprep  # noqa: E402
from . import randomize as rnd  # noqa: E402

# The interpreter's final collections would walk every object the command
# created (numpy's included, which loads after this module).  An exit hook
# registered now runs after the report is written and --out is closed, and
# moves them all to the permanent generation, which those sweeps skip.
atexit.register(gc.freeze)


# -- command bodies ---------------------------------------------------------------------


def _run_predict(args: SimpleNamespace) -> dict:
    if args.formula == "main":
        pred = formulas.predict_main(args.ka, args.kb, args.na, args.nb, args.p0)
    elif args.formula == "general":
        pred = formulas.predict_general(args.theory, args.na, args.nb, args.p0)
    elif args.formula == "power-law":
        pred = formulas.predict_power_law(args.r, args.na, args.nb, args.p0)
    elif args.formula == "nonlocaltomo":
        pred = formulas.predict_general("real-quantum", args.ma, args.mb, args.p0)
    elif args.formula == "symm":
        pred = formulas.predict_symm(args.n, 1 if args.sign == "+" else -1, args.trp)
    else:
        pred = formulas.predict_qface(args.n, 1 if args.sign == "+" else -1, args.trp)
    return pred.to_json_dict()


# The options that describe an estimate's target; each target reads only some of them.
_TARGET_OPTIONS = ("na", "nb", "ma", "mb", "n", "p0", "trp")


def _require(args: SimpleNamespace, names: list[str]) -> None:
    """Refuse a target option in ``names`` that is missing, or one not in them that is given."""
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise GptPurityError(f"missing required options: {', '.join('--' + m for m in missing)}")
    stray = [n for n in _TARGET_OPTIONS if n not in names and getattr(args, n) is not None]
    if stray:
        target = f"--face {args.face}" if args.face is not None else f"--theory {args.theory}"
        raise GptPurityError(f"{target} does not read {', '.join('--' + s for s in stray)}")


def _run_estimate(args: SimpleNamespace) -> dict:
    if args.face is not None:
        _require(args, ["n", "trp"])
        sign = 1 if args.face == "sym" else -1
        report = faces_mod.estimate_face_local_purity(
            args.n, sign, args.trp, args.samples, args.seed, histogram=args.histogram
        )
        prediction = formulas.predict_symm(args.n, sign, args.trp)
    else:
        # Real quantum spells its level counts --ma and --mb.
        a, b = ("ma", "mb") if args.theory == "real-quantum" else ("na", "nb")
        _require(args, [a, b, "p0"])
        n_a, n_b = getattr(args, a), getattr(args, b)
        report = rnd.estimate_expected_local_purity(
            args.theory, n_a, n_b, args.p0, args.samples, args.seed, histogram=args.histogram
        )
        prediction = formulas.predict_general(args.theory, n_a, n_b, args.p0)
    return {"result": report.to_json_dict(), "prediction": prediction.to_json_dict()}


def _run_verify(args: SimpleNamespace) -> dict:
    results = checks.run_suite(args.suite, args.seed, args.samples)
    return {"checks": [c.to_json_dict() for c in results],
            "passed": all(c.passed for c in results)}


def _run_two_design(args: SimpleNamespace) -> dict:
    # F = (1/|G|) sum_g |Tr g|^4 is the count of the forms that the Cliffords fix on the
    # Pauli coordinates, whose character is |Tr g|^2; a 2-design has F = 2 exactly.
    forms = grouprep.invariant_form_count(grouprep.clifford_generators(args.k), 2)
    check = Check("two-design", float(abs(forms - 2)), 0.0)
    return {"k": args.k, "frame_potential": float(forms), "max_deviation": check.value,
            "bound": check.bound, "passed": check.passed}


def _run_coin_record(args: SimpleNamespace) -> dict:
    report = faces_mod.coin_with_record(args.s0, args.samples, args.seed)
    prediction = formulas.predict_coin_record(args.s0)
    sigma = formulas.coin_record_sigma(args.s0)
    # Only a record of one string has sigma = 0: every sample is then exact.
    check = Check("coin-record", abs(report.mean - prediction.value),
                  3.0 * sigma / math.sqrt(report.n_samples) if sigma > 0 else EXACT)
    return {"result": report.to_json_dict(), "prediction": prediction.to_json_dict(),
            "passed": check.passed}


# -- report output -----------------------------------------------------------------------


def _config_dict(args: SimpleNamespace, argv: list[str]) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "format") and v is not None}
    cfg["argv"] = list(argv)
    return cfg


def _histogram_csv(hist: dict) -> str:
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


def _check_counts(args: SimpleNamespace) -> None:
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
    args = parse_args(argv)
    try:
        _check_counts(args)
        # Refused before the command runs, so that no estimate is drawn for it.
        if args.format == "csv" and not getattr(args, "histogram", False):
            raise GptPurityError("csv format requires a histogram-bearing estimate report")
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
        text = _histogram_csv(report["result"]["histogram"])
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

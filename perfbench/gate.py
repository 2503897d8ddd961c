"""Correctness gate applied to every command the benchmark runs.

A command fails when it raises or exits with a code other than 0 or 2, when
its stdout is not strict JSON (NaN and Infinity are rejected), when a
deterministic identity check reports ``passed: false``, or when a Monte
Carlo mean lies more than ``Z_FAIL`` standard errors from the report's own
prediction.  The CLI's 3-sigma verdicts are recorded but not counted: they
fail by chance about 0.3% of the time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

Z_FAIL = 5.0
# Absolute agreement tolerance of the acceptance suite (tests/test_acceptance.py).
ROUNDING = 1e-12

# Checks of ``verify`` suites whose ``bound`` is a 3-sigma Monte Carlo band.
MC_CHECKS = frozenset({"haar-average-qubit"})

# Tolerance of the cross-check of quantum predictions against Page's formula.
PAGE_TOL = 1e-9


@dataclass
class Verdict:
    """Outcome of the gate for one command."""

    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    z: float | None = None
    within_3sigma: bool | None = None
    cli_3sigma: bool | None = None

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def page_local_purity(na: int, nb: int) -> float:
    """Expected local purity of a Haar-random pure na x nb state.

    Page's mean Tr(rho_A^2) = (na + nb) / (na nb + 1) (Lubkin 1978, Page 1993),
    rescaled so that pure states have purity 1 and I/na has purity 0.
    """
    return (na * (na + nb) / (na * nb + 1) - 1.0) / (na - 1)


def _score(v: Verdict, diff: float, stderr: float) -> None:
    """Record z = diff / stderr and fail the command beyond ``Z_FAIL``.

    A difference within ``ROUNDING`` is exact agreement, z = 0: when every
    sample has the same value (classical coin tossing) the stderr is itself
    rounding noise.
    """
    if abs(diff) <= ROUNDING:
        z = 0.0
    else:
        z = diff / stderr if stderr > 0 else math.copysign(math.inf, diff)
    v.z = z if v.z is None or abs(z) > abs(v.z) else v.z
    v.within_3sigma = abs(v.z) <= 3.0
    if abs(z) > Z_FAIL:
        v.fail(f"Monte Carlo estimate {z:+.2f} standard errors from its prediction")


def _check_page(v: Verdict, config: dict, value: float) -> None:
    if config.get("theory") == "quantum" and config.get("p0") == 1.0:
        expected = page_local_purity(config["na"], config["nb"])
        if abs(value - expected) > PAGE_TOL:
            v.fail(f"prediction {value!r} differs from Page's {expected!r}")


def judge(argv: list[str], returncode: int, stdout: str) -> Verdict:
    """Apply the gate to one finished command."""
    v = Verdict()
    if returncode not in (0, 2):
        v.fail(f"exit code {returncode}")
        return v
    try:
        report = strict_loads(stdout)
    except ValueError as exc:
        v.fail(f"stdout is not strict JSON: {exc}")
        return v
    if not isinstance(report, dict) or not isinstance(report.get("config"), dict) \
            or report["config"].get("argv") != argv:
        v.fail("report does not echo the command's argv")
        return v
    if returncode == 2 and report.get("passed") is not False:
        v.fail("exit code 2 without a failed check")
    try:
        _judge_body(v, argv[0], report)
    except (KeyError, TypeError) as exc:
        v.fail(f"report lacks an expected field: {exc!r}")
    return v


def _judge_body(v: Verdict, command: str, report: dict) -> None:
    config = report["config"]
    if command in ("estimate", "coin-record"):
        result, prediction = report["result"], report["prediction"]
        if result["n_samples"] != config["samples"]:
            v.fail(f"{result['n_samples']} samples reported, {config['samples']} requested")
        _score(v, result["mean"] - prediction["value"], result["stderr"])
        if command == "coin-record":
            v.cli_3sigma = report["passed"]
        else:
            _check_page(v, config, prediction["value"])
    elif command == "verify":
        for check in report["checks"]:
            if check["name"] in MC_CHECKS:
                # value = |mean - expected| and bound = 3 stderr.
                _score(v, check["value"], check["bound"] / 3.0)
                v.cli_3sigma = check["passed"]
            elif not check["passed"]:
                v.fail(f"check {check['name']} failed")
    elif command == "two-design":
        if not report["passed"]:
            v.fail(f"two-design deviation {report['max_deviation']!r} over {report['bound']!r}")
    elif command == "predict" and config["formula"] == "general":
        _check_page(v, config, report["value"])

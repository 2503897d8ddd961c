"""Benchmark of the gptpurity command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes passes over the workload's seeded command list (workloads.py).
Every command runs in its own fresh interpreter, one after another: a
closed loop with a single client.  So each command is timed the way a user
pays for it, including process start, import, set-up and JSON output, and
no ``lru_cache`` state leaks from one command into the next.  Every report
goes through the correctness gate (gate.py) and its sha256 must equal that
of the same command in the first pass.

With ``--trace 0`` the result line holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run alternates untraced and traced
passes and the result line holds the per-layer metrics, medians over the
traced passes of per-pass sums (tracing.py).  A name that the program no
longer has reads 0.

Output: one JSON line with the environment, per-command hashes, z-scores
and failures, then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 2, with no result line, when the program cannot be run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads
from child import META_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# No pass starts that would likely end after DEADLINE_S, and a command still
# running then is killed, so a run ends inside the 180 s it may take.
DEADLINE_S = 150.0
TAIL_BEYOND = 10
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GPTPURITY_THREADS")
# A traced pass plus its untraced partner take about this many untraced passes.
TRACE_PAIR_COST = 2.5
# End-to-end times are normalized to a machine on which interpreter start
# plus ``import numpy`` takes REF_NUMPY_S (about its value on an idle 2-core
# x86-64 VM).  On a shared VM, other tenants' load slowed every command by up
# to 1.8x for minutes at a time; that start time, measured in every command
# and independent of gptpurity, slows with it.
REF_NUMPY_S = 0.1
SPEED_METRICS = {"pass_s": 1, "pass_cpu_s": 1, "cmd_s_p50": 1, "cmd_s_tail": 1, "setup_s": 1,
                 "mc_samples_per_s": -1}


@dataclass
class CommandRun:
    argv: list[str]
    wall_s: float
    cpu_s: float
    numpy_s: float | None
    setup_s: float | None
    max_rss_kb: int | None
    sha256: str
    verdict: gate.Verdict
    trace: dict | None
    stderr_tail: str


@dataclass
class PassRun:
    traced: bool
    wall_s: float
    runs: list[CommandRun]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GPTPURITY_THREADS", None)  # the CLI's default single worker
    return env


def run_command(argv: list[str], traced: bool, env: dict, timeout: float) -> CommandRun:
    """Run one CLI command in a fresh interpreter and gate its report."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), repr(start), "1" if traced else "0", "--", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    stderr, marker, meta_text = err.decode(errors="replace").rpartition(META_MARKER)
    try:
        meta = json.loads(meta_text) if marker else {}
    except ValueError:
        meta = {}
    if not marker:
        stderr = meta_text
    verdict = gate.judge(argv, proc.returncode, out.decode(errors="replace"))
    if not meta:
        verdict.fail("the command process ended before reporting")
    return CommandRun(
        argv=argv, wall_s=wall, cpu_s=cpu, numpy_s=meta.get("numpy_s"),
        setup_s=meta.get("setup_s"), max_rss_kb=meta.get("max_rss_kb"),
        sha256=hashlib.sha256(out).hexdigest(),
        verdict=verdict, trace=meta.get("trace"), stderr_tail=stderr.strip()[-400:],
    )


def run_pass(cmds: list[list[str]], traced: bool, env: dict, deadline: float) -> PassRun:
    start = time.monotonic()
    runs = [run_command(argv, traced, env, max(1.0, deadline - time.monotonic())) for argv in cmds]
    return PassRun(traced=traced, wall_s=time.monotonic() - start, runs=runs)


def tail(values: list[float]) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile, by nearest rank,
    with at least ``TAIL_BEYOND`` values beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100, s[-1], 0
    p = 100 * (n - TAIL_BEYOND) // n
    k = max(1, math.ceil(p * n / 100))
    return p, s[k - 1], n - k


def end_to_end(passes: list[PassRun]) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of untraced passes, and the tail percentile used."""
    runs = [r for p in passes for r in p.runs]
    walls = [r.wall_s for r in runs]
    pct, tail_s, beyond = tail(walls)

    def samples_per_s(pass_: PassRun) -> float:
        mc = [r for r in pass_.runs if workloads.samples_of(r.argv)]
        wall = sum(r.wall_s for r in mc)
        return sum(workloads.samples_of(r.argv) for r in mc) / wall if wall else 0.0

    values = {
        "pass_s": statistics.median(p.wall_s for p in passes),
        "pass_cpu_s": statistics.median(sum(r.cpu_s for r in p.runs) for p in passes),
        "cmd_s_p50": statistics.median(walls),
        "cmd_s_tail": tail_s,
        "setup_s": statistics.median([r.setup_s for r in runs if r.setup_s is not None] or [0.0]),
        "peak_rss_mb": statistics.median(
            max((r.max_rss_kb or 0) for r in p.runs) / 1024 for p in passes),
        "mc_samples_per_s": statistics.median(samples_per_s(p) for p in passes),
    }
    return values, {"percentile": pct, "count": len(walls), "beyond": beyond}


def normalize(values: dict[str, float], numpy_s: float) -> dict[str, float]:
    """Times and rates as on a machine where the numpy start takes ``REF_NUMPY_S``."""
    speed = REF_NUMPY_S / numpy_s
    return {k: v * speed ** SPEED_METRICS.get(k, 0) for k, v in values.items()}


def per_layer(traced: list[PassRun], untraced: list[PassRun]) -> dict[str, float]:
    """Per-pass sums of the trace tables, as medians over the traced passes."""
    per_pass = []
    for p in traced:
        flat: dict[str, float] = defaultdict(float)
        for r in p.runs:
            for fn, st in (r.trace or {}).items():
                flat[f"{fn}.calls"] += st["calls"]
                flat[f"{fn}.self_s"] += st["self_s"]
                if st["out_bytes"]:
                    flat[f"{fn}.out_bytes"] += st["out_bytes"]
                flat[f"{fn.split('.', 1)[0]}.self_s"] += st["self_s"]
        per_pass.append(flat)
    names = {name for flat in per_pass for name in flat}
    values = {name: statistics.median(flat.get(name, 0.0) for flat in per_pass) for name in names}
    values["traced_pass_s"] = statistics.median(p.wall_s for p in traced)
    values["trace_overhead"] = values["traced_pass_s"] / statistics.median(p.wall_s for p in untraced)
    return values


def select_metrics(wanted: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The ``wanted`` metrics of BENCHMARK.json; a name with no value reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def top_self_times(run: CommandRun, n: int = 5) -> list[list]:
    table = sorted((run.trace or {}).items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [[fn, st["calls"], st["self_s"], st["self_s"] / run.wall_s] for fn, st in table]


def numpy_info() -> dict:
    """The version and BLAS of the numpy that the children import too."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"version": numpy.__version__, "blas": blas}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int, cmds: list[list[str]]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        "workload_seed": seed,
        "argv": cmds,
    }


def plan(workload: str, seconds: int, trace: bool) -> list[bool]:
    """Which passes to make, as their ``traced`` flags.  The count depends
    only on the arguments, so every run pools the same number of commands
    and the tail percentile sits at the same rank."""
    nominal = workloads.NOMINAL_PASS_S[workload]
    if trace:
        return [False, True] * max(1, round(seconds / (TRACE_PAIR_COST * nominal)))
    min_passes = math.ceil((TAIL_BEYOND + 1) / len(workloads.WORKLOADS[workload]))
    return [False] * max(min_passes, round(seconds / nominal))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gptpurity" / "cli.py").is_file() or not spec_path.is_file():
        return fail_setup(f"no gptpurity sources or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    env = child_env()
    # Untimed warm-up: compiles the bytecode cache and fills the file cache,
    # which a user pays once, not on every command.
    warm = subprocess.run([sys.executable, "-c", "import gptpurity.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        return fail_setup(f"cannot import gptpurity.cli:\n{warm.stderr}")

    cmds = workloads.commands(args.workload, args.seed)
    passes: list[PassRun] = []
    for traced in plan(args.workload, args.seconds, bool(args.trace)):
        if len(passes) >= 2 and time.monotonic() + passes[-1].wall_s > deadline:
            break
        passes.append(run_pass(cmds, traced, env, deadline))

    first = passes[0].runs
    failures = []
    for i, p in enumerate(passes):
        for ref, r in zip(first, p.runs):
            if r.sha256 != ref.sha256:
                r.verdict.fail("report differs from the same command in the first pass")
            if not r.verdict.ok:
                failures.append({"pass": i, "argv": r.argv, "reasons": r.verdict.reasons,
                                 "stderr": r.stderr_tail})
    attempted = sum(len(p.runs) for p in passes)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    raw, tail_info = end_to_end(untraced)
    numpy_s = statistics.median([r.numpy_s for p in untraced for r in p.runs if r.numpy_s]
                                or [REF_NUMPY_S])
    e2e = normalize(raw, numpy_s)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "run_s": time.monotonic() - start,
        "environment": environment(args.seed, cmds),
        "commands": [
            {"argv": r.argv, "sha256": r.sha256, "z": r.verdict.z,
             "within_3sigma": r.verdict.within_3sigma, "cli_3sigma": r.verdict.cli_3sigma,
             "wall_s": [p.runs[i].wall_s for p in passes]}
            for i, r in enumerate(first)
        ],
        "reports_sha256": hashlib.sha256("".join(r.sha256 for r in first).encode()).hexdigest(),
        "failures": failures,
        "ops_failed_frac": len(failures) / attempted,
        "cmd_s_tail": tail_info,
        "numpy_s": numpy_s,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
    }
    if args.trace:
        layers = per_layer(traced, untraced)
        detail["per_command_top_self_s"] = [
            {"argv": r.argv, "wall_s": r.wall_s, "top": top_self_times(r)} for r in traced[0].runs
        ]
        detail["per_layer"] = dict(sorted(layers.items()))
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = select_metrics(wanted, values)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one gptpurity CLI command in this fresh interpreter, for the benchmark.

Usage: python3 child.py SPAWN_MONOTONIC TRACE -- CLI_ARGS...

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux), and ``TRACE`` is
0 or 1.  The report goes to stdout exactly as ``gptpurity.cli.main`` writes
it.  On exit, one line starting with ``META_MARKER`` is appended to stderr,
followed by a JSON record of the time to interpreter start plus ``import
numpy`` (no gptpurity code, so a machine-speed reference), the set-up time
to ``import gptpurity.cli``, the peak RSS and, when tracing, the
per-function trace table.
"""

import json
import resource
import sys
import time
import traceback

META_MARKER = "@@perfbench-meta@@"
EXIT_RAISED = 70

LAYERS = ("cli", "randomize", "faces", "composite", "statespace", "grouprep", "purity", "boxworld")
OUT_BYTES = frozenset({"composite.compose", "grouprep.analytic_gram"})


def _install_tracer():
    from tracing import Tracer

    layers = [sys.modules[f"gptpurity.{name}"] for name in LAYERS]
    namespaces = [m for n, m in sys.modules.items() if n == "gptpurity" or n.startswith("gptpurity.")]
    tracer = Tracer(measure_out_bytes=OUT_BYTES)
    tracer.install(layers, namespaces)
    return tracer


def main() -> int:
    spawned = float(sys.argv[1])
    trace = sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]

    import numpy  # noqa: F401 - gptpurity imports it first anyway

    numpy_s = time.monotonic() - spawned
    import gptpurity.cli  # set-up time ends when this import does

    setup_s = time.monotonic() - spawned
    tracer = _install_tracer() if trace else None
    try:
        rc = gptpurity.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the gate counts any escape as a failure; keep its traceback
        traceback.print_exc()
        rc = EXIT_RAISED
    sys.stdout.flush()
    meta = {
        "numpy_s": numpy_s,
        "setup_s": setup_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.table() if tracer else None,
    }
    sys.stderr.write(f"\n{META_MARKER}{json.dumps(meta)}\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())

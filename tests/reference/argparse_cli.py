"""The argparse front end that ``gptpurity.cli`` had before its option table.

``build_parser``, ``_Parser`` and ``_SuiteNames`` are kept as they were, so
``tests/test_cli.py`` can check that the table parser reads every generated
argument vector as this parser did, or refuses it as this one did.
"""

import argparse

from gptpurity import checks


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

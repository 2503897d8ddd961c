"""The option table of the ``gptpurity`` command line, and its parser.

The command line is read by ``parse_args`` from one option table,
``_TABLE``, from which ``usage`` lists every level's ``-h`` help; no
argparse is loaded.  Importing this module runs no layer of the package:
verify's SUITE choices, the names of ``checks.SUITES``, are read only when
a verify command line is parsed, and ``usage`` only when ``-h`` is.
``cli`` binds ``parse_args``; the table is a module of its own so that no
single compile of the front end's source holds both.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# Each option maps to (kind, default, help).  A kind is int, float or str,
# which converts a value as argparse's ``type=`` did; a tuple of the allowed
# values, converted with the type of the first; bool for a flag, which takes
# no value; or None for verify's SUITE, whose choices are the names of
# ``checks.SUITES``, read only when a verify command is parsed.  _REQUIRED
# marks an option with no default.
_REQUIRED = object()
# The top-level -h text.
_ABOUT = "Command-line front end: predictors, estimators, and verification suites."
_COMMON = {
    "--out": (str, None, "write the report to this path instead of stdout"),
    "--format": (("json", "csv"), "json", "csv is valid only for histogram-bearing estimates"),
}
_P0 = (float, _REQUIRED, "global generalized purity")
_LEVELS = {"--na": (int, _REQUIRED, "level count of part A"),
           "--nb": (int, _REQUIRED, "level count of part B"), "--p0": _P0}
_REAL = {"--ma": (int, _REQUIRED, "real-quantum level count of part A"),
         "--mb": (int, _REQUIRED, "real-quantum level count of part B"), "--p0": _P0}
_FACE = {"--n": (int, _REQUIRED, "local level count n of the face of C^n x C^n"),
         "--sign": (("+", "-"), _REQUIRED, "+ for the symmetric face, - for the antisymmetric"),
         "--trp": (float, _REQUIRED, "global Tr(rho^2)")}

# Each command or formula, by its words on the command line, maps to its help
# and its options, besides --out and --format; predict maps to None, and its
# formulas are the entries under it.
_TABLE = {
    ("predict",): ("closed-form expected local purity", None),
    ("predict", "main"): ("the paper's formula, from K and N of both parts", {
        "--ka": (int, _REQUIRED, "K of part A: the dimension of its state space's span"),
        "--kb": (int, _REQUIRED, "K of part B"),
        "--na": (int, _REQUIRED, "N of part A: its count of perfectly distinguishable states"),
        "--nb": (int, _REQUIRED, "N of part B"),
        "--p0": _P0}),
    ("predict", "general"): ("quantum or classical parts, from their level counts", {
        "--theory": (("quantum", "classical"), _REQUIRED, "the theory of both parts"),
        **_LEVELS}),
    ("predict", "power-law"): ("parts with K = N^r", {
        "--r": (int, _REQUIRED, "the exponent r"), **_LEVELS}),
    ("predict", "nonlocaltomo"): ("real quantum parts, which are not locally tomographic",
                                  _REAL),
    ("predict", "symm"): ("Tr(rho_A^2) on a face of C^n x C^n, in closed form", _FACE),
    ("predict", "qface"): ("Tr(rho_A^2) on a face of C^n x C^n, by index sums", _FACE),
    ("estimate",): ("Monte Carlo expected local purity", {
        "--theory": (("quantum", "classical", "real-quantum"), None,
                     "the theory of both parts (or --face)"),
        "--face": (("sym", "antisym"), None, "the face of C^n x C^n to draw from (or --theory)"),
        "--na": (int, None, "level/outcome count of part A"),
        "--nb": (int, None, "level/outcome count of part B"),
        "--ma": (int, None, "real-quantum level count of part A"),
        "--mb": (int, None, "real-quantum level count of part B"),
        "--n": (int, None, "local level count for face estimates"),
        "--p0": (float, None, "global generalized purity"),
        "--trp": (float, None, "global Tr(rho^2) for face estimates"),
        "--samples": (int, 10_000, "Monte Carlo sample count"),
        "--seed": (int, _REQUIRED, "seed of the draws"),
        "--histogram": (bool, False, "attach a 100-bin histogram of the per-sample values")}),
    ("verify",): ("bounded verification suites", {
        "SUITE": (None, _REQUIRED, "the suite to run, one of:"),
        "--seed": (int, 2024, "seed of the sampling suites"),
        "--samples": (int, 10_000, "sample count of the sampling suites")}),
    ("two-design",): ("Clifford second-moment identity", {
        "--k": ((1, 2), 1, "qubit count of the Clifford group")}),
    ("coin-record",): ("coin tossing against a recording environment", {
        "--s0": (int, _REQUIRED, "count of the recorded strings that accompany coin value 0"),
        "--samples": (int, 10_000, "Monte Carlo sample count"),
        "--seed": (int, _REQUIRED, "seed of the draws")}),
}
# The names the words of a path are stored under, and estimate's two
# targets, each mapped to the other: exactly one of them is given.
_DESTS = ("command", "formula")
_ONE_OF = {"--theory": "--face", "--face": "--theory"}


def _fail(message: str) -> None:
    """Refuse the command line with one line, as every usage error does."""
    print(f"gptpurity: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _choices(kind) -> tuple | None:
    if kind is None:
        # cli has registered checks lazily, so only this attribute read runs it.
        from . import checks

        return tuple(checks.SUITES)
    return kind if isinstance(kind, tuple) else None


def _option(item: str, names: list[str]) -> tuple[str | None, str | None] | None:
    """How argparse read ``item`` among the options ``names``.

    An option gives (its name, its ``=`` value or None): ``--name`` and
    ``--name=value`` by the whole name or, as ``allow_abbrev``, by the one
    name they begin (a prefix of two names is an error), and ``-h``,
    ``-hvalue`` and ``-h=value`` as ``--help``.  An unknown option gives
    (None, None), and a positional item None: one that does not begin with a
    dash, ``-``, ``--``, a negative number, or an unknown one that holds a
    space.
    """
    if not item.startswith("-") or item in ("-", "--"):
        return None
    if item.startswith("-h"):
        return "--help", item[3:] if item[2:3] == "=" else item[2:] or None
    name, eq, value = item.partition("=")
    found = ([name] if name in names
             else [n for n in names if n.startswith(name)] if name.startswith("--") else [])
    if len(found) > 1:
        _fail(f"ambiguous option: {item} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    whole, dot, frac = item[1:].partition(".")
    if (whole.isdecimal() or dot and not whole) and (not dot or frac.isdecimal()) or " " in item:
        return None
    return None, None


def _value(name: str, kind, text: str):
    """``text`` converted by the option's kind, and checked against its choices."""
    choices = _choices(kind)
    convert = type(choices[0]) if choices else kind
    try:
        value = convert(text)
    except ValueError:
        _fail(f"argument {name}: invalid {convert.__name__} value: {text!r}")
    if choices is not None and value not in choices:
        _fail(f"argument {name}: invalid choice: {value!r} "
              f"(choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read a command line by the option table, as argparse read it.

    The command, and predict's formula, come first; before them -h or --help
    prints that level's help.  Then options come in any order, around
    verify's SUITE, as ``--name value`` or ``--name=value``, by whole name or
    unique prefix; a repeated option keeps its last value, and ``--`` next
    to verify's SUITE makes every item after it positional.  An option's
    value is the next item, even one that begins with a dash (``--trp
    -inf``).  Help goes to stdout and exits 0; a usage error is one line on
    stderr and exits 1.  The namespace holds the command, predict's formula,
    and every option of the command, with its default where none was given
    (None for a required one).
    """
    path, values, seen, unknown, rest, suite_at = (), {}, set(), [], False, None
    about, options, names = _ABOUT, None, ["--help"]
    items = enumerate(argv)
    for index, item in items:
        if item == "--" and options is not None and not rest:
            # It ends the options; like argparse, it is dropped only right
            # before or after verify's SUITE.
            rest = True
            if "SUITE" not in options or "SUITE" in seen and suite_at != index - 1:
                unknown.append(item)
            continue
        found = None if rest else _option(item, names)
        if found == (None, None):
            unknown.append(item)
        elif found:
            name, text = found
            kind = bool if name == "--help" else options[name][0]
            if kind is bool and text is not None:
                shown = "-h/--help" if name == "--help" else name
                _fail(f"argument {shown}: ignored explicit argument {text!r}")
            if name == "--help":
                from .usage import _help

                sys.stdout.write(_help(path, about, options))
                raise SystemExit(0)
            if kind is not bool and text is None:
                text = next(items, (None, None))[1]
                if text is None:
                    _fail(f"argument {name}: expected one argument")
            # Like argparse, convert the value before refusing the other target.
            values[name[2:]] = True if kind is bool else _value(name, kind, text)
            if _ONE_OF.get(name) in seen:
                _fail(f"argument {name}: not allowed with argument {_ONE_OF[name]}")
            seen.add(name)
        elif options is None:
            words = [p[-1] for p in _TABLE if p[:-1] == path]
            if item not in words:
                _fail(f"argument {_DESTS[len(path)]}: invalid choice: {item!r} "
                      f"(choose from {', '.join(map(repr, words))})")
            values[_DESTS[len(path)]] = item
            path += (item,)
            about, options = _TABLE[path]
            if options is not None:
                options = {**_COMMON, **options}
                names = ["--help"] + [name for name in options if name.startswith("--")]
                values.update((name.lstrip("-").lower(), None if spec[1] is _REQUIRED else spec[1])
                              for name, spec in options.items())
                # Like argparse, refuse an ambiguous prefix before reading any option.
                after = argv[index + 1:]
                for later in after[:after.index("--")] if "--" in after else after:
                    _option(later, names)
        elif "SUITE" in options and "SUITE" not in seen:
            values["suite"] = _value("SUITE", None, item)
            seen.add("SUITE")
            suite_at = index
        else:
            unknown.append(item)
    if options is None:
        _fail(f"the following arguments are required: {_DESTS[len(path)]}")
    missing = [name for name, spec in options.items() if spec[1] is _REQUIRED and name not in seen]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if _ONE_OF.keys() <= options.keys() and not _ONE_OF.keys() & seen:
        _fail(f"one of the arguments {' '.join(_ONE_OF)} is required")
    if unknown:
        _fail(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)

"""README's module table names only what its modules hold.

Every backticked identifier in a row of the "Library layout" table (an
optional call's argument list dropped) must resolve as an attribute path of
that row's module, of a class defined there, or of the package, whose
modules resolve by name (``formulas``, ``errors.Check``), and a call may list
no more arguments than its def or NamedTuple takes.  Backticked text that is
no identifier (a path, a command line, a string) is prose; so are the
identifiers in ``PROSE``.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import gptpurity

README = Path(__file__).resolve().parents[1] / "README.md"

# Backticked identifiers that name no attribute: a command, the package's
# command-line name and the constant P(phi x mu) of the composite row.
PROSE = {"verify", "gptpurity", "P(phi x mu)"}

_ROW = re.compile(r"\| `(\w+)`\s*\|(.*)\|")
_IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\((.*)\))?")


def table_rows(text: str) -> list[tuple[str, list[str]]]:
    """(module, backticked tokens) of each row of the module table in ``text``."""
    table = text[text.index("| module "):]
    table = table[:table.index("\n\n")]
    return [(m.group(1), re.findall(r"`([^`]+)`", m.group(2)))
            for m in map(_ROW.fullmatch, table.splitlines()) if m]


def _resolves(root: object, path: str, args: str | None) -> bool:
    """Whether ``path`` is an attribute path of ``root`` that takes ``args``, if given."""
    for part in path.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    if not args or not callable(root):
        return True
    params = inspect.signature(root).parameters.values()
    return (any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params)
            or len(args.split(",")) <= len(params))


def unresolved(module_name: str, tokens: list[str]) -> list[str]:
    """The identifier tokens of a row that its module, its classes and the package lack,
    or whose argument list is longer than the def or NamedTuple it calls takes."""
    module = importlib.import_module(f"gptpurity.{module_name}")
    roots = [module, gptpurity] + [c for c in vars(module).values()
                                   if inspect.isclass(c) and c.__module__ == module.__name__]
    missing = []
    for token in tokens:
        match = _IDENTIFIER.fullmatch(token)
        if token in PROSE or match is None:
            continue
        path, args = match.groups()
        # A package module resolves once it is imported.
        head = path.split(".")[0]
        if importlib.util.find_spec(f"gptpurity.{head}") is not None:
            importlib.import_module(f"gptpurity.{head}")
        if not any(_resolves(root, path, args) for root in roots):
            missing.append(token)
    return missing


def test_module_table_names_only_existing_attributes():
    rows = table_rows(README.read_text(encoding="utf-8"))
    assert {name for name, _ in rows} >= {"formulas", "randomize", "faces", "cli"}
    missing = {name: unresolved(name, tokens) for name, tokens in rows}
    assert {name: m for name, m in missing.items() if m} == {}


def test_module_table_check_sees_a_stale_name():
    planted = ("| module | contents |\n|---|---|\n"
               "| `faces` | `estimate_face_local_purity(n, sign, trp)`, `FaceDescriptor`, "
               "`tests/states.py`, `formulas.predict_real_quantum`, `errors.Check` |\n\n")
    [(name, tokens)] = table_rows(planted)
    assert unresolved(name, tokens) == ["FaceDescriptor", "formulas.predict_real_quantum"]


def test_module_table_check_sees_a_stale_argument_list():
    planted = ("| module | contents |\n|---|---|\n"
               "| `formulas` | `predict_qface(n, sign, trp, probe)`, `predict_symm(n, sign, trp)`, "
               "`Prediction(value, formula_id, inputs)`, `Prediction(value, formula_id, inputs, "
               "checks)`, `predict_coin_record()`, `errors.Check(name, value, bound)` |\n\n")
    [(name, tokens)] = table_rows(planted)
    assert unresolved(name, tokens) == ["predict_qface(n, sign, trp, probe)",
                                        "Prediction(value, formula_id, inputs, checks)"]

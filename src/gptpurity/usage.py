"""The ``-h`` help of every level of the ``gptpurity`` command line.

``options.parse_args`` imports this module only when it reads ``-h`` or
``--help``, so no other command line compiles the help's layout.
"""

from __future__ import annotations

from .options import _DESTS, _REQUIRED, _TABLE, _choices


def _help(path: tuple[str, ...], about: str, options: dict | None) -> str:
    """The usage and help of a level, listed from the table."""
    prog = " ".join(("gptpurity",) + path)
    if options is None:
        rows = [(p[-1], _TABLE[p][0]) for p in _TABLE if p[:-1] == path]
        usage = f"{prog} {{{','.join(name for name, _ in rows)}}} ..."
        title = f"{_DESTS[len(path)]}s:"
    else:
        rows = []
        for name, (kind, default, text) in options.items():
            choices = _choices(kind)
            if kind is None:
                text = f"{text} {', '.join(choices)}"
            elif kind is not bool:
                name += (f" {{{','.join(map(str, choices))}}}" if choices
                         else f" {kind.__name__.upper()}")
                text += (" (required)" if default is _REQUIRED
                         else "" if default is None else f" (default: {default})")
            rows.append((name, text))
        usage = f"{prog}{' SUITE' if 'SUITE' in options else ''} [options]"
        title = "arguments:"
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"usage: {usage}", "", about, "", title]
    lines += [f"  {name:<{width}}{text}" for name, text in rows]
    return "\n".join(lines) + "\n"

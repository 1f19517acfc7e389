"""Run one ``desctl`` command with spans around the calls the CLI makes.

Usage: ``python3 perfbench/cli_child.py SPANS_FILE ARG...`` behaves like
``python -m desctl.cli ARG...`` and also writes, on exit, the spans of every
call from ``desctl.cli`` into another module, as a JSON list.  Only the CLI's
own references are wrapped: calls nested inside a layer stay in the self time
of the call that made them, as they do in process.
"""

from __future__ import annotations

import json
import sys
import types

from common import LAYERS, call
from desctl import cli
from spans import Recorder

# Attribute of desctl.cli -> span name, for functions it imported by name.
DIRECT = {
    "load_automaton": "automata.load_automaton",
    "save_automaton": "automata.save_automaton",
    "parallel": "compose.parallel",
    "check_controllability": "control.check_controllability",
    "check_nonconflicting": "control.check_nonconflicting",
    "supcon": "control.supcon",
}


def _wrapped(rec: Recorder, span_name: str):
    return lambda *args, **kwargs: call(rec, span_name, *args, **kwargs)


def instrument(rec: Recorder) -> None:
    for attr, name in DIRECT.items():
        setattr(cli, attr, _wrapped(rec, name))
    # Modules the CLI reaches through an attribute get a proxy namespace, so
    # that the module's own internal calls are left alone.
    for module in ("espec", "sim", "fms", "dot"):
        real = getattr(cli, module)
        proxy = types.SimpleNamespace(**vars(real))
        for name in LAYERS:
            prefix, func = name.split(".")
            if prefix == module:
                setattr(proxy, func, _wrapped(rec, name))
        setattr(cli, module, proxy)


def main() -> None:
    spans_file, args = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.tracing = True
    instrument(rec)
    try:
        cli.main(args, prog_name="desctl")
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end, "counts": s.counts}
                       for s in rec.spans], fh)


if __name__ == "__main__":
    main()

"""Graphviz DOT export for automata."""

from __future__ import annotations

from .automata import Automaton, pairs


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: Automaton) -> str:
    """DOT text: marked states double-circled, uncontrollable edges dashed."""
    lines = [f"digraph {_quote(a.name)} {{", "  rankdir=LR;"]
    if a.initial is not None:
        lines.append('  __init [shape=point, label=""];')
    for q in a.states:
        shape = "doublecircle" if a.is_marked(q) else "circle"
        lines.append(f"  {_quote(q)} [shape={shape}];")
    if a.initial is not None:
        lines.append(f"  __init -> {_quote(a.initial)};")
    # Each name and each event's attributes are quoted once, not once per edge.
    names = list(map(_quote, a.states))
    labels = [f"[label={_quote(e)}{'' if c else ', style=dashed'}]" for e, c in a.alphabet.entries]
    for q, row in zip(names, a.out):
        for e, t in pairs(row):
            lines.append(f"  {q} -> {names[t]} {labels[e]};")
    lines.append("}")
    return "\n".join(lines) + "\n"

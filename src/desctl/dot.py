"""Graphviz DOT export for automata."""

from __future__ import annotations

from .automata import Automaton, edges_of


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
    edges = edges_of(a)
    for q in a.states:
        for e, t in edges(q):
            style = "" if a.alphabet.is_controllable(e) else ", style=dashed"
            lines.append(f"  {_quote(q)} -> {_quote(t)} [label={_quote(e)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

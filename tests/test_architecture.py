"""The model format is decided in one module.

An automaton's edges live in the integer out-edge lists ``Automaton.out``;
``Automaton.transitions`` is a by-name view of them for tests, the benchmark
and the boundary.  Only ``desctl.automata`` may read that view (or import
``edges_of``, a by-name edge index), so every other module works on the
integer core and names states and events through ``states`` and the alphabet.
A keyword argument ``transitions=`` to the constructor is not a read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "desctl"


def reads_of_the_name_map(source: str) -> list[int]:
    """Lines of ``source`` that read a ``.transitions`` attribute or import ``edges_of``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("transitions", "edges_of"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "edges_of" for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_reads_and_ignores_keywords():
    source = ("from .automata import edges_of\n"
              "t = a.transitions.get((q, e))\n"
              "b = Automaton(name='b', transitions={}, states=(), alphabet=x,\n"
              "              initial=None, marked=())\n"
              "n = automata.edges_of\n")
    assert reads_of_the_name_map(source) == [1, 2, 5]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "automata.py"),
                         ids=lambda p: p.name)
def test_only_automata_reads_the_transition_map(path):
    assert reads_of_the_name_map(path.read_text(encoding="utf-8")) == [], path.name

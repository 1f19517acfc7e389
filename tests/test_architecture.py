"""The model format is decided in one module.

An automaton's edges live in the integer out-edge lists ``Automaton.out``;
``Automaton.transitions`` is a by-name view of them for tests, the benchmark
and the boundary.  Only ``desctl.automata`` may read that view (or import
``edges_of``, a by-name edge index), so every other module works on the
integer core and names states and events through ``states`` and the alphabet.
A keyword argument ``transitions=`` to the constructor is not a read.

Corpus knowledge is kept in one module too: no event id of the reference
corpus appears in a ``desctl`` module other than ``desctl.fms``.
"""

import ast
import re
from pathlib import Path

import pytest

from desctl.fms import EVENT_IDS

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


# The completion events the simulator counts are the one corpus fact left in a
# generic module; ROADMAP item 4 leaves moving them to desctl.fms open.
CORPUS_EXCEPTIONS = {("sim.py", 'COMPLETION_EVENTS = {"1": "A.done1", "2": "A.done2"}')}


def corpus_event_lines(source: str) -> list[str]:
    """The lines of ``source``, stripped, that name a corpus event id as a whole word."""
    pattern = re.compile(rf"(?<![\w.])(?:{'|'.join(map(re.escape, sorted(EVENT_IDS)))})(?!\w)")
    return [line.strip() for line in source.splitlines() if pattern.search(line)]


def test_the_corpus_scan_finds_whole_ids():
    source = ('x = "A.on"\n'
              'y = "A.one", "XA.on", "B.A.on"\n'
              "    # the robot fires R.pick7.\n"
              "z = R.place10\n")
    assert corpus_event_lines(source) == ['x = "A.on"', "# the robot fires R.pick7."]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "fms.py"),
                         ids=lambda p: p.name)
def test_corpus_event_ids_stay_in_fms(path):
    found = corpus_event_lines(path.read_text(encoding="utf-8"))
    assert [line for line in found if (path.name, line) not in CORPUS_EXCEPTIONS] == []

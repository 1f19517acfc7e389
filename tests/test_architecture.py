"""The model format is decided in one module.

An automaton's edges live in the integer out-edge lists ``Automaton.out``;
``Automaton.transitions`` is a by-name view of them for tests, the benchmark
and the boundary.  Only ``desctl.automata`` may read that view (or import
``edges_of``, a by-name edge index), so every other module works on the
integer core and names states and events through ``states`` and the alphabet.
A keyword argument ``transitions=`` to the constructor is not a read.

Corpus knowledge is kept in one module too: no event id of the reference
corpus appears in a ``desctl`` module other than ``desctl.fms``.

A round of ``desctl.control.supcon``'s fixpoint costs the states it touches:
no pass over all product states runs inside the fixpoint loop.

There is one ordered search: ``desctl.automata.explore`` is the only loop in
the package that takes items in the order it adds them (a ``for`` loop over a
list it grows, or a ``while`` loop taking from the front of one), and every
product, witness and subset construction is a call to it.
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
# generic module; ROADMAP item 6 leaves moving them to desctl.fms open.
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


def queue_loops(source: str) -> list[str]:
    """The functions of ``source`` with a breadth-first queue ("?" for one outside
    a function): a loop that takes items in the order it adds them to a name.

    That is a ``for`` loop over a name, or over ``enumerate`` of it, or a ``while``
    loop on a name whose body takes from its front (``popleft()`` or ``pop(0)``),
    where the body grows that name by ``append``, ``extend`` or ``+=``.  A stack,
    which pops from the back, is not a queue.
    """
    found = []

    def attr_call(n, name, attrs):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in attrs and getattr(n.func.value, "id", None) == name)

    def grows(n, name):
        return attr_call(n, name, ("append", "extend")) or (
            isinstance(n, ast.AugAssign) and getattr(n.target, "id", None) == name)

    def from_front(n, name):
        return attr_call(n, name, ("popleft",)) or (
            attr_call(n, name, ("pop",)) and len(n.args) == 1
            and isinstance(n.args[0], ast.Constant) and n.args[0].value == 0)

    def walked(loop):
        if isinstance(loop, ast.While):
            return loop.test.id if isinstance(loop.test, ast.Name) else None
        it = loop.iter
        if isinstance(it, ast.Call) and getattr(it.func, "id", None) == "enumerate" and it.args:
            it = it.args[0]
        return it.id if isinstance(it, ast.Name) else None

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.For, ast.While)) and (name := walked(child)) is not None:
                body = [n for stmt in child.body for n in ast.walk(stmt)]
                if any(grows(n, name) for n in body) and (
                        isinstance(child, ast.For) or any(from_front(n, name) for n in body)):
                    found.append(function)
            visit(child, function)

    visit(ast.parse(source), "?")
    return found


def test_the_queue_scan_finds_loops_that_take_what_they_add_in_order():
    source = ("def bfs(start, step):\n"
              "    order = [start]\n"
              "    for node in order:\n"
              "        for t in step(node):\n"
              "            if t not in order:\n"
              "                order.append(t)\n"
              "def numbered(start, step):\n"
              "    order = [start]\n"
              "    for i, node in enumerate(order):\n"
              "        order.extend(step(node))\n"
              "def summed(start, step):\n"
              "    order = [start]\n"
              "    for node in order:\n"
              "        order += step(node)\n"
              "def fifo(q, step):\n"
              "    while q:\n"
              "        q.append(step(q.popleft()))\n"
              "def front(q, step):\n"
              "    while q:\n"
              "        node = q.pop(0)\n"
              "        q += step(node)\n"
              "def copy(xs, ys):\n"
              "    for x in xs:\n"
              "        ys.append(x)\n"
              "    while xs:\n"
              "        xs.append(xs.pop())\n"
              "    while ys:\n"
              "        ys.extend(ys.pop(-1))\n"
              "    while xs:\n"
              "        ys.append(xs.popleft())\n"
              "for q in todo:\n"
              "    todo.append(q)\n")
    assert queue_loops(source) == ["bfs", "numbered", "summed", "fifo", "front", "?"]


def test_explore_is_the_only_breadth_first_queue():
    found = {p.name: queue_loops(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert {name: f for name, f in found.items() if f} == {"automata.py": ["explore"]}


# The names that ``control.supcon`` gives its arrays with one item per product
# state, and ``n``, their length.
PER_STATE = {"states", "nodes", "succ", "preds", "upreds", "marked", "good", "wit", "n"}
WHOLE_PASSES = {"range", "compress", "enumerate"}


def fixpoint_passes(source: str, function: str) -> list[str]:
    """The passes over all states in the fixpoint loop of ``function`` in ``source``.

    The fixpoint loop is the function's one ``while`` loop, and the scan follows
    it into each function of ``source`` that it calls by name.  A pass is a call
    of ``range``, ``compress`` or ``enumerate``, or a use of a ``PER_STATE`` name
    other than an index (``good[q]``, ``preds.__getitem__``) or an argument to a
    function the scan follows.
    """
    tree = ast.parse(source)
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    loops = [node for node in ast.walk(defs[function]) if isinstance(node, ast.While)]
    assert len(loops) == 1, f"{function} has {len(loops)} while loops, not one"
    found, followed = [], set()

    def scan(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in WHOLE_PASSES:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs:
            if node.func.id not in followed:
                followed.add(node.func.id)
                scan(defs[node.func.id])
            for arg in node.args + [k.value for k in node.keywords]:
                if getattr(arg, "id", None) not in PER_STATE:
                    scan(arg)
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            scan(node.slice)
        elif isinstance(node, ast.Attribute) and node.attr == "__getitem__":
            pass
        elif isinstance(node, ast.Name) and node.id in PER_STATE:
            if not isinstance(node.ctx, ast.Store):
                found.append(node.id)
        else:
            for child in ast.iter_child_nodes(node):
                scan(child)

    scan(loops[0])
    return found


def test_the_fixpoint_scan_finds_passes_over_all_states():
    source = ("def whole(plant, spec):\n"
              "    nodes, succ = product()\n"
              "    n, states = len(nodes), range(len(nodes))\n"
              "    while True:\n"
              "        removed = list(compress(states, map(and_, reachable(\n"
              "            upreds.__getitem__, removed, n), good)))\n"
              "        for q in removed:\n"
              "            good[q] = 0\n"
              "            preds[q] = upreds[q] = succ[q] = ()\n"
              "        coreach = reachable(preds.__getitem__, compress(\n"
              "            states, map(and_, marked, good)), n)\n"
              "        removed = [i for i in range(n) if good[i] > coreach[i]]\n"
              "        if not removed:\n"
              "            break\n"
              "def helper(seeds, good, wit):\n"
              "    return [q for q in seeds if good[q] and wit[q] < 0]\n"
              "def sweep(seeds, good):\n"
              "    return [q for q, g in enumerate(nodes) if good[q]] + list(good)\n"
              "def by_index(plant):\n"
              "    while doomed:\n"
              "        doomed = helper(doomed, good, wit)\n"
              "def by_sweep(plant):\n"
              "    while doomed:\n"
              "        doomed = sweep(helper(doomed, good, wit), good)\n"
              "        succ = bytearray(n)\n")
    assert fixpoint_passes(source, "whole") == [
        "compress(states, map(and_, reachable(upreds.__getitem__, removed, n), good))",
        "compress(states, map(and_, marked, good))", "n", "range(n)"]
    assert fixpoint_passes(source, "by_index") == []
    assert fixpoint_passes(source, "by_sweep") == ["enumerate(nodes)", "good", "n"]


def test_no_supcon_round_passes_over_all_states():
    assert fixpoint_passes((SRC / "control.py").read_text(encoding="utf-8"), "supcon") == []

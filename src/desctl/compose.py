"""Synchronous (parallel) composition."""

from __future__ import annotations

from typing import Sequence

from .automata import Alphabet, Automaton, InputError, empty_automaton, from_nodes


class ComposeError(InputError):
    pass


def merged_alphabet(automata: Sequence[Automaton]) -> Alphabet:
    """Union of alphabets in input order; flags must agree on shared events."""
    flags: dict[str, bool] = {}
    order: list[str] = []
    for a in automata:
        for eid, ctrl in a.alphabet.entries:
            if eid in flags:
                if flags[eid] != ctrl:
                    raise ComposeError(
                        f"event {eid!r} is controllable in one component and "
                        "uncontrollable in another"
                    )
            else:
                flags[eid] = ctrl
                order.append(eid)
    return Alphabet(tuple((e, flags[e]) for e in order))


def _declaring(automata: Sequence[Automaton], events) -> dict:
    """``{event: [(index, transitions), ...]}`` of the components declaring each event."""
    return {e: [(i, a.transitions) for i, a in enumerate(automata) if e in a.alphabet]
            for e in events}


def successors(automata: Sequence[Automaton], alphabet: Alphabet):
    """The synchronous step rule on tuples of component states.

    Returns ``step(cur)``, which lists ``(event, next)`` in ``alphabet``
    order for every event that each component declaring it can take.  A
    component that does not declare an event keeps its state.  Every event
    of ``alphabet`` must be declared by some component (ValueError if not).

    Each event is owned by the first component that declares it.  A step walks
    each owner's out-edges at ``cur`` and probes only the other components that
    declare the event, so it costs the enabled edges, not ``len(alphabet)``.  Each
    owner's events must form one block of ``alphabet``, owners in component order
    (ValueError if not), as in :func:`merged_alphabet` and a plant alphabet with the plant first.
    """
    # The out-edge index lives for this call only; nothing is cached on the automata.
    declaring = _declaring(automata, alphabet.events)
    for e, d in declaring.items():
        if not d:
            raise ValueError(f"no component declares the event {e!r}")
    owner = {e: d[0][0] for e, d in declaring.items()}
    if list(owner.values()) != sorted(owner.values()):
        raise ValueError("the alphabet does not list each owner's events in one block")
    index = []
    for i in dict.fromkeys(owner.values()):
        # The rank and the other declaring components of each event that i owns.
        mine = {e: (k, declaring[e][1:]) for k, e in enumerate(alphabet.events) if owner[e] == i}
        rows: dict = {}
        unsorted = set()
        for (q, e), t in automata[i].transitions.items():
            if (m := mine.get(e)) is not None:
                row = rows.setdefault(q, [])
                if row and mine[row[-1][0]][0] > m[0]:
                    unsorted.add(q)
                row.append((e, t, m[1]))
        for q in unsorted:
            rows[q].sort(key=lambda edge: mine[edge[0]][0])
        index.append((i, rows))

    def step(cur):
        edges = []
        for i, rows in index:
            for e, t, rest in rows.get(cur[i], ()):
                nxt = list(cur)
                nxt[i] = t
                for j, trans in rest:
                    t = trans.get((cur[j], e))
                    if t is None:
                        break
                    nxt[j] = t
                else:
                    edges.append((e, tuple(nxt)))
        return edges

    return step


def fired(automata: Sequence[Automaton], events):
    """``go(cur, e)``: the tuple after ``e`` fires at ``cur``, or None if ``e`` is disabled."""
    # Only the components that declare ``e`` are walked.
    table = _declaring(automata, events)

    def go(cur, e):
        nxt = list(cur)
        # An event outside ``events`` is disabled, as if by an empty first component.
        for i, trans in table.get(e, ((0, {}),)):
            if (t := trans.get((cur[i], e))) is None:
                return None
            nxt[i] = t
        return tuple(nxt)

    return go


def all_marked(automata: Sequence[Automaton], cur) -> bool:
    """Is the tuple of component states marked, i.e. marked in every component?"""
    return all(a.is_marked(x) for a, x in zip(automata, cur))


def pairs(flat):
    """The ``(event, target)`` pairs of a flat out-edge list ``[e0, t0, e1, t1, ...]``."""
    it = iter(flat)
    return zip(it, it)


def product(automata: Sequence[Automaton], alphabet: Alphabet):
    """Reachable synchronous product, its states numbered 0, 1, ... in breadth-first order.

    Shared events synchronize and private ones interleave; ``alphabet`` fixes
    the event order and so the breadth-first order of the product states.
    Every component needs an initial state.  Returns ``(nodes, parent,
    succ)``: the tuple of component states of each node, the list of parent
    pointers (``(i, event)`` per node, None for node 0) that
    :func:`~desctl.automata.path_to` follows, and the out-edges of each node
    as one flat list ``[event, j, event, j, ...]`` in alphabet order, read
    in pairs by :func:`pairs`.
    """
    step = successors(automata, alphabet)
    nodes, parent, succ = [tuple(a.initial for a in automata)], [None], []
    ids = {nodes[0]: 0}
    for i, node in enumerate(nodes):  # the queue; nodes past i are discovered, not expanded
        edges = []
        for e, tgt in step(node):
            if (j := ids.get(tgt)) is None:
                ids[tgt] = j = len(nodes)
                nodes.append(tgt)
                parent.append((i, e))
            edges += e, j
        succ.append(edges)
    return nodes, parent, succ


def free_delimiter(automata: Sequence[Automaton]) -> str:
    """``|``, doubled until no component state name contains it."""
    delimiter = "|"
    while any(delimiter in q for a in automata for q in a.states):
        delimiter += delimiter
    return delimiter


def parallel(automata: Sequence[Automaton], delimiter: str = "|") -> Automaton:
    """Parallel composition: shared events synchronize, private ones interleave.

    Only the reachable part of the product is built, by breadth-first
    exploration from the tuple of initial states.  Composite states are the
    component state names joined by ``delimiter`` in input order.
    """
    automata = list(automata)
    if not automata:
        raise ComposeError("parallel composition needs at least one automaton")
    alphabet = merged_alphabet(automata)
    name = delimiter.join(a.name for a in automata)
    if any(a.initial is None for a in automata):
        return empty_automaton(name, alphabet)
    for a in automata:
        for q in a.states:
            if delimiter in q:
                raise ComposeError(
                    f"state name {q!r} of {a.name!r} contains the delimiter {delimiter!r}"
                )
    nodes, parent, succ = product(automata, alphabet)
    del parent  # only witnesses need it; freed before the states are named
    return from_nodes(name, alphabet, dict(enumerate(map(delimiter.join, nodes))),
                      lambda i: pairs(succ[i]), 0,
                      (i for i, q in enumerate(nodes) if all_marked(automata, q)))

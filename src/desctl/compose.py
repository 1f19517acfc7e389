"""Synchronous (parallel) composition and natural projection."""

from __future__ import annotations

from typing import Sequence

from .automata import Alphabet, Automaton, InputError, empty_automaton, explore, from_nodes


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
    of ``alphabet`` must be declared by some component.
    """
    # Most events are disabled by the first component that declares them, so
    # that one is checked before the next tuple is allocated.
    declaring = [(e, i0, first, rest) for e, ((i0, first), *rest)
                 in _declaring(automata, alphabet.events).items()]

    def step(cur):
        edges = []
        for e, i0, first, rest in declaring:
            t = first.get((cur[i0], e))
            if t is None:
                continue
            nxt = list(cur)
            nxt[i0] = t
            for i, trans in rest:
                t = trans.get((cur[i], e))
                if t is None:
                    break
                nxt[i] = t
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


def product(automata: Sequence[Automaton], alphabet: Alphabet):
    """Reachable synchronous product over tuples of component states.

    Shared events synchronize and private ones interleave; ``alphabet`` fixes
    the event order and so the breadth-first order of the product states.
    Every component needs an initial state.  Returns ``(order, parent,
    transitions)``: the product states and parent pointers as
    :func:`~desctl.automata.explore` returns them, and the product
    transition map ``(state, event) -> state``.
    """
    step = successors(automata, alphabet)
    transitions: dict[tuple[tuple[str, ...], str], tuple[str, ...]] = {}
    # One tuple per product state, shared by every edge into it.
    canonical: dict[tuple[str, ...], tuple[str, ...]] = {}

    def record(cur):
        edges = []
        for e, tgt in step(cur):
            tgt = canonical.setdefault(tgt, tgt)
            transitions[(cur, e)] = tgt
            edges.append((e, tgt))
        return edges

    order, parent, _ = explore(tuple(a.initial for a in automata), record)
    return order, parent, transitions


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
    order, parent, transitions = product(automata, alphabet)
    del parent  # only witnesses need it; freed before the states are named
    return from_nodes(name, alphabet, order, transitions.items(), order[0],
                      (q for q in order if all_marked(automata, q)),
                      lambda _i, q: delimiter.join(q))


def project(trace: Sequence[str], alphabet: Alphabet) -> tuple[str, ...]:
    """Natural projection: keep only the events the alphabet declares."""
    return tuple(e for e in trace if e in alphabet)

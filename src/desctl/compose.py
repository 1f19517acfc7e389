"""Synchronous (parallel) composition."""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .automata import (Alphabet, Automaton, InputError, empty_automaton, explore, from_lists,
                       pairs, prober)


class ComposeError(InputError):
    pass


def merged_alphabet(automata: Sequence[Automaton]) -> Alphabet:
    """Union of alphabets in input order; flags must agree on shared events."""
    flags: dict[str, bool] = {}
    for a in automata:
        for eid, ctrl in a.alphabet.entries:
            if flags.setdefault(eid, ctrl) != ctrl:
                raise ComposeError(f"event {eid!r} is controllable in one component and "
                                   "uncontrollable in another")
    return Alphabet(tuple(flags.items()))


def successors(automata: Sequence[Automaton], alphabet: Alphabet):
    """The synchronous step rule on tuples of component state indices.

    Returns ``step(cur)``, which lists ``(event rank, next)`` in ``alphabet``
    order for every event that each component declaring it can take; the
    others keep their state.  Each event is owned by the first component that
    declares it: a step walks each owner's out-edges at ``cur`` and probes the
    other declaring components, so it costs the enabled edges.  ValueError
    unless every event has an owner and each owner's events form one block of
    ``alphabet`` in its own order, owners in component order, as in
    :func:`merged_alphabet` and a plant alphabet with the plant first.
    """
    declaring = [[i for i, a in enumerate(automata) if e in a.alphabet] for e in alphabet.events]
    for e, d in zip(alphabet.events, declaring):
        if not d:
            raise ValueError(f"no component declares the event {e!r}")
    keys = [(d[0], automata[d[0]].alphabet.rank[e]) for e, d in zip(alphabet.events, declaring)]
    if keys != sorted(keys):
        raise ValueError("the alphabet does not list each owner's events in one block")
    # Per owner i, by i's event rank: the event's rank in alphabet and the other
    # declaring components with the event's rank in each, or None for an event
    # that i does not own.
    owned: dict = {}
    probes = list(map(prober, automata))
    for g, (i, k) in enumerate(keys):
        owned.setdefault(i, [None] * len(automata[i].alphabet))[k] = (g, [
            (j, probes[j], automata[j].alphabet.rank[alphabet.events[g]])
            for j in declaring[g][1:]])
    index = [(i, automata[i].out, mine) for i, mine in owned.items()]

    def step(cur):
        edges = []
        for i, out, mine in index:
            for e, t in pairs(out[cur[i]]):
                if (m := mine[e]) is None:
                    continue
                g, rest = m
                nxt = list(cur)
                nxt[i] = t
                for j, probe, k in rest:
                    if (t := probe(cur[j], k)) is None:
                        break
                    nxt[j] = t
                else:
                    edges.append((g, tuple(nxt)))
        return edges

    return step


def fired(automata: Sequence[Automaton], events):
    """``go(cur, e)``: the tuple after the event named ``e`` fires at ``cur``, or None."""
    # Only the components that declare ``e`` are walked.
    probes = list(map(prober, automata))
    table = {e: [(i, probes[i], a.alphabet.rank[e]) for i, a in enumerate(automata)
                 if e in a.alphabet] for e in events}
    # An event outside ``events`` is disabled, as if by a first component without it.
    disabled = ((0, probes[0], None),)

    def go(cur, e):
        nxt = list(cur)
        for i, probe, k in table.get(e, disabled):
            if (t := probe(cur[i], k)) is None:
                return None
            nxt[i] = t
        return tuple(nxt)

    return go


def all_marked(automata: Sequence[Automaton]):
    """``marked(cur)``: is the tuple of component states marked in every component?"""
    sets = [a.marked_ids for a in automata]
    return lambda cur: all(map(frozenset.__contains__, sets, cur))


def joined(automata: Sequence[Automaton], delimiter: str):
    """``name(node)``: the component state names of a product node joined by ``delimiter``."""
    names = [a.states for a in automata]
    return lambda node: delimiter.join(map(tuple.__getitem__, names, node))


def product(automata: Sequence[Automaton], alphabet: Alphabet):
    """Reachable synchronous product, its states numbered 0, 1, ... in breadth-first order.

    Shared events synchronize and private ones interleave; ``alphabet`` fixes
    the event order and so the breadth-first order of the product states.
    Every component needs an initial state.  Returns ``(nodes, succ)`` of
    :func:`~desctl.automata.explore` with the step rule of :func:`successors`:
    the tuple of component state indices of each node, and the out-edges of
    each node as one flat list ``[event, j, event, j, ...]`` in alphabet
    order, events by rank in ``alphabet``.
    """
    return explore(tuple(a.start for a in automata), successors(automata, alphabet))[:2]


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
    nodes, succ = product(automata, alphabet)
    return from_lists(name, alphabet, map(joined(automata, delimiter), nodes), succ, 0,
                      compress(range(len(nodes)), map(all_marked(automata), nodes)))

"""Synchronous (parallel) composition and natural projection."""

from __future__ import annotations

from typing import Sequence

from .automata import Alphabet, Automaton, empty_automaton, explore


class ComposeError(ValueError):
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


def product(automata: Sequence[Automaton], alphabet: Alphabet):
    """Reachable synchronous product over tuples of component states.

    Shared events synchronize and private ones interleave; ``alphabet`` fixes
    the event order and so the breadth-first order of the product states.
    Every component needs an initial state.  Returns ``(order, parent,
    transitions)``: the product states and parent pointers as
    :func:`~desctl.automata.explore` returns them, and the product
    transition map ``(state, event) -> state``.
    """
    declaring = [(e, [(i, a.transitions) for i, a in enumerate(automata)
                      if e in a.alphabet])
                 for e in alphabet.events]
    transitions: dict[tuple[tuple[str, ...], str], tuple[str, ...]] = {}
    # One tuple per product state, shared by every edge into it.
    canonical: dict[tuple[str, ...], tuple[str, ...]] = {}

    def step(cur):
        edges = []
        for e, movers in declaring:
            nxt = list(cur)
            for i, trans in movers:
                t = trans.get((cur[i], e))
                if t is None:
                    break
                nxt[i] = t
            else:
                tgt = tuple(nxt)
                tgt = canonical.setdefault(tgt, tgt)
                transitions[(cur, e)] = tgt
                edges.append((e, tgt))
        return edges

    order, parent, _ = explore(tuple(a.initial for a in automata), step)
    return order, parent, transitions


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
    order, _, transitions = product(automata, alphabet)
    joined = {q: delimiter.join(q) for q in order}
    trans = {(joined[q], e): joined[t] for (q, e), t in transitions.items()}
    del transitions  # free it before the Automaton copies ``trans``
    return Automaton(
        name=name,
        alphabet=alphabet,
        states=tuple(joined.values()),
        transitions=trans,
        initial=joined[order[0]],
        marked=tuple(joined[q] for q in order
                     if all(a.is_marked(x) for a, x in zip(automata, q))),
    )


def project(trace: Sequence[str], alphabet: Alphabet) -> tuple[str, ...]:
    """Natural projection: keep only the events the alphabet declares."""
    return tuple(e for e in trace if e in alphabet)

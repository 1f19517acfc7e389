"""Controllability checking, modular closed loops, and supervisor synthesis.

Supervisors act on sub-alphabets: an event a supervisor does not declare is
permanently enabled by that supervisor.  Several supervisors act
conjunctively; an event fires only if the plant and every declaring
supervisor enable it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from operator import and_
from typing import Optional, Sequence

from .automata import (Automaton, InputError, empty_automaton, explore, from_lists, from_nodes,
                       pairs, path_to, predecessors, prober, reachable, spelled)
from .compose import all_marked, joined, parallel, product, successors


class AlphabetError(InputError):
    pass


@dataclass(frozen=True)
class ControllabilityReport:
    controllable: bool
    counterexample: Optional[tuple[tuple[str, ...], str]]  # (string s, event e)
    states_checked: int


@dataclass(frozen=True)
class ConflictReport:
    nonconflicting: bool
    counterexample: Optional[tuple[str, ...]]  # shortest string to a blocking state
    states_checked: int


def _require_subalphabet(plant: Automaton, sup: Automaton) -> None:
    missing = [e for e in sup.alphabet.events if e not in plant.alphabet]
    if missing:
        raise AlphabetError(
            f"supervisor {sup.name!r} declares events outside the plant "
            f"alphabet: {', '.join(missing)}"
        )


def closed_loop(plant: Automaton, sups: Sequence[Automaton]) -> Automaton:
    """Modular closed loop: plant composed with every supervisor.

    Events outside every supervisor alphabet are constrained by the plant
    alone.  State names join the component names as :func:`~desctl.compose.parallel`
    does: with ``|``, doubled until no component state name contains it.
    """
    sup_list = list(sups)
    for s in sup_list:
        _require_subalphabet(plant, s)
    if not sup_list:
        return plant
    # Controllability flags are owned by the plant alphabet.
    components = [plant] + [
        replace(s, alphabet=s.alphabet.reflagged(plant.alphabet.uncontrollable))
        for s in sup_list]
    return parallel(components)


def _first_disabled(plant: Automaton, sup: Automaton):
    """``first(qp, qs)``: the first uncontrollable event, as its plant rank, that the
    plant enables at ``qp`` and ``sup`` declares but disables at ``qs``, or None."""
    # Each uncontrollable plant event that sup declares, by plant rank: its sup rank.
    guarded = {plant.alphabet.rank[e]: sup.alphabet.rank[e]
               for e in plant.alphabet.uncontrollable if e in sup.alphabet}
    if not guarded:
        return lambda qp, qs: None
    probe = prober(sup)

    def first(qp, qs):
        for e in plant.out[qp][::2]:
            if e in guarded and probe(qs, guarded[e]) is None:
                return e
        return None

    return first


def check_controllability(plant: Automaton, sup: Automaton) -> ControllabilityReport:
    """Does the supervisor never disable an uncontrollable plant event?

    Explores the reachable part of plant || sup.  A violation is a composite
    state where some uncontrollable event (flags per the plant alphabet) is
    plant-active, declared by the supervisor, and not supervisor-active.
    The counterexample is shortest-first, ties broken by event declaration
    order in the plant alphabet.
    """
    _require_subalphabet(plant, sup)
    if plant.start is None or sup.start is None:
        return ControllabilityReport(True, None, 0)
    step = successors([plant, sup], plant.alphabet)
    first = _first_disabled(plant, sup)

    def check(node):
        # A violation ends the search at this node, so its other edges are moot.
        e = first(*node)
        return step(node) if e is None else [(e, None)]

    order, _, witness = explore((plant.start, sup.start), check)
    if witness is None:
        return ControllabilityReport(True, None, len(order))
    witness = spelled(plant.alphabet.events, witness)
    return ControllabilityReport(False, (witness[:-1], witness[-1]), len(order))


def check_nonconflicting(plant: Automaton, sups: Sequence[Automaton]) -> ConflictReport:
    """Is the modular closed loop nonblocking?

    Explores the product of the plant and every supervisor on tuples of
    component states, without building the closed-loop automaton.  On
    conflict, reports a shortest string reaching a state from which no
    marked state is reachable, ties broken by plant-alphabet order: the
    product's numbering is breadth-first, so that is the first blocking
    state, and :func:`~desctl.automata.path_to` spells it from the
    product's own out-edge lists.
    """
    components = [plant] + list(sups)
    for s in components[1:]:
        _require_subalphabet(plant, s)
    if any(a.start is None for a in components):
        return ConflictReport(False, (), 0)
    nodes, succ = product(components, plant.alphabet)
    marked = list(compress(range(len(nodes)), map(all_marked(components), nodes)))
    del nodes  # not held through the backward search
    n = len(succ)
    blocking = reachable(predecessors(succ).__getitem__, marked, n).find(0)
    if blocking < 0:
        return ConflictReport(True, None, n)
    return ConflictReport(False, spelled(plant.alphabet.events, path_to(succ, blocking)),
                          blocking + 1)


def supcon(plant: Automaton, spec: Automaton) -> Automaton:
    """Supremal controllable sublanguage of plant || spec, as a trim automaton.

    A call costs one product search, one pass over the product's edges, and
    then work in proportion to the states it deletes.  The states that disable
    an uncontrollable plant event, or reach no marked state, start the
    fixpoint; each round deletes a list of states with their uncontrollable
    attractor (:func:`_attracted`) and hands on the states that this leaves
    blocking (:func:`_unwitnessed`).  A product that needs no pruning is
    returned as it is, its numbering and edge lists unchanged; otherwise a
    forward reach keeps the surviving states.  The result and its states are
    named as :func:`~desctl.compose.parallel` names those of ``[plant, spec]``.
    Returns the canonical empty automaton, so named, when nothing survives.
    """
    _require_subalphabet(plant, spec)
    components = [plant, spec]
    name, state = joined(components)
    if plant.start is None or spec.start is None:
        return empty_automaton(name, plant.alphabet)

    nodes, succ = product(components, plant.alphabet)
    n = len(nodes)
    marked = bytes(map(all_marked(components), nodes))
    uncontrollable = set(map(plant.alphabet.rank.get, plant.alphabet.uncontrollable))
    preds, upreds = [[] for _ in succ], [[] for _ in succ]
    for q, row in enumerate(succ):
        for e, t in pairs(row):
            preds[t].append(q)
            if e in uncontrollable:
                upreds[t].append(q)
    wit = _witnesses(preds, compress(range(n), marked))
    first = _first_disabled(plant, spec)
    doomed = [i for i, q in enumerate(nodes) if wit[i] < 0 or first(*q) is not None]
    pruned = bool(doomed)
    good = bytearray(b"\1") * n
    while doomed:
        doomed = _unwitnessed(_attracted(doomed, good, upreds, succ), good, wit, preds, succ)
    del preds, upreds, wit
    if not pruned:  # reachable, controllable and trim as it is
        return from_lists(name, plant.alphabet, map(state, nodes), succ, 0,
                          compress(range(n), marked))
    if not good[0]:
        return empty_automaton(name, plant.alphabet)
    # A deleted state has no out-edges left, so the reach does not pass it.
    names = {i: state(nodes[i]) for i in compress(range(n), map(
        and_, reachable(lambda i: succ[i][1::2], [0], n), good))}
    return from_nodes(name, plant.alphabet, names, lambda i: pairs(succ[i]), 0,
                      (i for i in names if marked[i]))


def _witnesses(preds: list, marked) -> list:
    """``wit[q]``: a successor of ``q`` on a path to a ``marked`` state, ``q`` itself
    for a marked state, or -1 if ``q`` reaches none; ``preds`` lists each state's
    predecessors."""
    wit = [-1] * len(preds)
    todo = list(marked)
    for q in todo:
        wit[q] = q
    while todo:
        q = todo.pop()
        for p in preds[q]:
            if wit[p] < 0:
                wit[p] = q
                todo.append(p)
    return wit


def _attracted(seeds: list, good: bytearray, upreds: list, succ: list) -> list:
    """Delete the ``good`` states among ``seeds``, and every good state with an
    uncontrollable path into them; the states deleted, in no particular order.

    A deleted state's flag is cleared and its out-edges emptied.  The search
    stops at states deleted before: their uncontrollable predecessors went with them.
    """
    todo = []
    for q in seeds:
        if good[q]:
            good[q] = 0
            todo.append(q)
    deleted = []
    while todo:
        q = todo.pop()
        deleted.append(q)
        succ[q] = ()
        for p in upreds[q]:
            if good[p]:
                good[p] = 0
                todo.append(p)
    return deleted


def _unwitnessed(deleted: list, good: bytearray, wit: list, preds: list, succ: list) -> list:
    """The good states that can no longer reach a marked state once ``deleted`` are.

    Only the states whose witness chain ran into a deleted state are looked at
    (flagged 2 while they are): each takes a good successor outside them as
    its new witness if it has one, and the states that reach it within them
    follow it.  The rest keep their flag 2 and are returned.
    """
    lost, todo = [], list(deleted)
    while todo:
        q = todo.pop()
        for p in preds[q]:
            if good[p] == 1 and wit[p] == q:
                good[p] = 2
                lost.append(p)
                todo.append(p)
    for q in lost:
        for t in succ[q][1::2]:
            if good[t] == 1:
                wit[q], good[q] = t, 1
                todo.append(q)
                break
    while todo:
        q = todo.pop()
        for p in preds[q]:
            if good[p] == 2:
                wit[p], good[p] = q, 1
                todo.append(p)
    return [q for q in lost if good[q] == 2]

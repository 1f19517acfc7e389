"""Controllability checking, modular closed loops, and supervisor synthesis.

Supervisors act on sub-alphabets: an event a supervisor does not declare is
permanently enabled by that supervisor.  Several supervisors act
conjunctively; an event fires only if the plant and every declaring
supervisor enable it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from operator import and_, gt
from typing import Optional, Sequence

from .automata import (Automaton, InputError, empty_automaton, explore, from_nodes, pairs,
                       path_to, predecessors, prober, reachable, spelled)
from .compose import all_marked, free_delimiter, joined, parallel, product, successors


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
    alone.  State names join the component names with ``|``, repeated until
    no component state name contains it.
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
    return parallel(components, delimiter=free_delimiter(components))


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

    A fixpoint of two backward searches over predecessor lists built once:
    the uncontrollable attractor of the states that disable an uncontrollable
    plant event, then the states that cannot reach a marked one, one round
    per alternation.  The forward reach runs once, at the end.  States join
    component names with ``|``, or with :func:`~desctl.compose.free_delimiter`
    if two names would collide.  Returns the canonical empty automaton when
    nothing survives.
    """
    _require_subalphabet(plant, spec)
    name = f"{plant.name}|{spec.name}"
    if plant.start is None or spec.start is None:
        return empty_automaton(name, plant.alphabet)

    nodes, succ = product([plant, spec], plant.alphabet)
    n, states = len(nodes), range(len(nodes))
    marked = bytes(map(all_marked([plant, spec]), nodes))
    preds = predecessors(succ)
    upreds = predecessors(succ, set(map(plant.alphabet.rank.get, plant.alphabet.uncontrollable)))
    good = bytearray(b"\1") * n
    first = _first_disabled(plant, spec)
    removed = [i for i, q in enumerate(nodes) if first(*q) is not None]
    while True:
        # The attractor stops at states deleted in earlier rounds: their
        # uncontrollable predecessors were deleted with them.
        removed = list(compress(states, map(and_, reachable(upreds.__getitem__, removed, n),
                                            good)))
        for q in removed:  # a deleted state leaves the graph
            good[q] = 0
            preds[q] = upreds[q] = succ[q] = ()
        # Blocking: no marked state is reachable within good.
        coreach = reachable(preds.__getitem__, compress(states, map(and_, marked, good)), n)
        removed = list(compress(states, map(gt, good, coreach)))
        if not removed:
            break
    del preds, upreds
    if not good[0]:
        return empty_automaton(name, plant.alphabet)
    # A deleted state has no out-edges left, so the reach does not pass it.
    reach = list(compress(states, map(and_, reachable(lambda i: succ[i][1::2], [0], n), good)))
    name_of = joined([plant, spec], "|")
    if len({name_of(nodes[i]) for i in reach}) < len(reach):
        name_of = joined([plant, spec], free_delimiter([plant, spec]))
    return from_nodes(name, plant.alphabet, {i: name_of(nodes[i]) for i in reach},
                      lambda i: pairs(succ[i]), 0, (i for i in reach if marked[i]))

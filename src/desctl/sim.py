"""Step-by-step execution of the modular closed loop.

The simulator steps the plant and each supervisor as separate component
automata, with the step rule that composition uses; it never builds the
composed product.  Random runs use Python's ``random.Random`` (Mersenne
Twister) seeded with the policy seed and pick uniformly over the enabled set
in plant-alphabet declaration order, so a given seed reproduces the same
trace on every platform.  A random run remembers the choices of a state it
revisits, at most one entry per distinct state visited, and draws from the
same list the step rule returns, so the trace does not depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .automata import Automaton, BadQueryError, InputError, JsonStrings, check_shape, json_list
from .compose import all_marked, fired, successors
from .control import SupervisorSet, _require_subalphabet

COMPLETION_EVENTS = {"1": "A.done1", "2": "A.done2"}
# The JSON shape of report_to_dict's output (see automata.check_shape).
_REPORT = {"trace": list, "steps_taken": int, "deadlocked": bool, "completions": {},
           "blocked_event": (str, type(None)), "final_marked": bool}
_ROW = {"event": str, "configuration": {"plant_state": str, "sup_states": [str]}}


class NotEnabledError(ValueError):
    """An event was fired while the plant or a supervisor disables it."""

    def __init__(self, event: str, blocker: str):
        self.event = event
        self.blocker = blocker
        super().__init__(f"event {event!r} is not enabled (blocked by {blocker})")


class ScriptError(InputError):
    """A scripted event is not in the plant alphabet."""


class Configuration(NamedTuple):
    plant_state: str
    sup_states: tuple[str, ...]


@dataclass(frozen=True)
class Scripted:
    events: tuple[str, ...]


@dataclass(frozen=True)
class Random:
    seed: int


@dataclass(frozen=True)
class Interactive:
    """Line-oriented REPL policy; also understands undo / state / quit."""

    read: Callable[[str], str] = input
    write: Callable[[str], None] = print


Policy = Union[Scripted, Random, Interactive]


@dataclass(frozen=True)
class RunReport:
    trace: tuple[tuple[str, Configuration], ...]
    steps_taken: int
    deadlocked: bool
    blocked_event: Optional[str]
    completions: dict[str, int]
    final_marked: bool


def initial_configuration(plant: Automaton,
                          sups: SupervisorSet | Sequence[Automaton]) -> Configuration:
    sup_list = list(sups)
    for s in sup_list:
        _require_subalphabet(plant, s)
    if plant.initial is None or any(s.initial is None for s in sup_list):
        raise BadQueryError("cannot simulate an empty automaton")
    return Configuration(plant.initial, tuple(s.initial for s in sup_list))


def _checked(plant: Automaton, sups, cfg: Configuration) -> tuple[list, tuple[str, ...]]:
    """The components, and ``cfg`` as the tuple of their states; BadQueryError if invalid."""
    components = [plant, *sups]
    cur = (cfg.plant_state, *cfg.sup_states)
    if len(cur) != len(components) or not all(map(Automaton.has_state, components, cur)):
        raise BadQueryError(f"invalid configuration {cfg}")
    return components, cur


def enabled(plant: Automaton, sups: SupervisorSet | Sequence[Automaton],
            cfg: Configuration) -> tuple[str, ...]:
    """Events enabled by the plant and every declaring supervisor."""
    components, cur = _checked(plant, sups, cfg)
    go = fired(components, plant.alphabet.events)
    return tuple(e for e in plant.alphabet.events if go(cur, e) is not None)


def fire(plant: Automaton, sups: SupervisorSet | Sequence[Automaton],
         cfg: Configuration, e: str) -> Configuration:
    """Advance the plant and every declaring supervisor on ``e``."""
    components, cur = _checked(plant, sups, cfg)
    if e not in plant.alphabet:
        raise BadQueryError(f"unknown event {e!r}")
    nxt = fired(components, (e,))(cur, e)
    if nxt is None:
        i = next(i for i, a in enumerate(components)
                 if e in a.alphabet and (cur[i], e) not in a.transitions)
        raise NotEnabledError(e, components[i].name if i else "plant")
    return _configuration(nxt)


def is_marked(plant: Automaton, sups: SupervisorSet | Sequence[Automaton],
              cfg: Configuration) -> bool:
    return all_marked([plant, *sups], (cfg.plant_state, *cfg.sup_states))


def _configuration(cur: tuple[str, ...]) -> Configuration:
    # What the namedtuple's generated __new__ does, without the Python frame.
    return tuple.__new__(Configuration, (cur[0], cur[1:]))


def _count_completions(trace) -> dict[str, int]:
    return {cat: sum(1 for e, _cfg in trace if e == ev)
            for cat, ev in sorted(COMPLETION_EVENTS.items())}


def run(plant: Automaton, sups: SupervisorSet | Sequence[Automaton],
        policy: Policy, max_steps: int) -> RunReport:
    """Execute the closed loop under a policy for at most ``max_steps`` steps."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    sup_list = list(sups)
    cfg = initial_configuration(plant, sup_list)
    components = [plant, *sup_list]
    step = successors(components, plant.alphabet)
    cur = (cfg.plant_state, *cfg.sup_states)
    trace: list[tuple[str, Configuration]] = []
    blocked_event: Optional[str] = None

    if isinstance(policy, Scripted):
        for e in policy.events:
            if e not in plant.alphabet:
                raise ScriptError(f"scripted event {e!r} is not in the plant alphabet")
        requested = min(len(policy.events), max_steps)
        go = fired(components, plant.alphabet.events)
        for e in policy.events[:requested]:
            nxt = go(cur, e)
            if nxt is None:
                blocked_event = e
                break
            cur = nxt
            trace.append((e, _configuration(cur)))
    elif isinstance(policy, Random):
        rng = random.Random(policy.seed)
        requested = max_steps
        # A state's choices are kept from its second visit on, so a run that
        # never comes back (a long chain) stores no list per step.
        seen: dict = {}
        for _ in range(max_steps):
            choices = seen.get(cur)
            if choices is None:
                seen[cur] = False
                choices = step(cur)
            elif choices is False:
                choices = seen[cur] = step(cur)
            if not choices:
                break
            e, cur = choices[rng.randrange(len(choices))]
            trace.append((e, _configuration(cur)))
    elif isinstance(policy, Interactive):
        requested = max_steps
        history = [cur]
        while len(trace) < max_steps:
            choices = step(cur)
            if not choices:
                policy.write("deadlock: no enabled events")
                break
            for i, (e, _) in enumerate(choices, start=1):
                policy.write(f"  {i}. {e}")
            try:
                line = policy.read("> ").strip()
            except EOFError:
                break
            if line == "quit":
                break
            if line == "state":
                policy.write(f"plant: {cur[0]}")
                for s, q in zip(sup_list, cur[1:]):
                    policy.write(f"{s.name}: {q}")
                continue
            if line == "undo":
                if trace:
                    trace.pop()
                    history.pop()
                    cur = history[-1]
                else:
                    policy.write("nothing to undo")
                continue
            try:
                idx = int(line)
            except ValueError:
                idx = 0  # not a number: reprompt below
            if not 1 <= idx <= len(choices):
                policy.write(f"choose 1..{len(choices)}, undo, state or quit")
                continue
            e, cur = choices[idx - 1]
            trace.append((e, _configuration(cur)))
            history.append(cur)
    else:
        raise TypeError(f"unknown policy {policy!r}")

    steps = len(trace)
    deadlocked = not step(cur) and steps < requested
    return RunReport(
        trace=tuple(trace),
        steps_taken=steps,
        deadlocked=deadlocked,
        blocked_event=blocked_event,
        completions=_count_completions(trace),
        final_marked=all_marked(components, cur),
    )


def replay(plant: Automaton, sups: SupervisorSet | Sequence[Automaton],
           report: RunReport) -> bool:
    """Re-fire the trace and confirm every recorded step, count and verdict."""
    sup_list = list(sups)
    try:
        cfg = initial_configuration(plant, sup_list)
    except BadQueryError:
        return False
    components = [plant, *sup_list]
    go = fired(components, plant.alphabet.events)
    cur = (cfg.plant_state, *cfg.sup_states)
    for e, recorded in report.trace:
        cur = go(cur, e)
        # The fields that Configuration equality compares, without building one.
        if cur is None or recorded.plant_state != cur[0] or recorded.sup_states != cur[1:]:
            return False
    # A deadlock leaves no plant event enabled; a blocked event is one left disabled.
    disabled = [e for e in plant.alphabet.events if go(cur, e) is None]
    return (report.steps_taken == len(report.trace)
            and report.completions == _count_completions(report.trace)
            and report.final_marked == all_marked(components, cur)
            and not (report.deadlocked and len(disabled) < len(plant.alphabet))
            and report.blocked_event in (None, *disabled))


# -- report serialization -------------------------------------------------

def report_to_dict(report: RunReport) -> dict:
    return {
        "trace": [
            {"event": e,
             "configuration": {"plant_state": c.plant_state,
                               "sup_states": list(c.sup_states)}}
            for e, c in report.trace
        ],
        "steps_taken": report.steps_taken,
        "deadlocked": report.deadlocked,
        "blocked_event": report.blocked_event,
        "completions": report.completions,
        "final_marked": report.final_marked,
    }


def report_to_json(report: RunReport) -> str:
    """The text of ``json.dumps(report_to_dict(report), indent=2)`` and a newline."""
    q = JsonStrings()

    def row(e: str, c: Configuration) -> str:
        sups = "".join(json_list(map(q.__getitem__, c.sup_states), 4))
        return (f'{{\n      "event": {q[e]},\n      "configuration": {{\n        "plant_state": '
                f'{q[c.plant_state]},\n        "sup_states": {sups}\n      }}\n    }}')

    # The trace is the first field, so the first "[]" is the emptied trace.
    head, tail = json.dumps(report_to_dict(replace(report, trace=())), indent=2).split("[]", 1)
    return "".join([head, *json_list((row(e, c) for e, c in report.trace), 1), tail, "\n"])


def report_from_dict(doc: dict) -> RunReport:
    """The report a :func:`report_to_dict` document describes; ModelFormatError, located, if not."""
    check_shape(doc, _REPORT, "report")
    # The rows are checked a column at a time at C speed, and located only on failure.
    try:
        cfgs = [row["configuration"] for row in doc["trace"]]
        events, states = [row["event"] for row in doc["trace"]], [c["plant_state"] for c in cfgs]
        sups = [c["sup_states"] for c in cfgs]
        if not (all(map(isinstance, sups, repeat(list)))
                and all(map(isinstance, chain(events, states, *sups), repeat(str)))):
            raise TypeError("a field of the wrong type")
    except (TypeError, KeyError):
        check_shape(doc["trace"], [_ROW], "report.trace")
    return RunReport(tuple(zip(events, map(Configuration, states, map(tuple, sups)))),
                     doc["steps_taken"], doc["deadlocked"], doc["blocked_event"],
                     dict(doc["completions"]), doc["final_marked"])
